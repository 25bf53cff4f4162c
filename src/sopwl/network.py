"""Radial distribution network cases: schema, validation, unit conversion."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

__all__ = ["Bus", "Branch", "Load", "Generator", "NetworkCase", "load_case", "bundled_case_path"]

DEFAULT_V_SQR_MIN = 0.9**2
DEFAULT_V_SQR_MAX = 1.1**2

# A case's "name" is part of output file names and the LP text's first line.
_CASE_NAME_RE = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


@dataclass(frozen=True)
class Bus:
    id: int
    v_sqr_min: float = DEFAULT_V_SQR_MIN
    v_sqr_max: float = DEFAULT_V_SQR_MAX


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    i_max_amps: float

    @property
    def key(self) -> str:
        return f"{self.from_bus}-{self.to_bus}"


@dataclass(frozen=True)
class Load:
    bus: int
    p_pu: float
    q_pu: float


@dataclass(frozen=True)
class Generator:
    bus: int
    p_max_pu: float
    q_max_pu: float


@dataclass(frozen=True)
class NetworkCase:
    """A validated radial feeder. Construction rejects anything that is not a
    tree rooted at the first bus with branches running parent -> child, or
    that puts more than one load or generator on a bus."""

    name: str
    s_base_mva: float
    v_base_kv: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    loads: tuple[Load, ...]
    generators: tuple[Generator, ...]
    # the branches parents-first (breadth-first from the root, children in
    # file order); set by validation
    order: tuple[Branch, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _parents_first(self))

    @property
    def root(self) -> int:
        return self.buses[0].id

    @property
    def i_base_amps(self) -> float:
        """Current base: S_base / (sqrt(3) * V_base) for a three-phase system."""
        return self.s_base_mva * 1e6 / (math.sqrt(3) * self.v_base_kv * 1e3)


class CaseError(ValueError):
    pass


def _parents_first(case: NetworkCase) -> tuple[Branch, ...]:
    """Validate the feeder tree and return its branches parents-first."""
    if not case.buses:
        raise CaseError("case has no buses")
    bus_ids = {b.id for b in case.buses}
    if len(bus_ids) != len(case.buses):
        raise CaseError("duplicate bus ids")
    if len(case.branches) != len(case.buses) - 1:
        raise CaseError(
            f"{len(case.branches)} branches for {len(case.buses)} buses: not a tree"
        )
    for bus in case.buses:
        if bus.v_sqr_min > bus.v_sqr_max:
            raise CaseError(
                f"bus {bus.id}: v_sqr_min {bus.v_sqr_min} > v_sqr_max {bus.v_sqr_max}"
            )
    children: dict[int, list[Branch]] = {b: [] for b in bus_ids}
    fed_by: dict[int, Branch] = {}  # each non-root bus's branch from its parent
    for br in case.branches:
        if br.from_bus not in bus_ids or br.to_bus not in bus_ids:
            raise CaseError(f"branch {br.key} references unknown bus")
        if br.to_bus == case.root:
            raise CaseError(
                f"branch {br.key} is oriented toward the root; "
                "branches must run parent -> child"
            )
        if br.to_bus in fed_by:
            raise CaseError(
                f"bus {br.to_bus} is fed by two branches, {fed_by[br.to_bus].key} "
                f"and {br.key}; each bus but the root has one parent"
            )
        fed_by[br.to_bus] = br
        children[br.from_bus].append(br)
    for what, items in (("load", case.loads), ("generator", case.generators)):
        seen: set[int] = set()
        for item in items:
            if item.bus not in bus_ids:
                raise CaseError(f"{what} at unknown bus {item.bus}")
            if item.bus in seen:
                raise CaseError(f"more than one {what} at bus {item.bus}")
            seen.add(item.bus)
    # every non-root bus has exactly one parent, so the walk from the root
    # misses a bus only when the branches also hold a cycle away from it
    order: list[Branch] = []
    frontier = [case.root]
    for bus in frontier:
        for br in children[bus]:
            order.append(br)
            frontier.append(br.to_bus)
    if len(order) != len(case.branches):
        raise CaseError("branch graph is disconnected")
    return tuple(order)


def _number(raw: dict, key: str, default: Optional[float] = None) -> float:
    """``raw[key]``, a JSON number (not a boolean or a string), as a finite,
    nonnegative float."""
    value = raw.get(key, default)
    if value is None:
        raise CaseError(f"missing required field {key!r} in {raw}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseError(f"{key} = {value!r} in {raw} must be a number")
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise CaseError(f"{key} = {value} in {raw} must be finite and nonnegative")
    return value


def _bus(raw: dict, key: str) -> int:
    """``raw[key]``, a bus id: a nonnegative JSON integer, not a boolean, a
    fraction or a string. The id is written into variable names and row tags,
    where a ``-`` is not LP-safe."""
    if key not in raw:
        raise CaseError(f"missing required field {key!r} in {raw}")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise CaseError(f"{key} = {value!r} in {raw} must be an integer bus id")
    if value < 0:
        raise CaseError(f"{key} = {value} in {raw} must be a nonnegative bus id")
    return value


def _objects(doc: dict, key: str) -> list[dict]:
    """``doc[key]``, a list of JSON objects; an absent field is an empty
    list."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise CaseError(f"{key!r} must be a list of objects, not a {type(items).__name__}")
    for item in items:
        if not isinstance(item, dict):
            raise CaseError(f"{key!r} must be a list of objects: {item!r} is not one")
    return items


def load_case(source: Union[str, Path, dict]) -> NetworkCase:
    """Load and validate a case document (JSON file or parsed dict)."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        doc = json.loads(path.read_text())
        default_name = path.stem
    else:
        doc = source
        default_name = "case"

    if not isinstance(doc, dict):
        raise CaseError(f"a case must be a JSON object, not a {type(doc).__name__}")
    # a name taken from the file's stem is a file name already
    name = doc.get("name", default_name)
    if "name" in doc and not (isinstance(name, str) and _CASE_NAME_RE.fullmatch(name)):
        raise CaseError(
            f"case name {name!r} must be letters, digits, '_', '-' and '.', "
            "not starting with '.'"
        )
    if "bases" not in doc:
        raise CaseError("missing required field: 'bases'")
    if not isinstance(doc["bases"], dict):
        raise CaseError(f"'bases' must be an object, not a {type(doc['bases']).__name__}")
    s_base = _number(doc["bases"], "s_base_mva")
    v_base = _number(doc["bases"], "v_base_kv")
    if s_base <= 0 or v_base <= 0:
        raise CaseError("bases must be positive")
    z_base = v_base**2 / s_base

    buses = tuple(
        Bus(
            id=_bus(b, "id"),
            v_sqr_min=_number(b, "v_sqr_min", DEFAULT_V_SQR_MIN),
            v_sqr_max=_number(b, "v_sqr_max", DEFAULT_V_SQR_MAX),
        )
        for b in _objects(doc, "buses")
    )

    branches = []
    for raw in _objects(doc, "branches"):
        if "r_pu" in raw:
            r_pu, x_pu = _number(raw, "r_pu"), _number(raw, "x_pu")
        elif "r_ohm" in raw:
            r_pu = _number(raw, "r_ohm") / z_base
            x_pu = _number(raw, "x_ohm") / z_base
        else:
            raise CaseError(f"branch {raw} needs r_pu or r_ohm")
        i_max_amps = _number(raw, "i_max_amps")
        if i_max_amps <= 0:
            raise CaseError(f"branch {raw} needs a positive i_max_amps")
        branches.append(
            Branch(
                from_bus=_bus(raw, "from"),
                to_bus=_bus(raw, "to"),
                r_pu=r_pu,
                x_pu=x_pu,
                i_max_amps=i_max_amps,
            )
        )

    loads = tuple(
        Load(bus=_bus(l, "bus"), p_pu=_number(l, "p_pu"), q_pu=_number(l, "q_pu"))
        for l in _objects(doc, "loads")
    )
    generators = tuple(
        Generator(
            bus=_bus(g, "bus"),
            p_max_pu=_number(g, "p_max_pu"),
            q_max_pu=_number(g, "q_max_pu"),
        )
        for g in _objects(doc, "generators")
    )

    return NetworkCase(
        name=name,
        s_base_mva=s_base,
        v_base_kv=v_base,
        buses=buses,
        branches=tuple(branches),
        loads=loads,
        generators=generators,
    )


def bundled_case_path(name: str) -> Path:
    """Path of a case shipped with the package (e.g. ``ieee33_4dg``)."""
    ref = resources.files("sopwl") / "cases" / f"{name}.json"
    with resources.as_file(ref) as path:
        if not path.exists():
            raise FileNotFoundError(f"no bundled case named {name!r}")
        return Path(path)
