"""Solver-agnostic mixed-integer linear program container, textual LP export,
solution import, and a feasibility re-check by direct substitution.
"""

from __future__ import annotations

import math
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol, Sequence

__all__ = [
    "Variable",
    "LinearConstraint",
    "MilpModel",
    "Solution",
    "SolverAdapter",
    "write_lp",
    "parse_solution",
    "check_solution",
    "solve",
]

CONTINUOUS = "continuous"
BINARY = "binary"

STATUS_TOKENS = ("optimal", "feasible", "infeasible", "unbounded", "error")

_LP_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")

FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float
    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"{self.name}: lower bound {self.lower} > upper {self.upper}")
        if self.kind == BINARY and not (0 <= self.lower and self.upper <= 1):
            raise ValueError(f"{self.name}: binary bounds must lie within [0, 1]")


@dataclass(frozen=True)
class LinearConstraint:
    terms: tuple[tuple[str, float], ...]
    sense: str  # "<=", "=", ">="
    rhs: float
    tag: str

    def __post_init__(self) -> None:
        if self.sense not in ("<=", "=", ">="):
            raise ValueError(f"unknown sense {self.sense!r}")
        names = [n for n, _ in self.terms]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.tag}: duplicate variable in constraint terms")
        for n, c in self.terms:
            if not math.isfinite(c):
                raise ValueError(f"{self.tag}: non-finite coefficient on {n}")
        if not math.isfinite(self.rhs):
            raise ValueError(f"{self.tag}: non-finite right-hand side")


class ModelFrozenError(RuntimeError):
    pass


class MilpModel:
    """Single-writer model; freeze() makes it immutable and shareable."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._variables: dict[str, Variable] = {}
        self._constraints: list[LinearConstraint] = []
        self.objective_sense: str = "min"
        self.objective_terms: tuple[tuple[str, float], ...] = ()
        self._frozen = False

    # -- construction ------------------------------------------------------

    def _require_unfrozen(self) -> None:
        if self._frozen:
            raise ModelFrozenError("model is frozen")

    def add_variable(
        self,
        name: str,
        lower: float = -math.inf,
        upper: float = math.inf,
        kind: str = CONTINUOUS,
    ) -> str:
        self._require_unfrozen()
        if name in self._variables:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        self._variables[name] = Variable(
            name=name, lower=lower, upper=upper, kind=kind, index=len(self._variables)
        )
        return name

    def _check_refs(self, terms: Iterable[tuple[str, float]], where: str) -> None:
        for n, _ in terms:
            if n not in self._variables:
                raise ValueError(f"{where}: reference to undeclared variable {n!r}")

    def add_constraint(
        self,
        terms: Mapping[str, float] | Sequence[tuple[str, float]],
        sense: str,
        rhs: float,
        tag: str,
    ) -> LinearConstraint:
        self._require_unfrozen()
        if isinstance(terms, Mapping):
            terms = list(terms.items())
        con = LinearConstraint(terms=tuple(terms), sense=sense, rhs=rhs, tag=tag)
        self._check_refs(con.terms, tag)
        self._constraints.append(con)
        return con

    def set_objective(
        self,
        sense: str,
        terms: Mapping[str, float] | Sequence[tuple[str, float]],
    ) -> None:
        self._require_unfrozen()
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {sense!r}")
        if isinstance(terms, Mapping):
            terms = list(terms.items())
        self._check_refs(terms, "objective")
        self.objective_sense = sense
        self.objective_terms = tuple(terms)

    def freeze(self) -> "MilpModel":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- retrieval ---------------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables.values())

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(self._constraints)

    def variable(self, name: str) -> Variable:
        return self._variables[name]

    def constraints_by_tag(self, prefix: str) -> list[LinearConstraint]:
        return [c for c in self._constraints if c.tag.startswith(prefix)]


@dataclass(frozen=True)
class Solution:
    status: str
    objective_value: float
    values: dict[str, float]
    missing: frozenset[str] = frozenset()
    solve_seconds: Optional[float] = None

    def __getitem__(self, name: str) -> float:
        return self.values[name]


# -- LP export -------------------------------------------------------------


def _lp_safe(name: str) -> str:
    if not _LP_NAME_RE.match(name):
        raise ValueError(f"name {name!r} is not LP-format-safe")
    return name


def _sanitize_tag(tag: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_.]", "_", tag)
    if not out or not re.match(r"[A-Za-z_]", out[0]):
        out = "c_" + out
    return out


def _format_coef(c: float) -> str:
    return repr(c) if c != int(c) else str(int(c))


def _format_terms(terms: Sequence[tuple[str, float]]) -> str:
    if not terms:
        return "0 __dummy__"
    parts: list[str] = []
    for i, (name, coef) in enumerate(terms):
        sign = "-" if coef < 0 else "+"
        mag = _format_coef(abs(coef))
        if i == 0 and sign == "+":
            parts.append(f"{mag} {name}")
        else:
            parts.append(f"{sign} {mag} {name}")
    return " ".join(parts)


def write_lp(model: MilpModel) -> str:
    """Deterministic CPLEX-style LP text; ordering follows declaration order."""
    if not model.frozen:
        raise ModelFrozenError("freeze the model before exporting")
    for v in model.variables:
        _lp_safe(v.name)

    lines: list[str] = [f"\\ {model.name}"]
    lines.append("Maximize" if model.objective_sense == "max" else "Minimize")
    obj_terms = model.objective_terms
    if obj_terms:
        lines.append(f" obj: {_format_terms(obj_terms)}")
    else:
        # LP format requires a non-empty objective row
        first = model.variables[0].name if model.variables else None
        lines.append(f" obj: 0 {first}" if first else " obj: 0 __zero__")

    lines.append("Subject To")
    used_names: dict[str, int] = {}
    for con in model.constraints:
        base = _sanitize_tag(con.tag)
        n = used_names.get(base, 0)
        used_names[base] = n + 1
        cname = base if n == 0 else f"{base}__{n}"
        lines.append(
            f" {cname}: {_format_terms(con.terms)} {con.sense} {_format_coef(con.rhs)}"
        )

    lines.append("Bounds")
    for v in model.variables:
        if v.kind == BINARY:
            continue
        lo = "-inf" if v.lower == -math.inf else _format_coef(v.lower)
        hi = "+inf" if v.upper == math.inf else _format_coef(v.upper)
        if v.lower == -math.inf and v.upper == math.inf:
            lines.append(f" {v.name} free")
        else:
            lines.append(f" {lo} <= {v.name} <= {hi}")

    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# -- solution import -------------------------------------------------------


def parse_solution(
    text: str, model: MilpModel, tol: float = FEASIBILITY_TOL
) -> Solution:
    """Parse the adapter solution format: status line, optional ``obj <v>``
    line, then one ``name value`` pair per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty solution text")
    status = lines[0].split(";")[0].strip().lower()
    if status not in STATUS_TOKENS:
        raise ValueError(f"unknown status token {lines[0]!r}")

    objective = 0.0
    values: dict[str, float] = {}
    body = lines[1:]
    if body and body[0].lower().startswith("obj"):
        objective = float(body[0].split()[1])
        body = body[1:]
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"unparseable solution line {ln!r}")
        name, raw = parts
        try:
            values[name] = float(raw)
        except ValueError as exc:
            raise ValueError(f"unparseable value in line {ln!r}") from exc

    if status in ("optimal", "feasible"):
        missing = set()
        for v in model.variables:
            if v.name not in values:
                values[v.name] = 0.0
                missing.add(v.name)
                continue
            val = values[v.name]
            if val < v.lower - tol or val > v.upper + tol:
                raise ValueError(
                    f"{v.name}={val} violates bounds [{v.lower}, {v.upper}]"
                )
        return Solution(
            status=status,
            objective_value=objective,
            values=values,
            missing=frozenset(missing),
        )
    return Solution(status=status, objective_value=objective, values={})


def check_solution(
    model: MilpModel, solution: Solution, tol: float = FEASIBILITY_TOL
) -> list[tuple[str, float]]:
    """Re-check every constraint by direct substitution.

    Returns (tag, violation amount) for each violated constraint; an empty
    list means the solution is feasible within ``tol``.
    """
    violations: list[tuple[str, float]] = []
    vals = solution.values
    for con in model.constraints:
        lhs = sum(coef * vals.get(name, 0.0) for name, coef in con.terms)
        if con.sense == "<=":
            gap = lhs - con.rhs
        elif con.sense == ">=":
            gap = con.rhs - lhs
        else:
            gap = abs(lhs - con.rhs)
        if gap > tol:
            violations.append((con.tag, gap))
    return violations


# -- solving ---------------------------------------------------------------


class SolverAdapter(Protocol):
    """Contract for backends: given a frozen model and the path of its LP
    export, return solution text in the adapter solution format."""

    def run(self, model: MilpModel, lp_path: Path, workdir: Path) -> str: ...


def solve(
    model: MilpModel,
    adapter: SolverAdapter,
    workdir: Optional[Path] = None,
) -> Solution:
    if not model.frozen:
        raise ModelFrozenError("freeze the model before solving")
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="sopwl_"))
    workdir.mkdir(parents=True, exist_ok=True)
    lp_path = workdir / f"{model.name}.lp"
    lp_path.write_text(write_lp(model))
    start = time.perf_counter()
    text = adapter.run(model, lp_path, workdir)
    elapsed = time.perf_counter() - start
    sol_path = workdir / f"{model.name}.sol"
    sol_path.write_text(text)
    sol = parse_solution(text, model)
    return Solution(
        status=sol.status,
        objective_value=sol.objective_value,
        values=sol.values,
        missing=sol.missing,
        solve_seconds=elapsed,
    )
