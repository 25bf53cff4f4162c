"""Solver-agnostic mixed-integer linear program container, textual LP export,
the solution text format (export and import), and a feasibility re-check by
direct substitution.

The model is stored in integer-indexed form. Variable ``i`` is the ``i``-th
declared; row ``r`` holds the terms ``cols[s:e]``/``coefs[s:e]`` with
``s, e = row_start[r], row_start[r + 1]``. :meth:`MilpModel.freeze` turns
these flat lists into numpy arrays once (:class:`ModelArrays`), which the
solver adapter and the re-check use as a sparse matrix.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Variable",
    "LinearConstraint",
    "MilpModel",
    "ModelArrays",
    "Solution",
    "SolverAdapter",
    "write_lp",
    "format_solution",
    "parse_solution",
    "check_solution",
    "solve",
]

CONTINUOUS = "continuous"
BINARY = "binary"

SENSES = ("<=", "=", ">=")
STATUS_TOKENS = ("optimal", "feasible", "infeasible", "unbounded", "error")

_LP_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")
_TAG_UNSAFE_RE = re.compile(r"[^A-Za-z0-9_.]")

FEASIBILITY_TOL = 1e-6

Terms = Mapping[str, float] | Sequence[tuple[str, float]]


@dataclass(frozen=True)
class Variable:
    """Read-only view of one declared variable."""

    name: str
    lower: float
    upper: float
    kind: str
    index: int


@dataclass(frozen=True)
class LinearConstraint:
    """Read-only view of one row."""

    terms: tuple[tuple[str, float], ...]
    sense: str  # "<=", "=", ">="
    rhs: float
    tag: str


class ModelFrozenError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelArrays:
    """A frozen model as numpy arrays, in declaration order."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    binary: np.ndarray  # bool per variable
    cols: np.ndarray  # column index per nonzero
    coefs: np.ndarray  # coefficient per nonzero
    row_start: np.ndarray  # rows + 1 offsets into cols/coefs
    row_lo: np.ndarray  # -inf for a "<=" row
    row_hi: np.ndarray  # +inf for a ">=" row
    obj_cols: np.ndarray  # may repeat a column; repeats add up
    obj_coefs: np.ndarray

    def matrix(self) -> sp.csr_matrix:
        """The rows as a CSR matrix, terms in the order they were given."""
        return sp.csr_matrix(
            (self.coefs, self.cols, self.row_start),
            shape=(len(self.row_lo), len(self.names)),
        )

    def sizes(self) -> dict[str, int]:
        return {
            "vars": len(self.names),
            "rows": len(self.row_lo),
            "nnz": len(self.coefs),
            "binaries": int(self.binary.sum()),
        }


def _unzip(terms: Terms) -> tuple[tuple, tuple]:
    """Names and coefficients of a term mapping or a sequence of pairs."""
    if type(terms) is dict or isinstance(terms, Mapping):
        return tuple(terms), tuple(terms.values())
    return tuple(zip(*terms)) or ((), ())


class MilpModel:
    """Single-writer model; freeze() makes it immutable and shareable."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._binary: list[bool] = []
        self._cols: list[int] = []
        self._coefs: list[float] = []
        self._row_start: list[int] = [0]
        self._senses: list[str] = []
        self._rhs: list[float] = []
        self._tags: list[str] = []
        self.objective_sense: str = "min"
        self.objective_terms: tuple[tuple[str, float], ...] = ()
        self._obj_cols: list[int] = []
        self._arrays: Optional[ModelArrays] = None

    # -- construction ------------------------------------------------------

    def _require_unfrozen(self) -> None:
        if self._arrays is not None:
            raise ModelFrozenError("model is frozen")

    def add_variable(
        self,
        name: str,
        lower: float = -math.inf,
        upper: float = math.inf,
        kind: str = CONTINUOUS,
    ) -> str:
        self._require_unfrozen()
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind {kind!r}")
        if lower > upper:
            raise ValueError(f"{name}: lower bound {lower} > upper {upper}")
        binary = kind == BINARY
        if binary and not (0 <= lower and upper <= 1):
            raise ValueError(f"{name}: binary bounds must lie within [0, 1]")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._lower.append(lower)
        self._upper.append(upper)
        self._binary.append(binary)
        return name

    def _columns(self, names: tuple[str, ...], where: str) -> list[int]:
        try:
            return list(map(self._index.__getitem__, names))
        except KeyError as exc:
            raise ValueError(
                f"{where}: reference to undeclared variable {exc.args[0]!r}"
            ) from None

    def add_constraint(self, terms: Terms, sense: str, rhs: float, tag: str) -> int:
        """Append a row and return its index."""
        self._require_unfrozen()
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        names, coefs = _unzip(terms)
        if len(set(names)) != len(names):
            raise ValueError(f"{tag}: duplicate variable in constraint terms")
        if not all(map(math.isfinite, coefs)):
            bad = next(n for n, c in zip(names, coefs) if not math.isfinite(c))
            raise ValueError(f"{tag}: non-finite coefficient on {bad}")
        if not math.isfinite(rhs):
            raise ValueError(f"{tag}: non-finite right-hand side")
        self._cols.extend(self._columns(names, tag))
        self._coefs.extend(coefs)
        self._row_start.append(len(self._cols))
        self._senses.append(sense)
        self._rhs.append(rhs)
        self._tags.append(tag)
        return len(self._tags) - 1

    def set_objective(self, sense: str, terms: Terms) -> None:
        self._require_unfrozen()
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {sense!r}")
        names, coefs = _unzip(terms)
        self._obj_cols = self._columns(names, "objective")
        self.objective_sense = sense
        self.objective_terms = tuple(zip(names, coefs))

    def freeze(self) -> "MilpModel":
        if self._arrays is None:
            senses = np.asarray(self._senses, dtype="<U2")
            rhs = np.asarray(self._rhs, dtype=float)
            self._arrays = ModelArrays(
                names=tuple(self._names),
                lower=np.asarray(self._lower, dtype=float),
                upper=np.asarray(self._upper, dtype=float),
                binary=np.asarray(self._binary, dtype=bool),
                cols=np.asarray(self._cols, dtype=np.intp),
                coefs=np.asarray(self._coefs, dtype=float),
                row_start=np.asarray(self._row_start, dtype=np.intp),
                row_lo=np.where(senses == "<=", -np.inf, rhs),
                row_hi=np.where(senses == ">=", np.inf, rhs),
                obj_cols=np.asarray(self._obj_cols, dtype=np.intp),
                obj_coefs=np.asarray([c for _, c in self.objective_terms], dtype=float),
            )
        return self

    @property
    def frozen(self) -> bool:
        return self._arrays is not None

    @property
    def arrays(self) -> ModelArrays:
        if self._arrays is None:
            raise ModelFrozenError("freeze the model before reading its arrays")
        return self._arrays

    # -- read-only views, for tests and small models -----------------------

    def _variable(self, i: int) -> Variable:
        kind = BINARY if self._binary[i] else CONTINUOUS
        return Variable(self._names[i], self._lower[i], self._upper[i], kind, i)

    def _row(self, r: int) -> LinearConstraint:
        s, e = self._row_start[r], self._row_start[r + 1]
        names = self._names
        terms = tuple(
            (names[j], c) for j, c in zip(self._cols[s:e], self._coefs[s:e])
        )
        return LinearConstraint(terms, self._senses[r], self._rhs[r], self._tags[r])

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(map(self._variable, range(len(self._names))))

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        return tuple(map(self._row, range(len(self._tags))))

    def variable(self, name: str) -> Variable:
        return self._variable(self._index[name])

    def constraints_by_tag(self, prefix: str) -> list[LinearConstraint]:
        return [self._row(r) for r, t in enumerate(self._tags) if t.startswith(prefix)]


@dataclass(frozen=True)
class Solution:
    status: str
    objective_value: float
    values: dict[str, float]
    missing: frozenset[str] = frozenset()
    solve_seconds: Optional[float] = None
    # branch-and-bound statistics, None when the solver does not report them;
    # the dual bound is in the model's objective sense
    mip_node_count: Optional[int] = None
    mip_gap: Optional[float] = None
    mip_dual_bound: Optional[float] = None

    def __getitem__(self, name: str) -> float:
        return self.values[name]


# -- LP export -------------------------------------------------------------


def _row_bases(tags: list[str]) -> list[str]:
    """LP row names before de-duplication: each tag with every character
    outside ``[A-Za-z0-9_.]`` replaced by ``_``, and ``c_`` in front of one
    that would not start with a letter or ``_``."""
    bases = [_TAG_UNSAFE_RE.sub("_", tag) for tag in tags]
    return [b if b and b[0] not in "0123456789." else "c_" + b for b in bases]


def _format_coef(c: float) -> str:
    return repr(c) if c != int(c) else str(int(c))


def _term_prefix(c: float) -> str:
    """The signed coefficient that precedes a name in an expression."""
    return ("- " if c < 0 else "+ ") + _format_coef(abs(c)) + " "


class _Memo(dict):
    """Memo of a number formatter for one export. Numbers that compare equal
    format alike (``-0.0`` and ``0.0`` both give ``0``), so a value is a safe
    key."""

    def __init__(self, text: Callable[[float], str]):
        self.text = text

    def __missing__(self, c: float) -> str:
        text = self[c] = self.text(c)
        return text


def write_lp(model: MilpModel) -> str:
    """Deterministic CPLEX-style LP text; ordering follows declaration order."""
    if not model.frozen:
        raise ModelFrozenError("freeze the model before exporting")
    names = model._names
    if not all(map(_LP_NAME_RE.match, names)):
        bad = next(n for n in names if not _LP_NAME_RE.match(n))
        raise ValueError(f"name {bad!r} is not LP-format-safe")
    prefix = _Memo(_term_prefix)
    number = _Memo(_format_coef)
    # every nonzero as "+ coef name"; a row joins its slice and drops a
    # leading "+ "
    terms = [prefix[c] + names[j] for j, c in zip(model._cols, model._coefs)]
    obj_terms = [
        prefix[c] + names[j] for j, (_, c) in zip(model._obj_cols, model.objective_terms)
    ]

    def expression(parts: list[str]) -> str:
        if not parts:
            return "0 __dummy__"
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else text

    lines: list[str] = [f"\\ {model.name}"]
    lines.append("Maximize" if model.objective_sense == "max" else "Minimize")
    if obj_terms:
        lines.append(f" obj: {expression(obj_terms)}")
    else:
        # LP format requires a non-empty objective row
        lines.append(f" obj: 0 {names[0]}" if names else " obj: 0 __zero__")

    lines.append("Subject To")
    start = model._row_start
    used_names: dict[str, int] = {}
    for s, e, sense, rhs, base in zip(
        start, start[1:], model._senses, model._rhs, _row_bases(model._tags)
    ):
        n = used_names.get(base, 0)
        used_names[base] = n + 1
        cname = base if n == 0 else f"{base}__{n}"
        lines.append(f" {cname}: {expression(terms[s:e])} {sense} {number[rhs]}")
    del terms

    lines.append("Bounds")
    for name, lo, hi, binary in zip(names, model._lower, model._upper, model._binary):
        if binary:
            continue
        if lo == -math.inf and hi == math.inf:
            lines.append(f" {name} free")
        else:
            lo_text = "-inf" if lo == -math.inf else number[lo]
            hi_text = "+inf" if hi == math.inf else number[hi]
            lines.append(f" {lo_text} <= {name} <= {hi_text}")

    binaries = [name for name, binary in zip(names, model._binary) if binary]
    if binaries:
        lines.append("Binary")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    # the empty last line ends the text with "\n" without copying it again
    lines.append("")
    return "\n".join(lines)


# -- solution text ---------------------------------------------------------


def format_solution(solution: Solution) -> str:
    """The solution text format, which ``validate`` reads and an external
    solver command writes::

        optimal|feasible|infeasible|unbounded|error
        obj <value>
        <name> <value>
        ...

    Numbers are written with ``repr``, so :func:`parse_solution` reads back
    the same floats, ``-0.0`` included.
    """
    lines = [solution.status, f"obj {solution.objective_value!r}"]
    lines.extend(f"{name} {val!r}" for name, val in solution.values.items())
    return "\n".join(lines) + "\n"


def parse_solution(
    text: str, model: MilpModel, tol: float = FEASIBILITY_TOL
) -> Solution:
    """Parse the solution text format: status line, optional ``obj <v>``
    line (the token ``obj`` exactly), then one ``name value`` pair per line.

    Every name must be a variable of ``model``. A variable the text leaves
    out reads as 0, which must lie within its bounds like any other value.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty solution text")
    status = lines[0].split(";")[0].strip().lower()
    if status not in STATUS_TOKENS:
        raise ValueError(f"unknown status token {lines[0]!r}")

    objective = 0.0
    values: dict[str, float] = {}
    body = lines[1:]
    parts = body[0].split() if body else []
    if parts and parts[0].lower() == "obj":
        try:
            (objective,) = map(float, parts[1:])
        except ValueError as exc:
            raise ValueError(f"unparseable objective line {body[0]!r}") from exc
        body = body[1:]
    index = model._index
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"unparseable solution line {ln!r}")
        name, raw = parts
        if name not in index:
            raise ValueError(f"solution line {ln!r} names no variable of the model")
        try:
            values[name] = float(raw)
        except ValueError as exc:
            raise ValueError(f"unparseable value in line {ln!r}") from exc

    if status not in ("optimal", "feasible"):
        return Solution(status=status, objective_value=objective, values={})
    arrays = model.arrays
    missing = [name for name in arrays.names if name not in values]
    for name in missing:
        values[name] = 0.0
    x = np.array([values[name] for name in arrays.names], dtype=float)
    bad = np.flatnonzero((x < arrays.lower - tol) | (x > arrays.upper + tol))
    if bad.size:
        i = int(bad[0])
        name = arrays.names[i]
        bounds = f"bounds [{model._lower[i]}, {model._upper[i]}]"
        if name in missing:
            raise ValueError(f"{name} is missing; its default 0.0 violates {bounds}")
        raise ValueError(f"{name}={values[name]} violates {bounds}")
    return Solution(
        status=status,
        objective_value=objective,
        values=values,
        missing=frozenset(missing),
    )


def check_solution(
    model: MilpModel, solution: Solution, tol: float = FEASIBILITY_TOL
) -> list[tuple[str, float]]:
    """Re-check every constraint by direct substitution.

    Returns (tag, violation amount) for each violated constraint; an empty
    list means the solution is feasible within ``tol``. A variable the
    solution lacks counts as 0.
    """
    arrays = model.arrays
    vals = solution.values
    x = np.array([vals.get(name, 0.0) for name in arrays.names], dtype=float)
    lhs = arrays.matrix() @ x
    # the infinite bound of an inequality gives -inf; for an equality the
    # two differences are exact negatives, so this is |lhs - rhs|
    gap = np.maximum(arrays.row_lo - lhs, lhs - arrays.row_hi)
    tags = model._tags
    return [(tags[r], float(gap[r])) for r in np.flatnonzero(gap > tol)]


# -- solving ---------------------------------------------------------------


class SolverAdapter(Protocol):
    """Contract for backends: solve a frozen model and return its
    :class:`Solution`. ``workdir`` is where an adapter that works with files
    keeps them; when it is None, the adapter chooses."""

    def run(self, model: MilpModel, workdir: Optional[Path]) -> Solution: ...


def solve(
    model: MilpModel,
    adapter: SolverAdapter,
    workdir: Optional[Path] = None,
) -> Solution:
    """Run ``adapter`` on the frozen ``model`` and time it."""
    if not model.frozen:
        raise ModelFrozenError("freeze the model before solving")
    start = time.perf_counter()
    solution = adapter.run(model, workdir)
    elapsed = time.perf_counter() - start
    return replace(solution, solve_seconds=elapsed)
