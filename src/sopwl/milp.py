"""Solver-agnostic mixed-integer linear program container, textual LP export,
the solution text format (export and import), and a feasibility re-check by
direct substitution.

The model is stored in integer-indexed form. Variable ``i`` is the ``i``-th
declared; row ``r`` holds the terms ``cols[s:e]``/``coefs[s:e]`` with
``s, e = row_start[r], row_start[r + 1]``. It is built in bulk only, by
column: :meth:`MilpModel.add_variables`, :meth:`MilpModel.add_rows` and
:meth:`MilpModel.set_objective_columns`. Each call checks its whole input and
appends nothing when a check fails. The model keeps what each call appended
as numpy arrays; :meth:`MilpModel.freeze` concatenates them once
(:class:`ModelArrays`), and the solver adapter, the re-check and the LP writer
read those. :attr:`MilpModel.variables` and :attr:`MilpModel.constraints`, one
object per variable and per row, serve the benchmark's model sizes
(``perfbench/run.py``) and the tests.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .solvers import ScipyMilpAdapter

__all__ = [
    "Variable",
    "LinearConstraint",
    "MilpModel",
    "ModelArrays",
    "Solution",
    "write_lp",
    "lp_chunks",
    "lp_view_chunks",
    "format_solution",
    "parse_solution",
    "check_solution",
    "solve",
]

CONTINUOUS = "continuous"
BINARY = "binary"

SENSES = ("<=", "=", ">=")
STATUS_TOKENS = ("optimal", "feasible", "infeasible", "unbounded", "error")

_LP_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
# The same rule over names each led by a line break: the characters a name
# may hold, and a line break before a character a name may not start with or
# before an empty line.
_LP_NAME_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.\n"
_LP_BAD_START_RE = re.compile(r"\n[0-9.\n]")

# How far a value may lie outside a bound or row and still count as feasible:
# read by the two checks of a vector, ModelArrays.outside_bounds and
# ModelArrays.missed_rows, and by the ordered-filling tests of
# validation.lift_ordered and branch_errors' eso_ok flag (on top of the
# segment slack); lift_ordered and validation.check_unordered_feasibility
# count a segment holding more than this as used.
FEASIBILITY_TOL = 1e-6

# The default time limit of one solve, in seconds.
DEFAULT_TIMEOUT_SECONDS = 600.0


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
    """A model as numpy arrays, in declaration order."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    binary: np.ndarray  # bool per variable
    cols: np.ndarray  # column index per nonzero
    coefs: np.ndarray  # coefficient per nonzero
    row_start: np.ndarray  # rows + 1 offsets into cols/coefs
    senses: np.ndarray  # index into SENSES per row
    rhs: np.ndarray
    obj_cols: np.ndarray  # may repeat a column; repeats add up
    obj_coefs: np.ndarray

    # The row bounds and the term rows are built on first use, as only a
    # solve or a check needs them.

    @cached_property
    def row_lo(self) -> np.ndarray:
        """Each row's lower bound: its right-hand side, -inf for a "<=" row."""
        return np.where(self.senses == SENSES.index("<="), -np.inf, self.rhs)

    @cached_property
    def row_hi(self) -> np.ndarray:
        """Each row's upper bound: its right-hand side, +inf for a ">=" row."""
        return np.where(self.senses == SENSES.index(">="), np.inf, self.rhs)

    @cached_property
    def term_rows(self) -> np.ndarray:
        """The row of each term, in term order, for :meth:`missed_rows`."""
        return np.repeat(np.arange(len(self.rhs)), np.diff(self.row_start))

    def outside_bounds(self, x: np.ndarray) -> np.ndarray:
        """The columns whose value in ``x`` lies beyond a bound by more than
        ``FEASIBILITY_TOL``, in column order; a NaN lies beyond."""
        tol = FEASIBILITY_TOL
        return np.flatnonzero(~((x >= self.lower - tol) & (x <= self.upper + tol)))

    def missed_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows that ``x`` misses by more than ``FEASIBILITY_TOL``, in row
        order, and by how much; a row whose value is NaN is missed by NaN."""
        # each row's terms are added in the order they were given, starting
        # from 0.0, as a CSR product adds them, so every row value is that
        # product's bit for bit
        lhs = np.bincount(self.term_rows, self.coefs * x[self.cols], minlength=len(self.rhs))
        # the infinite bound of an inequality gives -inf; for an equality the
        # two differences are exact negatives, so this is |lhs - rhs|
        gap = np.maximum(self.row_lo - lhs, lhs - self.row_hi)
        rows = np.flatnonzero(~(gap <= FEASIBILITY_TOL))
        return rows, gap[rows]

    def sizes(self) -> dict[str, int]:
        return {
            "vars": len(self.names),
            "rows": len(self.rhs),
            "nnz": len(self.coefs),
            "binaries": int(self.binary.sum()),
        }


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


def _repeat(hashes: np.ndarray, items: Iterable[str]) -> Optional[str]:
    """The first of ``items`` that an earlier one repeats, or None, given
    ``hashes``, the hashes of all of ``items``, sorted. Only the items whose
    hash occurs twice are compared by value, so that only they are held in a
    set."""
    repeated = hashes[1:] == hashes[:-1]
    if not repeated.any():
        return None
    shared, seen = set(hashes[1:][repeated].tolist()), set()
    for item in items:
        if hash(item) in shared:
            if item in seen:
                return item
            seen.add(item)
    return None


class MilpModel:
    """Single-writer model; freeze() makes it immutable and shareable."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._names: list[str] = []
        # the hashes of the names declared, sorted, for the duplicate check;
        # dropped by freeze()
        self._hashes: Optional[np.ndarray] = np.empty(0, dtype=np.int64)
        # name -> column, built on the first lookup by name (_name_index)
        self._index: Optional[dict[str, int]] = None
        self._tags: list[str] = []
        # what each bulk call appended, starting from an empty part so that
        # concatenation always has an input: (lower, upper, binary) and
        # (cols, coefs, terms per row, sense index, rhs)
        self._var_parts: list[tuple[np.ndarray, ...]] = [
            (np.empty(0), np.empty(0), np.empty(0, dtype=bool))
        ]
        self._row_parts: list[tuple[np.ndarray, ...]] = [
            (
                np.empty(0, dtype=np.intp),
                np.empty(0),
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.int8),
                np.empty(0),
            )
        ]
        self.objective_sense: str = "min"
        self._obj_cols: list[int] = []
        self._obj_coefs: list[float] = []
        self._frozen = False
        self._gathered: Optional[ModelArrays] = None

    # -- construction ------------------------------------------------------

    def _require_unfrozen(self) -> None:
        if self._frozen:
            raise ModelFrozenError("model is frozen")

    def add_variables(
        self,
        names: Sequence[str],
        lower: float | np.ndarray = -math.inf,
        upper: float | np.ndarray = math.inf,
        binary: bool | np.ndarray = False,
    ) -> range:
        """Append one variable per name and return their indices.

        ``lower``, ``upper`` and ``binary`` are one value for every name or
        one per name. Rejects a name already declared or given twice, a lower
        bound above the upper one (or NaN) and binary bounds outside [0, 1];
        a rejected call appends nothing. The arrays are copied.

        Duplicates are found by hash: only the names whose hash occurs twice
        among those declared and given are compared by value, so that the
        model keeps one integer per name for the check, not a set of names.
        """
        self._require_unfrozen()
        names = list(names)
        k = len(names)
        lower = np.broadcast_to(np.array(lower, dtype=float), (k,))
        upper = np.broadcast_to(np.array(upper, dtype=float), (k,))
        binary = np.broadcast_to(np.array(binary, dtype=bool), (k,))
        first = len(self._names)
        new = np.fromiter(map(hash, names), np.int64, k)
        new.sort()
        # a stable sort merges the two sorted runs in one pass
        hashes = np.sort(np.concatenate((self._hashes, new)), kind="stable")
        # the names declared hold no repeat, so the first is among names
        repeat = _repeat(hashes, itertools.chain(self._names, names))
        if repeat is not None:
            raise ValueError(f"duplicate variable name {repeat!r}")
        disordered = ~(lower <= upper)
        if disordered.any():
            i = _first(disordered)
            raise ValueError(
                f"{names[i]}: lower bound {float(lower[i])} > upper {float(upper[i])}"
            )
        outside = binary & ((lower < 0) | (upper > 1))
        if outside.any():
            raise ValueError(f"{names[_first(outside)]}: binary bounds must lie within [0, 1]")
        self._hashes = hashes
        if self._index is not None:
            self._index.update(zip(names, range(first, first + k)))
        self._names.extend(names)
        self._var_parts.append((lower, upper, binary))
        self._gathered = None
        return range(first, first + k)

    def add_rows(
        self,
        cols: Sequence[int] | np.ndarray,
        coefs: Sequence[float] | np.ndarray,
        row_start: Sequence[int] | np.ndarray,
        senses: Sequence[str] | np.ndarray,
        rhs: Sequence[float] | np.ndarray,
        tags: Sequence[str],
    ) -> range:
        """Append rows and return their indices.

        Row ``r`` holds the terms ``cols[s:e]``/``coefs[s:e]`` with ``s, e =
        row_start[r], row_start[r + 1]``; ``row_start`` starts at 0 and ends
        at ``len(cols)``. ``senses``, ``rhs`` and ``tags`` hold one entry per
        row. Rejects an unknown sense, a column that is not a declared
        variable, a column given twice in one row, and a non-finite
        coefficient or right-hand side, naming the row's tag; a rejected call
        appends nothing. An array of ``cols``, ``coefs`` or ``rhs`` that is
        already of its dtype (``intp``, ``float``) is kept, not copied, so
        the caller must not change it afterwards.
        """
        self._require_unfrozen()
        cols = np.asarray(cols, dtype=np.intp)
        coefs = np.asarray(coefs, dtype=float)
        row_start = np.asarray(row_start, dtype=np.intp)
        senses = np.asarray(senses)
        rhs = np.asarray(rhs, dtype=float)
        tags = list(tags)
        n = len(tags)
        if (
            row_start.shape != (n + 1,)
            or row_start[0] != 0
            or row_start[-1] != len(cols)
            or coefs.shape != cols.shape
            or senses.shape != (n,)
            or rhs.shape != (n,)
        ):
            raise ValueError(
                f"rows: {len(cols)} columns, {len(coefs)} coefficients, "
                f"{len(row_start)} offsets, {len(senses)} senses, {len(rhs)} "
                f"right-hand sides and {n} tags do not describe one set of rows"
            )
        lengths = np.diff(row_start)
        if (lengths < 0).any():
            raise ValueError("rows: offsets must not decrease")
        codes = np.full(n, -1, dtype=np.int8)
        for code, sense in enumerate(SENSES):
            codes[senses == sense] = code
        if (codes < 0).any():
            i = _first(codes < 0)
            raise ValueError(f"{tags[i]}: unknown sense {senses[i].item()!r}")

        def tag_of(term: int) -> str:
            return tags[int(np.searchsorted(row_start, term, side="right")) - 1]

        num_vars = len(self._names)
        undeclared = (cols < 0) | (cols >= num_vars)
        if undeclared.any():
            k = _first(undeclared)
            raise ValueError(f"{tag_of(k)}: reference to undeclared variable column {cols[k]}")
        # (row, column) pairs as one key: a repeat sorts next to its twin
        keys = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys *= num_vars
        keys += cols
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            row, col = divmod(int(keys[_first(repeated)]), num_vars)
            raise ValueError(
                f"{tags[row]}: duplicate variable {self._names[col]!r} in constraint terms"
            )
        infinite = ~np.isfinite(coefs)
        if infinite.any():
            k = _first(infinite)
            raise ValueError(
                f"{tag_of(k)}: non-finite coefficient on {self._names[cols[k]]}"
            )
        infinite = ~np.isfinite(rhs)
        if infinite.any():
            raise ValueError(f"{tags[_first(infinite)]}: non-finite right-hand side")
        first = len(self._tags)
        self._row_parts.append((cols, coefs, lengths, codes, rhs))
        self._tags.extend(tags)
        self._gathered = None
        return range(first, first + n)

    def _name_index(self) -> dict[str, int]:
        """Each variable's column by name; built on the first lookup, as
        only a model addressed by name (a solution text, the tests) needs
        it."""
        if self._index is None:
            self._index = dict(zip(self._names, range(len(self._names))))
        return self._index

    def set_objective_columns(
        self, sense: str, cols: Sequence[int], coefs: Sequence[float]
    ) -> None:
        """Set the objective to ``sum(coefs[k] * x[cols[k]])``; a column
        given twice counts twice. Rejects a column that is not a declared
        variable, naming it; a rejected call leaves the objective as it
        was."""
        self._require_unfrozen()
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {sense!r}")
        cols = list(cols)
        for col in cols:
            if not 0 <= col < len(self._names):
                raise ValueError(f"objective: reference to undeclared variable column {col}")
        self._obj_cols = cols
        self._obj_coefs = list(coefs)
        self.objective_sense = sense
        self._gathered = None

    def _gather(self) -> ModelArrays:
        """The model so far as arrays; the parts are replaced by the
        concatenation, so each is copied once."""
        if self._gathered is None:
            parts = [np.concatenate(arrays) for arrays in zip(*self._var_parts)]
            self._var_parts = [tuple(parts)]
            lower, upper, binary = parts
            parts = [np.concatenate(arrays) for arrays in zip(*self._row_parts)]
            self._row_parts = [tuple(parts)]
            cols, coefs, lengths, senses, rhs = parts
            row_start = np.zeros(len(lengths) + 1, dtype=np.intp)
            np.cumsum(lengths, out=row_start[1:])
            self._gathered = ModelArrays(
                names=tuple(self._names),
                lower=lower,
                upper=upper,
                binary=binary,
                cols=cols,
                coefs=coefs,
                row_start=row_start,
                senses=senses,
                rhs=rhs,
                obj_cols=np.asarray(self._obj_cols, dtype=np.intp),
                obj_coefs=np.asarray(self._obj_coefs, dtype=float),
            )
        return self._gathered

    def freeze(self) -> "MilpModel":
        self._frozen = True
        self._hashes = None
        self._gather()
        return self

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def arrays(self) -> ModelArrays:
        if not self._frozen:
            raise ModelFrozenError("freeze the model before reading its arrays")
        return self._gather()

    # -- read-only views, for perfbench/run.py's model sizes and the tests --

    @property
    def variables(self) -> tuple[Variable, ...]:
        a = self._gather()
        kinds = [BINARY if b else CONTINUOUS for b in a.binary.tolist()]
        return tuple(
            map(Variable, a.names, a.lower.tolist(), a.upper.tolist(), kinds, range(len(kinds)))
        )

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        a = self._gather()
        names, cols, coefs = a.names, a.cols.tolist(), a.coefs.tolist()
        start, senses, rhs = a.row_start.tolist(), a.senses.tolist(), a.rhs.tolist()
        return tuple(
            LinearConstraint(
                tuple(zip([names[j] for j in cols[s:e]], coefs[s:e])), SENSES[sense], b, tag
            )
            for s, e, sense, b, tag in zip(start, start[1:], senses, rhs, self._tags)
        )


@dataclass(frozen=True, eq=False)
class Solution:
    status: str
    objective_value: float
    # one value per column of the model, in column order; empty unless the
    # status is "optimal" or "feasible"
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    missing: int = 0  # variables the solution text left out, read as 0
    solve_seconds: Optional[float] = None
    # branch-and-bound statistics, None when the solver does not report them;
    # the dual bound is in the model's objective sense
    mip_node_count: Optional[int] = None
    mip_gap: Optional[float] = None
    mip_dual_bound: Optional[float] = None

    def column_values(self, model: MilpModel) -> np.ndarray:
        """``x``, checked to hold one value per column of ``model``."""
        if len(self.x) != model.num_variables:
            raise ValueError(
                f"a {self.status} solution with {len(self.x)} values "
                f"for a model of {model.num_variables} variables"
            )
        return self.x


# -- LP export -------------------------------------------------------------

# Rows per piece of the ``Subject To`` section in lp_chunks, and variables
# per piece of its ``Bounds`` and ``Binary`` sections: a piece's text and
# per-term arrays are all of the LP that is held in memory at once.
LP_CHUNK_ROWS = 8192


def _format_coef(c: float) -> str:
    return repr(c) if c != int(c) else str(int(c))


def _coef_texts(coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two texts per distinct value of ``coefs``, each made once from the
    value's sign and magnitude: the signed coefficient that precedes a name
    after the first in an expression, with the space that parts it from the
    name before (`` - 2.5 ``), and the coefficient that precedes the first
    name (``- 2.5 ``); then the index of each coefficient's value. As in
    :func:`_texts`, ``-0.0`` and ``0.0`` both give ``0``, unsigned."""
    distinct, inverse = np.unique(coefs, return_inverse=True)
    values = distinct.tolist()
    magnitudes = [_format_coef(abs(c)) + " " for c in values]
    terms = [(" - " if c < 0 else " + ") + m for c, m in zip(values, magnitudes)]
    leads = [("- " if c < 0 else "") + m for c, m in zip(values, magnitudes)]
    return np.array(terms, dtype=object), np.array(leads, dtype=object), inverse


def _bound_text(c: float) -> str:
    return "-inf" if c == -math.inf else "+inf" if c == math.inf else _format_coef(c)


def _texts(values: np.ndarray, text: Callable[[float], str]) -> np.ndarray:
    """``text`` of every value as an object array, called once per distinct
    value with a Python float (``repr`` of a numpy float is not that of the
    float). Numbers that compare equal format alike (``-0.0`` and ``0.0``
    both give ``0``), so either may stand for both."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([text(c) for c in distinct.tolist()], dtype=object)[inverse]


def _expression(cols: np.ndarray, coefs: np.ndarray, name_of: np.ndarray) -> str:
    """``coef name`` terms joined by their signs."""
    terms, leads, value = _coef_texts(coefs)
    prefixes = terms[value]
    prefixes[0] = leads[value[0]]
    return "".join((prefixes + name_of[cols]).tolist())


# Which columns a view of the LP keeps: one flag per column, or None for all.
Keep = Optional[np.ndarray]


def _view_texts(pieces: np.ndarray, kept: list[Keep]) -> tuple[str, ...]:
    """The join of ``pieces`` for each view, in which ``kept`` flags the
    pieces the view keeps (None: all of them); the whole join is made once
    and serves every view that keeps all."""
    whole = None
    texts = []
    for mask in kept:
        if mask is None or mask.all():
            if whole is None:
                whole = "".join(pieces.tolist())
            texts.append(whole)
        else:
            texts.append("".join(pieces[mask].tolist()))
    return tuple(texts)


def _rows_text(
    a: ModelArrays, rows: slice, tags: list[str], name_of: np.ndarray, keeps: list[Keep]
) -> tuple[str, ...]:
    """The rows ``rows`` of the ``Subject To`` section, named by their
    ``tags``, each line led by ``"\\n"``: `` tag: <expression> <sense>
    <rhs>``, an expression without terms written ``0 __dummy__``; for each
    view, only the rows that hold no column it leaves out.

    The text is one join of pieces that are all looked up, none made per
    row: per row ``"\\n "``, the tag, ``": "`` with the lead coefficient,
    the first name, the signed coefficient and the name of each further
    term, then the sense with the right-hand side. Each distinct
    coefficient and each distinct (sense, right-hand side) is formatted
    once. A row without terms is laid out as one whose lead is ``": 0 "``
    and whose name is ``__dummy__``. A view joins the pieces of the rows it
    keeps."""
    start = a.row_start[rows.start : rows.stop + 1]
    terms = slice(start[0], start[-1])
    cols, coefs = a.cols[terms], a.coefs[terms]
    start = start - start[0]
    lengths = np.diff(start)
    used = lengths > 0
    # a row's pieces: "\n ", tag, lead, name, two per further term, tail
    width = 2 * np.maximum(lengths, 1) + 3
    end = np.cumsum(width)
    at = end - width
    pieces = np.empty(end[-1], dtype=object)
    pieces[at] = "\n "
    pieces[at + 1] = tags
    # each term's coefficient then its name, from the lead's place on
    coef_at = 2 * np.arange(len(cols)) + np.repeat(at + 2 - 2 * start[:-1], lengths)
    term_texts, leads, value = _coef_texts(coefs)
    pieces[coef_at] = term_texts[value]
    pieces[coef_at + 1] = name_of[cols]
    pieces[at[used] + 2] = (": " + leads)[value[start[:-1][used]]]
    empty = at[~used]
    pieces[empty + 2] = ": 0 "
    pieces[empty + 3] = "__dummy__"
    rhs, rhs_value = np.unique(a.rhs[rows], return_inverse=True)
    rhs_texts = [_format_coef(b) for b in rhs.tolist()]
    tails = [[sense + b for b in rhs_texts] for sense in (" <= ", " = ", " >= ")]
    pieces[end - 1] = np.array(tails, dtype=object)[a.senses[rows], rhs_value]
    kept = []
    for keep in keeps:
        if keep is not None:
            # the dropped columns among the terms up to each row's end
            dropped = np.concatenate(([0], np.cumsum(~keep[cols])))
            keep = np.repeat(dropped[start[1:]] == dropped[start[:-1]], width)
        kept.append(keep)
    return _view_texts(pieces, kept)


def _lower_text(c: float) -> str:
    """A bound line's text before the name."""
    return " " + _bound_text(c) + " <= "


def _upper_text(c: float) -> str:
    """A bound line's text after the name."""
    return " <= " + _bound_text(c) + "\n"


def _bounds_text(
    a: ModelArrays, chunk: slice, name_of: np.ndarray, keeps: list[Keep]
) -> tuple[str, ...]:
    """The ``Bounds`` lines of the continuous variables among ``chunk`` that
    each view keeps: one join of three pieces per line, the text before the
    name, the name and the text after it."""
    continuous = ~a.binary[chunk]
    lower, upper = a.lower[chunk][continuous], a.upper[chunk][continuous]
    pieces = np.empty((len(lower), 3), dtype=object)
    pieces[:, 0] = _texts(lower, _lower_text)
    pieces[:, 1] = name_of[chunk][continuous]
    pieces[:, 2] = _texts(upper, _upper_text)
    free = (lower == -math.inf) & (upper == math.inf)
    pieces[free, 0], pieces[free, 2] = " ", " free\n"
    kept = [None if keep is None else np.repeat(keep[chunk][continuous], 3) for keep in keeps]
    return _view_texts(pieces.ravel(), kept)


def _unsafe_name(names: Sequence[str], tags: Sequence[str]) -> Optional[str]:
    """The first of ``names`` then ``tags`` that ``_LP_NAME_RE`` does not
    match in full, or None.

    The items are checked ``LP_CHUNK_ROWS`` at a time, each block as one
    text with each item between two line breaks: it holds one line break
    more than there are items (so no item holds one), only ASCII, only the
    characters of a name, and no line starts with a digit or ``.`` or is
    empty. Only when that fails are the block's items matched one by one, so
    that the first bad one is named. (A ``fullmatch`` of a repeated group
    over the text would need far more memory.)"""
    items = itertools.chain(names, tags)
    while block := list(itertools.islice(items, LP_CHUNK_ROWS)):
        text = "\n".join(itertools.chain(("",), block, ("",)))
        if not (
            text.count("\n") == len(block) + 1
            and text.isascii()
            and not text.encode("ascii").translate(None, _LP_NAME_BYTES)
            and _LP_BAD_START_RE.search(text) is None
        ):
            bad = next(itertools.filterfalse(_LP_NAME_RE.fullmatch, block), None)
            if bad is not None:
                return bad
    return None


def lp_view_chunks(
    model: MilpModel, views: Sequence[tuple[str, Sequence[int] | np.ndarray]]
) -> Iterator[tuple[str, ...]]:
    """The LP text of several views of ``model`` in pieces, one piece per
    view at each step, for writing each view to its own file in one pass.

    A view ``(name, dropped)`` is the model without the columns ``dropped``
    and without every row that holds one of them, under the model name
    ``name``; its text is that of :func:`write_lp` of a model built so. The
    pieces are those of :func:`lp_chunks`: the header up to ``Subject To``,
    the rows ``LP_CHUNK_ROWS`` at a time, then ``Bounds`` and ``Binary`` in
    slices of as many variables, then ``End``; each is built once and each
    view joins the part it keeps.

    The model and the views are checked when this is called, before the
    first piece is asked for: the model must be frozen, no view's name may
    hold a line break, no view may drop a column of the objective, every
    variable name and row tag must be LP-format-safe, and no two rows may
    share a tag. A row's tag is its name in the LP text. The names and tags
    are checked on the whole model, which holds those of every view."""
    a = model.arrays
    keeps: list[Keep] = []
    for name, dropped in views:
        if "\n" in name or "\r" in name:
            raise ValueError(f"model name {name!r} holds a line break")
        dropped = np.asarray(dropped, dtype=np.intp)
        if not ((dropped >= 0) & (dropped < len(a.names))).all():
            raise ValueError(f"view {name!r} drops a column the model does not have")
        keep = None
        if dropped.size:
            keep = np.ones(len(a.names), dtype=bool)
            keep[dropped] = False
            held = np.flatnonzero(~keep[a.obj_cols])
            if held.size:
                objective_name = a.names[a.obj_cols[held[0]]]
                raise ValueError(
                    f"view {name!r} drops {objective_name!r}, which the objective holds"
                )
        keeps.append(keep)
    tags = model._tags
    bad = _unsafe_name(a.names, tags)
    if bad is not None:
        raise ValueError(f"name {bad!r} is not LP-format-safe")
    hashes = np.fromiter(map(hash, tags), np.int64, len(tags))
    hashes.sort()
    repeat = _repeat(hashes, tags)
    if repeat is not None:
        raise ValueError(f"row tag {repeat!r} is held by more than one row")
    return _lp_pieces(model, [name for name, _ in views], keeps)


def _lp_pieces(model: MilpModel, names: list[str], keeps: list[Keep]) -> Iterator[tuple[str, ...]]:
    a = model.arrays
    name_of = np.array(a.names, dtype=object)
    sense = "Maximize" if model.objective_sense == "max" else "Minimize"
    if len(a.obj_cols):
        objectives = [_expression(a.obj_cols, a.obj_coefs, name_of)] * len(keeps)
    else:
        # LP format requires a non-empty objective row
        kept = [name_of if keep is None else name_of[keep] for keep in keeps]
        objectives = [f"0 {view[0]}" if len(view) else "0 __zero__" for view in kept]
    yield tuple(
        f"\\ {name}\n{sense}\n obj: {objective}\nSubject To"
        for name, objective in zip(names, objectives)
    )
    tags = model._tags
    for lo in range(0, len(tags), LP_CHUNK_ROWS):
        rows = slice(lo, lo + LP_CHUNK_ROWS)
        yield _rows_text(a, rows, tags[rows], name_of, keeps)
    yield ("\nBounds\n",) * len(keeps)
    chunks = [slice(lo, lo + LP_CHUNK_ROWS) for lo in range(0, len(name_of), LP_CHUNK_ROWS)]
    for chunk in chunks:
        yield _bounds_text(a, chunk, name_of, keeps)
    binaries = [a.binary if keep is None else a.binary & keep for keep in keeps]
    held = [binary.any() for binary in binaries]
    if any(held):
        yield tuple("Binary\n" if h else "" for h in held)
        for chunk in chunks:
            yield tuple(
                "".join((" " + name_of[chunk][binary[chunk]] + "\n").tolist())
                for binary in binaries
            )
    yield ("End\n",) * len(keeps)


def lp_chunks(model: MilpModel) -> Iterator[str]:
    """The text of :func:`write_lp` in pieces, for writing to a file without
    holding the whole LP: :func:`lp_view_chunks` of the one view that is the
    whole model under its own name, checked the same way when this is
    called."""
    pieces = lp_view_chunks(model, [(model.name, ())])
    return (piece for (piece,) in pieces)


def write_lp(model: MilpModel) -> str:
    """Deterministic CPLEX-style LP text; ordering follows declaration order.
    The join of :func:`lp_chunks`."""
    return "".join(lp_chunks(model))


# -- solution text ---------------------------------------------------------


def format_solution(solution: Solution, model: MilpModel) -> str:
    """The solution text format, which ``solve`` writes and ``validate``
    reads; another solver run on the ``export-lp`` file writes it too::

        optimal|feasible|infeasible|unbounded|error
        obj <value>
        <name> <value>
        ...

    One line per column of ``model``, in column order, when the solution has
    values. Numbers are written with ``repr``, so :func:`parse_solution` reads
    back the same floats, ``-0.0`` included.
    """
    lines = [solution.status, f"obj {solution.objective_value!r}"]
    if len(solution.x):
        values = solution.column_values(model).tolist()
        lines.extend(f"{name} {val!r}" for name, val in zip(model.arrays.names, values))
    return "\n".join(lines) + "\n"


def parse_solution(text: str, model: MilpModel) -> Solution:
    """Parse the solution text format: status line, optional ``obj <v>``
    line (the token ``obj`` exactly), then one ``name value`` pair per line.

    Every name must be a variable of ``model`` and every number finite. A
    variable the text leaves out reads as 0, which must lie within its bounds
    like any other value.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise ValueError("empty solution text")
    status = lines[0].split(";")[0].strip().lower()
    if status not in STATUS_TOKENS:
        raise ValueError(f"unknown status token {lines[0]!r}")

    objective = 0.0
    body = lines[1:]
    parts = body[0].split() if body else []
    if parts and parts[0].lower() == "obj":
        try:
            (objective,) = map(float, parts[1:])
        except ValueError as exc:
            raise ValueError(f"unparseable objective line {body[0]!r}") from exc
        if not math.isfinite(objective):
            raise ValueError(f"non-finite value in line {body[0]!r}")
        body = body[1:]
    cols, values = _read_body(body, model)

    if status not in ("optimal", "feasible"):
        return Solution(status=status, objective_value=objective)
    arrays = model.arrays
    x = np.zeros(len(arrays.names))
    x[cols] = values
    bad = arrays.outside_bounds(x)
    if bad.size:
        i = int(bad[0])
        name = arrays.names[i]
        bounds = f"bounds [{float(arrays.lower[i])}, {float(arrays.upper[i])}]"
        if i not in cols:
            raise ValueError(f"{name} is missing; its default 0.0 violates {bounds}")
        raise ValueError(f"{name}={float(x[i])} violates {bounds}")
    return Solution(
        status=status,
        objective_value=objective,
        x=x,
        missing=len(x) - len(cols),
    )


def _read_body(body: list[str], model: MilpModel) -> tuple[np.ndarray, list[float]]:
    """The columns that the ``name value`` lines of ``body`` name, each once,
    and their values, read line by line; a repeated line overrides. The first
    bad line is named."""
    index = model._name_index()
    isfinite = math.isfinite
    given = {}
    for ln in body:
        try:
            name, raw = ln.split()
        except ValueError:
            raise ValueError(f"unparseable solution line {ln!r}") from None
        col = index.get(name)
        if col is None:
            raise ValueError(f"solution line {ln!r} names no variable of the model")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(f"unparseable value in line {ln!r}") from exc
        if not isfinite(value):
            raise ValueError(f"non-finite value in line {ln!r}")
        given[col] = value
    return np.fromiter(given, np.intp, len(given)), list(given.values())


def check_solution(model: MilpModel, solution: Solution) -> list[tuple[str, float]]:
    """Re-check every constraint by direct substitution.

    Returns (tag, violation amount) for each violated constraint; an empty
    list means the solution is feasible within ``FEASIBILITY_TOL``. The
    solution must hold one value per column; a NaN violates each row it
    appears in.
    """
    rows, gaps = model.arrays.missed_rows(solution.column_values(model))
    tags = model._tags
    return [(tags[r], g) for r, g in zip(rows.tolist(), gaps.tolist())]


# -- solving ---------------------------------------------------------------


def solve(model: MilpModel, adapter: ScipyMilpAdapter) -> Solution:
    """Run ``adapter`` on the frozen ``model``: the one MILP entry point,
    which ``perfbench/tracing.py`` and the tests wrap."""
    return adapter.run(model)
