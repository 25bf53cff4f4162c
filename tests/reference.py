"""The tests' independent references.

The scalar PWL math, one value at a time: piecewise linearization of y**2 on
[0, y_max] and the ordered-filling (error-self-optimal) condition. The program
runs the vectorized twins in :mod:`sopwl.validation` (``_ordered`` is
:func:`is_eso` of every row, ``_pwl_values`` :func:`pwl_value` of every row),
which the tests compare against these. All operations here are pure and take
nonnegative y; sign handling lives in the MILP sign-split emitted by
:mod:`sopwl.distflow`.

Then two references on built models: :func:`check_unordered_feasibility`
(acceptance criterion 5) and :func:`exact_pwl`, the pwl optimum by branching
on flow signs, which does not rest on HiGHS's branch and bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from sopwl import solvers
from sopwl.distflow import MODES, BuildOptions, DistflowArtifacts, build_distflow
from sopwl.milp import DEFAULT_TIMEOUT_SECONDS, FEASIBILITY_TOL, MilpModel, Solution, check_solution
from sopwl.network import load_case
from sopwl.validation import signed

# Rounding room, relative to max(1, h) or max(1, y_max), of this module's own
# checks: FillingState's segment range, _check_domain's flow range and the
# ordered test of compensation_witness.
_INVARIANT_SLACK = 1e-9


@dataclass(frozen=True)
class PwlGrid:
    """Segment geometry for one linearized quadratic term."""

    y_max: float
    num_segments: int

    def __post_init__(self) -> None:
        if self.y_max < 0:
            raise ValueError(f"y_max must be nonnegative, got {self.y_max}")
        if self.num_segments < 1:
            raise ValueError(
                f"num_segments must be a positive integer, got {self.num_segments}"
            )

    @property
    def seg_width(self) -> float:
        return self.y_max / self.num_segments


@dataclass(frozen=True)
class FillingState:
    """A vector of segment values together with its grid."""

    grid: PwlGrid
    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if len(self.deltas) != self.grid.num_segments:
            raise ValueError(
                f"expected {self.grid.num_segments} segment values, got {len(self.deltas)}"
            )
        h = self.grid.seg_width
        slack = _INVARIANT_SLACK * max(1.0, h)
        for lam, d in enumerate(self.deltas, start=1):
            if d < -slack or d > h + slack:
                raise ValueError(
                    f"segment {lam} value {d} outside [0, {h}]"
                )
        if sum(self.deltas) > self.grid.y_max + slack * self.grid.num_segments:
            raise ValueError("segment values sum beyond y_max")

    @property
    def total(self) -> float:
        return sum(self.deltas)


@dataclass(frozen=True)
class EsoWitness:
    """Certificate that a filling is unordered: a deficient early segment
    whose remainder is compensated at a strictly later index."""

    deficient_index: int
    compensating_index: int
    remainder: float

    def __post_init__(self) -> None:
        if not (1 <= self.deficient_index < self.compensating_index):
            raise ValueError("witness indices must satisfy 1 <= j < k")
        if self.remainder <= 0:
            raise ValueError("witness remainder must be positive")


def segment_slope(grid: PwlGrid, lam: int) -> float:
    """Slope of segment ``lam``: (2*lam - 1) * seg_width."""
    if not 1 <= lam <= grid.num_segments:
        raise ValueError(
            f"segment index {lam} outside 1..{grid.num_segments}"
        )
    return (2 * lam - 1) * grid.seg_width


def _check_domain(grid: PwlGrid, y: float) -> None:
    if y < 0 or y > grid.y_max + _INVARIANT_SLACK * max(1.0, grid.y_max):
        raise ValueError(f"y={y} outside [0, {grid.y_max}]")


def lambda_up(grid: PwlGrid, y: float) -> int:
    """Index of the last segment an exact ordered filling of ``y`` uses."""
    _check_domain(grid, y)
    if y == 0:
        return 1
    lam = math.ceil(y / grid.seg_width)
    return min(max(lam, 1), grid.num_segments)


def eso_fill(grid: PwlGrid, y: float) -> FillingState:
    """The ordered (left-to-right) filling of total ``y``: every segment
    before lambda_up is full, lambda_up holds the remainder, the rest are 0."""
    _check_domain(grid, y)
    h = grid.seg_width
    up = lambda_up(grid, y)
    deltas = [h] * (up - 1) + [0.0] * (grid.num_segments - up + 1)
    deltas[up - 1] = min(max(y - (up - 1) * h, 0.0), h)
    return FillingState(grid=grid, deltas=tuple(deltas))


def pwl_value(state: FillingState) -> float:
    """Linearized approximation of y**2: sum of slope * segment value."""
    return sum(
        segment_slope(state.grid, lam) * d
        for lam, d in enumerate(state.deltas, start=1)
    )


def is_eso(state: FillingState, tol: float) -> bool:
    """True iff the filling is ordered: full segments, then at most one
    partial segment, then empty segments (each comparison within ``tol``)."""
    h = state.grid.seg_width
    deltas = state.deltas
    n = len(deltas)
    # m = index (1-based) of the last segment allowed to be partial
    m = n
    while m > 1 and deltas[m - 1] <= tol:
        m -= 1
    return all(deltas[lam - 1] >= h - tol for lam in range(1, m))


def eso_error(grid: PwlGrid, y: float) -> float:
    """Closed-form absolute over-approximation error of the ordered filling:
    (lambda_up*h - y) * (y - (lambda_up - 1)*h)."""
    if y <= 0:
        raise ValueError(f"y={y} outside (0, y_max]")
    _check_domain(grid, y)
    h = grid.seg_width
    up = lambda_up(grid, y)
    return max((up * h - y) * (y - (up - 1) * h), 0.0)


def min_pwl_oracle(grid: PwlGrid, y: float, steps_per_segment: int) -> float:
    """Brute-force minimum of the linearized value over all discretized
    fillings whose total matches ``y`` within one discretization step.

    Independent of the ordered-filling construction: enumerates, via exact
    dynamic programming over step counts, every filling on the uniform grid
    {0, h/s, ..., h} per segment.
    """
    if grid.num_segments > 6:
        raise ValueError("oracle limited to num_segments <= 6")
    if steps_per_segment < 2:
        raise ValueError("steps_per_segment must be >= 2")
    _check_domain(grid, y)
    n = grid.num_segments
    s = steps_per_segment
    h = grid.seg_width
    step = h / s
    slopes = [segment_slope(grid, lam) for lam in range(1, n + 1)]

    # best[t] = min cost using segments seen so far with total t steps
    inf = math.inf
    best = [inf] * (n * s + 1)
    best[0] = 0.0
    for slope in slopes:
        nxt = [inf] * (n * s + 1)
        for t, cost in enumerate(best):
            if cost is inf:
                continue
            for k in range(s + 1):
                cand = cost + slope * k * step
                if cand < nxt[t + k]:
                    nxt[t + k] = cand
        best = nxt

    # match the requested total to the nearest discretized totals (within
    # half a step either side, i.e. one step of total slack overall)
    target = y / step
    lo = max(0, math.ceil(target - 0.5 - 1e-12))
    hi = min(n * s, math.floor(target + 0.5 + 1e-12))
    feasible = [best[t] for t in range(lo, hi + 1) if best[t] is not inf]
    if not feasible:
        raise ValueError("no discretized filling matches the requested total")
    return min(feasible)


def compensation_witness(state: FillingState) -> Optional[EsoWitness]:
    """If the filling is unordered, return a (j, k, remainder) certificate:
    segment j is under-filled while segment k > j exceeds the ordered filling
    of the same total. Returns None for ordered fillings."""
    h = state.grid.seg_width
    slack = _INVARIANT_SLACK * max(1.0, h)
    if is_eso(state, slack):
        return None
    reference = eso_fill(state.grid, min(state.total, state.grid.y_max))
    deltas = state.deltas
    n = len(deltas)
    for j in range(1, n + 1):
        deficit = h - deltas[j - 1]
        if deficit <= slack:
            continue
        for k in range(n, j, -1):
            excess = deltas[k - 1] - reference.deltas[k - 1]
            if excess > slack:
                return EsoWitness(
                    deficient_index=j,
                    compensating_index=k,
                    remainder=min(deficit, excess),
                )
    return None


TWOBUS = Path(__file__).parent / "cases" / "twobus.json"


def check_unordered_feasibility(state: FillingState) -> tuple[bool, bool]:
    """Substitute a candidate filling into the P block of ``twobus``, built
    at the filling's segment count in each mode, and report (feasible in
    plain mode, feasible in ordered mode) by direct evaluation of the
    block's bounds and rows.

    The filling is scaled to the build's segment width. The flow, its
    positive side and the segments take the filling, the sign binaries are
    set by :func:`sopwl.validation.signed`, and the ordering binaries as
    ``lift_ordered`` sets them: a segment holding more than
    ``FEASIBILITY_TOL`` counts as used. A row of the block holds only the
    block's columns and one besides the flow, which leaves out the root's
    balance row: it holds the flow alone."""
    case = load_case(TWOBUS)
    results = []
    for mode in MODES:
        model = MilpModel(name=f"witness_{mode}")
        artifacts = build_distflow(
            model, case, BuildOptions(num_segments=state.grid.num_segments, mode=mode)
        )
        model.freeze()
        block = artifacts.blocks["P"]
        deltas = np.asarray(state.deltas) * (artifacts.seg_width[0, 0] / state.grid.seg_width)
        x = np.zeros(model.num_variables)
        x[[block.y[0, 0], block.pos[0, 0]]] = deltas.sum()
        x[block.delta[0]] = deltas
        x[block.x[0]] = (deltas[1:] > FEASIBILITY_TOL)[: block.x.shape[1]]
        x = signed(Solution("optimal", 0.0, x), [block]).x
        a = model.arrays
        cols = {int(j) for f in fields(block) for j in getattr(block, f.name)[0]}
        starts = a.row_start.tolist()
        terms = [set(a.cols[i:j].tolist()) for i, j in zip(starts, starts[1:])]
        rows = {r for r, t in enumerate(terms) if t <= cols and t - {block.y[0, 0]}}
        outside = set(a.outside_bounds(x).tolist()) & cols
        missed = set(a.missed_rows(x)[0].tolist()) & rows
        results.append(not outside and not missed)
    return results[0], results[1]


def exact_pwl(artifacts: DistflowArtifacts) -> Solution:
    """The optimum of the pwl model of ``artifacts``, without HiGHS's branch
    and bound: the model's only binaries are its sign binaries, so with
    every flow's sign fixed it is an LP.

    Depth first, each node solves the LP relaxation on a fresh session with
    some ``pos``/``neg`` upper bounds set to 0. A node whose LP is no better
    than the incumbent is pruned. A node whose point, signed by
    :func:`sopwl.validation.signed`, passes ``check_solution`` is a leaf.
    Any other node branches on the block with the largest ``min(pos, neg)``:
    one child drops its ``pos``, the other its ``neg``. Exact to HiGHS's LP
    tolerance; "infeasible" when no node's LP has a point."""
    model = artifacts.model
    a = model.arrays
    c = solvers._costs(model)
    blocks = list(artifacts.blocks.values())
    pos = np.concatenate([block.pos[:, 0] for block in blocks])
    neg = np.concatenate([block.neg[:, 0] for block in blocks])
    best, best_cost = Solution("infeasible", 0.0), math.inf
    nodes = [a.upper]
    while nodes:
        upper = nodes.pop()
        lp = solvers._HighsSession(a, c, a.lower, upper, DEFAULT_TIMEOUT_SECONDS)
        if lp.run() != "optimal" or lp.objective() >= best_cost:
            continue
        x = solvers._clip(lp.x(), a)
        point = signed(Solution("optimal", solvers._objective(x, a), x), blocks)
        if not check_solution(model, point):
            best, best_cost = point, lp.objective()
            continue
        mixed = np.minimum(x[pos], x[neg])
        i = int(np.argmax(mixed))
        if not mixed[i] > 0.0:
            raise RuntimeError(f"{model.name}: a signed point using one sign per flow breaks a row")
        for side in (pos, neg):
            child = upper.copy()
            child[side[i]] = 0.0
            nodes.append(child)
    return best
