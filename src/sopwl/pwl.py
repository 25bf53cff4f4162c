"""Piecewise linearization of y**2 on [0, y_max] and the ordered-filling
(error-self-optimal) condition.

All operations here are pure and take nonnegative y; sign handling lives in
the MILP sign-split emitted by :mod:`sopwl.distflow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "PwlGrid",
    "FillingState",
    "EsoWitness",
    "segment_slope",
    "lambda_up",
    "eso_fill",
    "pwl_value",
    "relative_error",
    "is_eso",
    "eso_error",
    "min_pwl_oracle",
    "compensation_witness",
]

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


def relative_error(approx: float, y: float) -> float:
    """Relative approximation error |approx - y**2| / y**2 in percent.

    Undefined at y = 0; callers must treat zero-flow branches specially.
    """
    if y == 0:
        raise ValueError("relative error is undefined at y = 0")
    return abs(approx - y * y) / (y * y) * 100.0


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
