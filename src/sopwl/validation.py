"""Post-solve analysis: filling-state extraction, per-branch approximation
errors, ordered-filling compliance, and an exact radial sweep cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .distflow import EPSILON_PLUS_WIDTHS, MODES, DistflowArtifacts, emit_pwl_block
from .milp import FEASIBILITY_TOL, MilpModel, Solution
from .network import NetworkCase
from .pwl import FillingState, relative_error

__all__ = [
    "BranchErrorRecord",
    "ErrorReport",
    "SweepResult",
    "SweepDivergence",
    "extract_filling",
    "lift_ordered",
    "branch_errors",
    "check_unordered_feasibility",
    "radial_sweep",
]

# Without an explicit floor, branch_errors counts a branch's flow as
# negligible below this many segment widths: from there on an ordered
# filling's relative error, at most (h^2 / 4) / y^2, is at most 2 %.
ZERO_FLOW_FLOOR_WIDTHS = math.sqrt(12.5)

# radial_sweep's convergence test (pu) and iteration limit
SWEEP_TOL = 1e-8
SWEEP_MAX_ITER = 50


def extract_filling(
    solution: Solution, artifacts: DistflowArtifacts
) -> dict[str, np.ndarray]:
    """Every block's segment values, clipped back into ``[0, h]`` where the
    solver left feasibility dust: ``"P"``/``"Q"`` -> a (branches x segments)
    array. The clip leaves a ``-0.0`` as it is, which ``np.clip`` against an
    array of widths does not, so ``filling_dump`` keeps writing it."""
    x = solution.column_values(artifacts.model)
    h = artifacts.seg_width
    fillings = {}
    for kind, block in artifacts.blocks.items():
        d = x[block.delta]
        d = np.where(d < 0.0, 0.0, d)
        fillings[kind] = np.where(d > h, h, d)
    return fillings


def _ordered(d: np.ndarray, h: np.ndarray, tol: float | np.ndarray) -> np.ndarray:
    """:func:`sopwl.pwl.is_eso` of every row of the fillings ``d`` (segment
    widths ``h`` and tolerances ``tol`` broadcast as columns): no segment
    short of full (``>= h - tol``) comes before a used one (not ``<= tol``)."""
    full = d >= h - tol
    used_from = np.logical_or.accumulate(~(d <= tol)[:, ::-1], axis=1)[:, ::-1]
    return ~(~full[:, :-1] & used_from[:, 1:]).any(axis=1)


def _pwl_values(d: np.ndarray, h: np.ndarray) -> np.ndarray:
    """:func:`sopwl.pwl.pwl_value` of every row of ``d``, summed segment by
    segment in the same order, so each value has the same bits."""
    slopes = np.arange(1, 2 * d.shape[1], 2) * h
    f = np.zeros(len(d))
    for lam in range(d.shape[1]):
        f += slopes[:, lam] * d[:, lam]
    return f


def lift_ordered(
    solution: Solution, artifacts: DistflowArtifacts
) -> Optional[Solution]:
    """Lift an optimal plain-PWL solution to the sopwl model of ``artifacts``,
    or return None when the solution is not optimal or a filling is not ordered.

    The sopwl model is the pwl model plus the ordering binaries and their
    ``eq20``/``eq21`` rows, under the same objective, and its columns are the
    pwl model's with the binaries' columns inserted. So a pwl optimum whose
    fillings are all ordered is a sopwl optimum within the same gap. Every
    value is copied into its column; in each block ``x_lam`` is 1 when
    segment ``lam + 1`` holds more than ``FEASIBILITY_TOL`` and 0 otherwise,
    as ``eq21`` reads it. A filling that passes :func:`sopwl.pwl.is_eso` at
    that tolerance meets ``eq20`` and ``eq21`` within the tolerance of
    :func:`check_solution`. Clipping into ``[0, h]`` changes no such verdict,
    so the check reads the clipped filling.

    ``solution`` may also be a point of the pwl model's LP relaxation with
    its sign binaries set; nothing here checks its other rows, so the caller
    runs :func:`check_solution` on the lifted point.
    """
    if solution.status != "optimal":
        return None
    tol = FEASIBILITY_TOL
    x = np.zeros(artifacts.model.num_variables)
    x[np.delete(np.arange(len(x)), artifacts.ordering)] = solution.x
    h = artifacts.seg_width
    for kind, d in extract_filling(replace(solution, x=x), artifacts).items():
        if not _ordered(d, h, tol).all():
            return None
        x[artifacts.blocks[kind].x] = d[:, 1:] > tol
    return replace(solution, x=x)


@dataclass(frozen=True)
class BranchErrorRecord:
    branch_key: str
    p: float
    q: float
    f_p: float
    f_q: float
    e_p: Optional[float]  # percent; None when the flow is negligible
    e_q: Optional[float]
    eso_ok_p: bool
    eso_ok_q: bool


@dataclass(frozen=True)
class ErrorReport:
    mode: str
    records: tuple[BranchErrorRecord, ...]

    def _reported(self) -> list[float]:
        """E_p of every branch whose active flow is not negligible."""
        return [r.e_p for r in self.records if r.e_p is not None]

    @property
    def max_e_p(self) -> float:
        vals = self._reported()
        return max(vals) if vals else 0.0

    @property
    def mean_e_p(self) -> float:
        vals = self._reported()
        return sum(vals) / len(vals) if vals else 0.0

    def to_delimited(self) -> str:
        lines = [",".join(["feeder", "mode", "E_p", "E_q", "eso_ok"])]
        for r in self.records:
            e_p = "negligible" if r.e_p is None else f"{r.e_p:.6f}"
            e_q = "negligible" if r.e_q is None else f"{r.e_q:.6f}"
            eso_ok = str(r.eso_ok_p and r.eso_ok_q).lower()
            lines.append(",".join([r.branch_key, self.mode, e_p, e_q, eso_ok]))
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = f"{'feeder':>8} {'mode':>6} {'E_p %':>12} {'E_q %':>12} {'eso_ok':>7}"
        lines = [header]
        for r in self.records:
            e_p = "negl." if r.e_p is None else f"{r.e_p:12.6f}"
            e_q = "negl." if r.e_q is None else f"{r.e_q:12.6f}"
            ok = "yes" if (r.eso_ok_p and r.eso_ok_q) else "NO"
            lines.append(f"{r.branch_key:>8} {self.mode:>6} {e_p:>12} {e_q:>12} {ok:>7}")
        lines.append(
            f"summary: max E_p = {self.max_e_p:.6f} %, mean E_p = {self.mean_e_p:.6f} % "
            f"over {len(self._reported())} reported feeders"
        )
        return "\n".join(lines) + "\n"


def branch_errors(
    solution: Solution,
    artifacts: DistflowArtifacts,
    zero_flow_floor: Optional[float] = None,
) -> ErrorReport:
    """Per-branch relative approximation errors of the solved flows, with
    ordered-filling flags. Flows whose magnitude is below the floor are
    flagged negligible and excluded from summaries. Without
    ``zero_flow_floor`` each branch's floor is its segment width times
    ``ZERO_FLOW_FLOOR_WIDTHS``. A filling is flagged ordered when
    :func:`sopwl.pwl.is_eso` passes it at the ``eq20`` margin,
    ``EPSILON_PLUS_WIDTHS`` segment widths, plus ``FEASIBILITY_TOL``."""
    fillings = extract_filling(solution, artifacts)
    h = artifacts.seg_width
    eso_tol = EPSILON_PLUS_WIDTHS * h + FEASIBILITY_TOL
    if zero_flow_floor is None:
        floors = (h[:, 0] * ZERO_FLOW_FLOOR_WIDTHS).tolist()
    else:
        floors = [zero_flow_floor] * len(h)
    per_kind = []
    for kind in ("P", "Q"):
        d = fillings[kind]
        y = np.abs(solution.x[artifacts.blocks[kind].y[:, 0]])
        per_kind.append(
            zip(y.tolist(), _pwl_values(d, h).tolist(), _ordered(d, h, eso_tol).tolist())
        )
    records = [
        BranchErrorRecord(
            branch_key=br.key,
            p=p,
            q=q,
            f_p=f_p,
            f_q=f_q,
            e_p=None if p < floor else relative_error(f_p, p),
            e_q=None if q < floor else relative_error(f_q, q),
            eso_ok_p=ok_p,
            eso_ok_q=ok_q,
        )
        for br, floor, (p, f_p, ok_p), (q, f_q, ok_q) in zip(
            artifacts.case.branches, floors, *per_kind
        )
    ]
    return ErrorReport(mode=artifacts.options.mode, records=tuple(records))


def filling_dump(solution: Solution, artifacts: DistflowArtifacts) -> str:
    """Segment-by-segment dump of every block's filling state."""
    fillings = extract_filling(solution, artifacts)
    n = artifacts.options.num_segments
    tails = [f" {lam} " for lam in range(1, n + 1)]
    lines = ["branch kind lambda delta"]
    rows = zip(fillings["P"].tolist(), fillings["Q"].tolist())
    for br, per_kind in zip(artifacts.case.branches, rows):
        for kind, deltas in zip(("P", "Q"), per_kind):
            head = f"{br.key} {kind}"
            lines += [f"{head}{tail}{d!r}" for tail, d in zip(tails, deltas)]
    return "\n".join(lines) + "\n"


def check_unordered_feasibility(state: FillingState) -> tuple[bool, bool]:
    """Substitute a candidate filling into a standalone linearized-square
    block in each mode and report (feasible in plain mode, feasible in
    ordered mode) by direct constraint evaluation. Rows and bounds hold
    within ``FEASIBILITY_TOL``, which also decides which segments count as
    used."""
    grid = state.grid
    total = state.total
    results = []
    for mode in MODES:
        model = MilpModel(name=f"witness_{mode}")
        (y,) = model.add_variables(["y"], -grid.y_max, grid.y_max)
        block = emit_pwl_block(model, y, grid, mode)
        model.freeze()
        # the sign split and its binaries stay 0 on the negative side
        x = np.zeros(model.num_variables)
        x[[y, block.pos[0, 0], block.z_pos[0, 0]]] = total, total, 1.0
        x[block.delta[0]] = state.deltas
        # the ordering binaries as lift_ordered sets them; plain mode has none
        used = np.asarray(state.deltas[1:]) > FEASIBILITY_TOL
        x[block.x[0]] = used[: block.x.shape[1]]
        a = model.arrays
        results.append(not a.outside_bounds(x).size and not a.missed_rows(x)[0].size)
    return results[0], results[1]


@dataclass(frozen=True)
class SweepResult:
    voltages: dict[int, float]  # bus -> |V| in pu
    branch_flows: dict[str, tuple[float, float]]  # sending-end (P, Q) pu
    iterations: int
    root_injection: tuple[float, float]  # slack power drawn from the root


class SweepDivergence(RuntimeError):
    def __init__(self, trace: list[float]):
        super().__init__(
            f"radial sweep did not converge in {len(trace)} iterations; "
            f"voltage-change trace: {trace}"
        )
        self.trace = trace


def radial_sweep(
    case: NetworkCase, injections: dict[int, tuple[float, float]]
) -> SweepResult:
    """Backward/forward sweep exact power flow on the radial case.

    ``injections`` maps bus id to net (P, Q) injection in pu (generation
    positive, load negative); the root is the slack bus at 1.0 pu, the root
    voltage of :func:`sopwl.distflow.build_distflow`. The sweep has converged
    when no bus voltage moves by ``SWEEP_TOL`` pu or more in an iteration,
    and raises :class:`SweepDivergence` when it has not after
    ``SWEEP_MAX_ITER`` iterations.

    Buses and branches are addressed by their positions in ``case.buses``
    and ``case.order``. The tests pin the results bit for bit, so the order
    of the arithmetic is fixed: drawn currents per bus in file order, branch
    currents summed children first, voltage drops applied parents first.
    """
    # bus i is case.buses[i] and branch k is case.order[k], which runs from
    # bus parent[k] to bus child[k]
    position = {bus.id: i for i, bus in enumerate(case.buses)}
    parent = [position[br.from_bus] for br in case.order]
    child = [position[br.to_bus] for br in case.order]
    forward = list(zip(parent, child, [complex(br.r_pu, br.x_pu) for br in case.order]))
    backward = list(zip(range(len(parent) - 1, -1, -1), parent[::-1], child[::-1]))
    s_drawn = [
        complex(-p, -q) for p, q in (injections.get(bus.id, (0.0, 0.0)) for bus in case.buses)
    ]
    voltage = [complex(1.0, 0.0)] * len(s_drawn)
    currents = [0.0j] * len(parent)
    trace: list[float] = []
    for _ in range(SWEEP_MAX_ITER):
        # backward: accumulate drawn currents toward the root
        subtree = [(s / v).conjugate() for s, v in zip(s_drawn, voltage)]
        for k, f, t in backward:
            currents[k] = subtree[t]
            subtree[f] += subtree[t]
        # forward: propagate voltage drops from the root, parents first
        delta = 0.0
        for (f, t, z), current in zip(forward, currents):
            v_new = voltage[f] - z * current
            delta = max(delta, abs(v_new - voltage[t]))
            voltage[t] = v_new
        trace.append(delta)
        if delta < SWEEP_TOL:
            break
    else:
        raise SweepDivergence(trace)

    flows = {}
    for br, f, current in zip(case.order, parent, currents):
        s = voltage[f] * current.conjugate()
        flows[br.key] = (s.real, s.imag)
    # the root is bus 0; its branches come first in case.order, in file order
    root_current = sum(current for f, current in zip(parent, currents) if f == 0)
    s_root = voltage[0] * root_current.conjugate()
    return SweepResult(
        voltages={bus.id: abs(v) for bus, v in zip(case.buses, voltage)},
        branch_flows=flows,
        iterations=len(trace),
        root_injection=(s_root.real, s_root.imag),
    )
