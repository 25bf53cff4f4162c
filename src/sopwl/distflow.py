"""Linearized DistFlow MILP builder for radial networks.

Per branch, each of the two flow components gets a linearized-square block
(segment variables, sign split, binaries); the two block expressions couple
into the squared-current variable. In ``sopwl`` mode the block additionally
carries the big-M/binary rows that force ordered segment filling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .milp import BINARY, CONTINUOUS, MilpModel
from .network import Branch, NetworkCase
from .pwl import PwlGrid, segment_slope

__all__ = [
    "BuildOptions",
    "PwlBlockHandle",
    "DistflowArtifacts",
    "flow_bound",
    "epsilon_plus",
    "emit_pwl_block",
    "build_distflow",
    "build_restoration_objective",
]

MODE_PWL = "pwl"
MODE_SOPWL = "sopwl"

OBJECTIVE_RESTORATION = "restoration"
OBJECTIVE_RESTORATION_LOSS = "restoration_with_loss_penalty"


@dataclass(frozen=True)
class BuildOptions:
    num_segments: int = 50
    mode: str = MODE_PWL
    v_norm: float = 1.0
    objective: str = OBJECTIVE_RESTORATION
    loss_weight: float = 1.0
    restorable_buses: Optional[frozenset[int]] = None  # None = all load buses

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise ValueError("num_segments must be >= 1")
        if self.mode not in (MODE_PWL, MODE_SOPWL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.objective not in (OBJECTIVE_RESTORATION, OBJECTIVE_RESTORATION_LOSS):
            raise ValueError(f"unknown objective {self.objective!r}")

def epsilon_plus(grid: PwlGrid) -> float:
    """The margin by which an active ``eq20`` row asks a segment to be full."""
    return 1e-6 * grid.seg_width


@dataclass(frozen=True)
class PwlBlockHandle:
    branch_key: str
    kind: str  # "P" or "Q"
    mode: str
    grid: PwlGrid
    delta_names: tuple[str, ...]
    pos_name: str
    neg_name: str
    z_pos_name: str
    z_neg_name: str
    x_names: tuple[str, ...]  # empty in plain mode

    @property
    def f_terms(self) -> tuple[tuple[str, float], ...]:
        """Linear expression approximating the squared flow."""
        return tuple(
            (name, segment_slope(self.grid, lam))
            for lam, name in enumerate(self.delta_names, start=1)
        )


@dataclass
class DistflowArtifacts:
    case: NetworkCase
    options: BuildOptions
    model: MilpModel
    blocks: dict[tuple[str, str], PwlBlockHandle]
    flow_vars: dict[tuple[str, str], str]  # (branch key, kind) -> var name
    isqr_vars: dict[str, str]
    voltage_vars: dict[int, str]
    pickup_vars: dict[int, str]  # load bus -> beta var
    gen_vars: dict[int, tuple[str, str]]  # bus -> (gp, gq)
    grids: dict[str, PwlGrid]


def flow_bound(branch: Branch, case: NetworkCase, options: BuildOptions) -> PwlGrid:
    """Per-branch flow bound: ampacity converted to per-unit, scaled by the
    nominal voltage."""
    i_base = case.i_base_amps
    if i_base <= 0:
        raise ValueError("zero or negative current base")
    i_max_pu = branch.i_max_amps / i_base
    return PwlGrid(y_max=options.v_norm * i_max_pu, num_segments=options.num_segments)


def _key_name(branch_key: str) -> str:
    return branch_key.replace("-", "_")


def emit_pwl_block(
    model: MilpModel,
    y_var: str,
    grid: PwlGrid,
    mode: str,
    branch_key: str = "y",
    kind: str = "y",
) -> PwlBlockHandle:
    """Declare segment/sign/binary variables and constraint rows for one
    linearized square, returning a handle to everything emitted."""
    if mode not in (MODE_PWL, MODE_SOPWL):
        raise ValueError(f"unknown mode {mode!r}")
    h = grid.seg_width
    y_max = grid.y_max
    prefix = f"{kind}_{_key_name(branch_key)}"
    tag_suffix = f"{branch_key}:{kind}"

    delta_names = tuple(
        model.add_variable(f"{prefix}_d{lam}", lower=0.0, upper=h)
        for lam in range(1, grid.num_segments + 1)
    )
    pos = model.add_variable(f"{prefix}_pos", lower=0.0, upper=y_max)
    neg = model.add_variable(f"{prefix}_neg", lower=0.0, upper=y_max)
    z_pos = model.add_variable(f"{prefix}_zpos", lower=0.0, upper=1.0, kind=BINARY)
    z_neg = model.add_variable(f"{prefix}_zneg", lower=0.0, upper=1.0, kind=BINARY)

    model.add_constraint(
        [(y_var, 1.0), (pos, -1.0), (neg, 1.0)], "=", 0.0, tag=f"eq6:{tag_suffix}"
    )
    model.add_constraint(
        [(pos, 1.0), (neg, 1.0)] + [(d, -1.0) for d in delta_names],
        "=",
        0.0,
        tag=f"eq7:{tag_suffix}",
    )
    model.add_constraint(
        [(pos, 1.0), (z_pos, -y_max)], "<=", 0.0, tag=f"eq10:{tag_suffix}"
    )
    model.add_constraint(
        [(neg, 1.0), (z_neg, -y_max)], "<=", 0.0, tag=f"eq11:{tag_suffix}"
    )
    model.add_constraint(
        [(z_pos, 1.0), (z_neg, 1.0)], "<=", 1.0, tag=f"eq12:{tag_suffix}"
    )

    x_names: tuple[str, ...] = ()
    if mode == MODE_SOPWL:
        # tightest valid M: with it the deactivated row is exactly vacuous
        m_const = h
        eps = epsilon_plus(grid)
        x_names = tuple(
            model.add_variable(f"{prefix}_x{lam}", lower=0.0, upper=1.0, kind=BINARY)
            for lam in range(1, grid.num_segments + 1)
        )
        for lam in range(1, grid.num_segments + 1):
            # delta_lam - h + (1 - x_lam) * M + eps >= 0
            model.add_constraint(
                [(delta_names[lam - 1], 1.0), (x_names[lam - 1], -m_const)],
                ">=",
                h - m_const - eps,
                tag=f"eq20:{tag_suffix}:l{lam}",
            )
        for lam in range(1, grid.num_segments):
            # 0 <= delta_{lam+1} <= x_lam * h (lower bound held by the variable)
            model.add_constraint(
                [(delta_names[lam], 1.0), (x_names[lam - 1], -h)],
                "<=",
                0.0,
                tag=f"eq21:{tag_suffix}:l{lam}",
            )

    return PwlBlockHandle(
        branch_key=branch_key,
        kind=kind,
        mode=mode,
        grid=grid,
        delta_names=delta_names,
        pos_name=pos,
        neg_name=neg,
        z_pos_name=z_pos,
        z_neg_name=z_neg,
        x_names=x_names,
    )


def build_distflow(
    model: MilpModel, case: NetworkCase, options: BuildOptions
) -> DistflowArtifacts:
    """Declare all network variables and constraint rows for the linearized
    DistFlow problem on ``case``."""
    v_norm = options.v_norm
    blocks: dict[tuple[str, str], PwlBlockHandle] = {}
    flow_vars: dict[tuple[str, str], str] = {}
    isqr_vars: dict[str, str] = {}
    voltage_vars: dict[int, str] = {}
    grids: dict[str, PwlGrid] = {}
    # per-bus balance terms, in the order the rows list them: each branch in
    # file order (arriving flow minus its loss, or leaving flow), then
    # generation, then load
    p_terms: dict[int, list[tuple[str, float]]] = {bus.id: [] for bus in case.buses}
    q_terms: dict[int, list[tuple[str, float]]] = {bus.id: [] for bus in case.buses}

    for bus in case.buses:
        voltage_vars[bus.id] = model.add_variable(
            f"V_{bus.id}", lower=bus.v_sqr_min, upper=bus.v_sqr_max
        )
    model.add_constraint(
        [(voltage_vars[case.root], 1.0)], "=", v_norm**2, tag=f"rootV:{case.root}"
    )

    for br in case.branches:
        key = br.key
        grid = flow_bound(br, case, options)
        grids[key] = grid
        y_max = grid.y_max
        i_max_pu = br.i_max_amps / case.i_base_amps
        name = _key_name(key)
        p_var = model.add_variable(f"P_{name}", lower=-y_max, upper=y_max)
        q_var = model.add_variable(f"Q_{name}", lower=-y_max, upper=y_max)
        isqr = model.add_variable(f"Isqr_{name}", lower=0.0, upper=i_max_pu**2)
        flow_vars[(key, "P")] = p_var
        flow_vars[(key, "Q")] = q_var
        isqr_vars[key] = isqr

        for kind, y_var in (("P", p_var), ("Q", q_var)):
            blocks[(key, kind)] = emit_pwl_block(
                model, y_var, grid, options.mode, branch_key=key, kind=kind
            )

        # squared-current coupling: v_norm^2 * Isqr = f(P) + f(Q)
        terms = [(isqr, v_norm**2)]
        terms += [(n, -c) for n, c in blocks[(key, "P")].f_terms]
        terms += [(n, -c) for n, c in blocks[(key, "Q")].f_terms]
        model.add_constraint(terms, "=", 0.0, tag=f"eq4:{key}")

        # voltage drop along the branch
        model.add_constraint(
            [
                (voltage_vars[br.to_bus], 1.0),
                (voltage_vars[br.from_bus], -1.0),
                (p_var, 2.0 * br.r_pu),
                (q_var, 2.0 * br.x_pu),
                (isqr, -(br.r_pu**2 + br.x_pu**2)),
            ],
            "=",
            0.0,
            tag=f"vdrop:{key}",
        )

        p_terms[br.from_bus].append((p_var, -1.0))
        q_terms[br.from_bus].append((q_var, -1.0))
        p_terms[br.to_bus] += [(p_var, 1.0), (isqr, -br.r_pu)]
        q_terms[br.to_bus] += [(q_var, 1.0), (isqr, -br.x_pu)]

    restorable = options.restorable_buses
    pickup_vars: dict[int, str] = {}
    for load in case.loads:
        upper = 1.0 if restorable is None or load.bus in restorable else 0.0
        pickup_vars[load.bus] = model.add_variable(
            f"beta_{load.bus}", lower=0.0, upper=upper
        )

    gen_vars: dict[int, tuple[str, str]] = {}
    for gen in case.generators:
        gp = model.add_variable(f"gp_{gen.bus}", lower=0.0, upper=gen.p_max_pu)
        gq = model.add_variable(f"gq_{gen.bus}", lower=0.0, upper=gen.q_max_pu)
        gen_vars[gen.bus] = (gp, gq)
        p_terms[gen.bus].append((gp, 1.0))
        q_terms[gen.bus].append((gq, 1.0))

    for load in case.loads:
        beta = pickup_vars[load.bus]
        p_terms[load.bus].append((beta, -load.p_pu))
        q_terms[load.bus].append((beta, -load.q_pu))

    for bus in case.buses:
        model.add_constraint(p_terms[bus.id], "=", 0.0, tag=f"balanceP:{bus.id}")
        model.add_constraint(q_terms[bus.id], "=", 0.0, tag=f"balanceQ:{bus.id}")

    return DistflowArtifacts(
        case=case,
        options=options,
        model=model,
        blocks=blocks,
        flow_vars=flow_vars,
        isqr_vars=isqr_vars,
        voltage_vars=voltage_vars,
        pickup_vars=pickup_vars,
        gen_vars=gen_vars,
        grids=grids,
    )


def build_restoration_objective(
    model: MilpModel, artifacts: DistflowArtifacts
) -> None:
    """Maximize restored active load, optionally penalizing branch losses."""
    case = artifacts.case
    options = artifacts.options
    terms: dict[str, float] = {}
    for load in case.loads:
        beta = artifacts.pickup_vars[load.bus]
        terms[beta] = terms.get(beta, 0.0) + load.p_pu
    if options.objective == OBJECTIVE_RESTORATION_LOSS:
        for br in case.branches:
            isqr = artifacts.isqr_vars[br.key]
            terms[isqr] = terms.get(isqr, 0.0) - options.loss_weight * br.r_pu
    model.set_objective("max", terms)
