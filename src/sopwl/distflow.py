"""Linearized DistFlow MILP builder for radial networks.

Per branch, each of the two flow components gets a linearized-square block
(segment variables, sign split, binaries); the two block expressions couple
into the squared-current variable. In ``sopwl`` mode the block additionally
carries the big-M/binary rows that force ordered segment filling.

Every branch declares the same variables and rows, so the builder describes
one branch as a template of array columns and emits all branches with one
bulk call for the variables and one for the rows (:class:`_Batch`).

The build hands back the column of every variable it declared
(:class:`DistflowArtifacts`); past the build a variable is addressed by its
column alone, and its name is only the text of the LP and solution files.
A row's tag is LP-format-safe (``eq20_1_2_P_l1``, ``balanceP_2``): it is the
row's name in the LP file and in every message about the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .milp import MilpModel
from .network import NetworkCase

__all__ = [
    "BuildOptions",
    "BlockColumns",
    "DistflowArtifacts",
    "EPSILON_PLUS_WIDTHS",
    "build_distflow",
    "build_restoration_objective",
]

MODE_PWL = "pwl"
MODE_SOPWL = "sopwl"
MODES = (MODE_PWL, MODE_SOPWL)

OBJECTIVE_RESTORATION = "restoration"
OBJECTIVE_RESTORATION_LOSS = "restoration_with_loss_penalty"
OBJECTIVES = (OBJECTIVE_RESTORATION, OBJECTIVE_RESTORATION_LOSS)


@dataclass(frozen=True)
class BuildOptions:
    num_segments: int = 50
    mode: str = MODE_PWL
    objective: str = OBJECTIVE_RESTORATION

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise ValueError("num_segments must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")


# The margin by which an active eq20 row asks a segment to be full, in
# segment widths; validation.branch_errors adds it to FEASIBILITY_TOL in its
# ordered test.
EPSILON_PLUS_WIDTHS = 1e-6


@dataclass(frozen=True)
class BlockColumns:
    """Columns of the linearized square of one flow kind, one row per item
    (per branch, in file order, in :class:`DistflowArtifacts`)."""

    y: np.ndarray  # the flow the block squares; one column
    delta: np.ndarray  # one column per segment
    pos: np.ndarray  # one column each: the sign split of y
    neg: np.ndarray
    z_pos: np.ndarray  # one column each: the sign binaries
    z_neg: np.ndarray
    x: np.ndarray  # ordering binaries, one per segment boundary; none in plain mode


@dataclass
class DistflowArtifacts:
    """The built model and the columns of its variables. Per-branch arrays
    follow ``case.branches``, per-bus ones ``case.buses``, ``pickup``
    ``case.loads`` and ``gen`` ``case.generators``."""

    case: NetworkCase
    options: BuildOptions
    model: MilpModel
    blocks: dict[str, BlockColumns]  # "P" / "Q" -> columns
    isqr: np.ndarray
    voltage: np.ndarray
    pickup: np.ndarray
    gen: np.ndarray  # (generators, 2): gp and gq
    seg_width: np.ndarray  # (branches, 1): the segment width h of both blocks
    # every ordering binary, flat, ascending; none in pwl mode or at one segment
    ordering: np.ndarray


def _flow_bounds(case: NetworkCase) -> list[float]:
    """Each branch's flow bound ``y_max``: its ampacity in per unit at
    nominal voltage."""
    i_base = case.i_base_amps
    if i_base <= 0:
        raise ValueError("zero or negative current base")
    return [br.i_max_amps / i_base for br in case.branches]


def _column(values: Sequence[float]) -> np.ndarray:
    """Per-item values as a column, one row per item."""
    return np.array(values, dtype=float).reshape(-1, 1)


class _Batch:
    """Variables and rows that each of ``count`` items (blocks or branches)
    declares alike, for one bulk call each.

    Item ``i`` owns the ``stride`` columns from ``first + i * stride`` on, in
    the order :meth:`variables` declares them. Every array has one row per
    item and one column per variable, term or row of the item, so that
    raveling it gives the model's declaration order."""

    def __init__(self, count: int, first: int, stride: int):
        self.count = count
        self.stride = stride
        self._base = first + stride * np.arange(count, dtype=np.intp)[:, None]
        self._width = 0
        self._names: list[np.ndarray] = []
        self._lower: list[np.ndarray] = []
        self._upper: list[np.ndarray] = []
        self._binary: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._coefs: list[np.ndarray] = []
        self._lengths: list[int] = []
        self._senses: list[str] = []
        self._rhs: list[np.ndarray] = []
        self._tags: list[np.ndarray] = []

    def _per_item(self, templates: Sequence[str], args: Sequence[str]) -> np.ndarray:
        """``template % arg`` for every item's ``arg``, one row per item: the
        text around the one ``%s`` of each template, concatenated as arrays."""
        split = [t.split("%s") for t in templates]
        heads = np.array([head for head, _ in split], dtype=object)
        tails = np.array([tail for _, tail in split], dtype=object)
        texts = np.array(args, dtype=object)[:, None] + tails
        return heads + texts if any(heads) else texts

    def variables(
        self,
        templates: Sequence[str],
        args: Sequence[str],
        lower: float | np.ndarray,
        upper: float | np.ndarray,
        binary: bool = False,
    ) -> np.ndarray:
        """Declare ``len(templates)`` variables per item, named ``template %
        arg`` with the item's ``arg``; the bounds broadcast to one row per
        item. Returns their columns, one row per item."""
        k = len(templates)
        shape = (self.count, k)
        self._names.append(self._per_item(templates, args))
        self._lower.append(np.broadcast_to(lower, shape))
        self._upper.append(np.broadcast_to(upper, shape))
        self._binary.append(np.full(k, binary))
        cols = self._base + (self._width + np.arange(k))
        self._width += k
        return cols

    def rows(
        self,
        templates: Sequence[str],
        args: Sequence[str],
        terms: Sequence[tuple[np.ndarray, float | np.ndarray]],
        sense: str,
        rhs: float | np.ndarray,
    ) -> None:
        """Add ``len(templates)`` rows per item, tagged ``template % arg``.

        Each ``(cols, coefs)`` of ``terms`` is one term of every row; both
        broadcast to one row per item and one column per row. With a single
        template, a term may instead be a block: cols and coefs broadcast to
        ``(count, w)``, the ``w`` terms of the row in column order."""
        k = len(templates)
        if k == 1:
            shapes = [
                np.broadcast_shapes(np.shape(c), np.shape(v), (self.count, 1)) for c, v in terms
            ]
            cols = np.hstack([np.broadcast_to(c, s) for (c, _), s in zip(terms, shapes)])
            coefs = np.hstack(
                [np.broadcast_to(np.asarray(v, dtype=float), s) for (_, v), s in zip(terms, shapes)]
            )
            per_row = cols.shape[1]
        else:
            shape = (self.count, k)
            cols = np.stack([np.broadcast_to(c, shape) for c, _ in terms], axis=-1)
            coefs = np.stack(
                [np.broadcast_to(np.asarray(v, dtype=float), shape) for _, v in terms], axis=-1
            )
            per_row = len(terms)
        self._cols.append(cols.reshape(self.count, k * per_row))
        self._coefs.append(coefs.reshape(self.count, k * per_row))
        self._lengths += [per_row] * k
        self._senses += [sense] * k
        self._rhs.append(np.broadcast_to(rhs, (self.count, k)))
        self._tags.append(self._per_item(templates, args))

    @staticmethod
    def _joined(parts: list[np.ndarray]) -> np.ndarray:
        """The parts side by side, raveled in declaration order. The list is
        emptied, so that no part outlives its copy in the join."""
        joined = np.hstack(parts).ravel()
        parts.clear()
        return joined

    def emit(self, model: MilpModel) -> None:
        if self._width != self.stride:
            raise ValueError(f"items declared {self._width} variables, not {self.stride}")
        model.add_variables(
            self._joined(self._names).tolist(),
            self._joined(self._lower),
            self._joined(self._upper),
            np.tile(np.concatenate(self._binary), self.count),
        )
        lengths = np.tile(np.asarray(self._lengths, dtype=np.intp), self.count)
        row_start = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(lengths, out=row_start[1:])
        model.add_rows(
            self._joined(self._cols),
            self._joined(self._coefs),
            row_start,
            np.tile(np.asarray(self._senses), self.count),
            self._joined(self._rhs),
            self._joined(self._tags).tolist(),
        )


def _block_width(num_segments: int, mode: str) -> int:
    """Variables of one block: segments, sign split, sign binaries and, in
    ``sopwl`` mode, one ordering binary per segment boundary."""
    return num_segments + 4 + (num_segments - 1 if mode == MODE_SOPWL else 0)


def _emit_blocks(
    batch: _Batch,
    y: np.ndarray,
    y_max: np.ndarray,
    h: np.ndarray,
    n: int,
    mode: str,
    prefixes: Sequence[str],
    tag_suffixes: Sequence[str],
) -> BlockColumns:
    """Declare into ``batch`` the segment/sign/binary variables and the rows
    of one linearized square of column ``y`` per item, on ``n`` segments of
    width ``h`` of ``[0, y_max]`` (columns, one row per item)."""
    lams = range(1, n + 1)

    delta = batch.variables([f"%s_d{lam}" for lam in lams], prefixes, 0.0, h)
    pos, neg = np.hsplit(batch.variables(["%s_pos", "%s_neg"], prefixes, 0.0, y_max), 2)
    z_pos, z_neg = np.hsplit(
        batch.variables(["%s_zpos", "%s_zneg"], prefixes, 0.0, 1.0, binary=True), 2
    )

    batch.rows(["eq6_%s"], tag_suffixes, [(y, 1.0), (pos, -1.0), (neg, 1.0)], "=", 0.0)
    batch.rows(["eq7_%s"], tag_suffixes, [(pos, 1.0), (neg, 1.0), (delta, -1.0)], "=", 0.0)
    batch.rows(["eq10_%s"], tag_suffixes, [(pos, 1.0), (z_pos, -y_max)], "<=", 0.0)
    batch.rows(["eq11_%s"], tag_suffixes, [(neg, 1.0), (z_neg, -y_max)], "<=", 0.0)
    batch.rows(["eq12_%s"], tag_suffixes, [(z_pos, 1.0), (z_neg, 1.0)], "<=", 1.0)

    x = delta[:, :0]
    if mode == MODE_SOPWL:
        # one binary per segment boundary: segment lam + 1 may fill (eq21)
        # only if segment lam is full (eq20)
        bounds = range(1, n)
        x = batch.variables([f"%s_x{lam}" for lam in bounds], prefixes, 0.0, 1.0, binary=True)
        # delta_lam - h + (1 - x_lam) * h + eps >= 0, big M = h: with x_lam = 0
        # the row reads delta_lam >= -eps, which the variable's bound implies
        batch.rows(
            [f"eq20_%s_l{lam}" for lam in bounds],
            tag_suffixes,
            [(delta[:, :-1], 1.0), (x, -h)],
            ">=",
            -EPSILON_PLUS_WIDTHS * h,
        )
        # 0 <= delta_{lam+1} <= x_lam * h (lower bound held by the variable)
        batch.rows(
            [f"eq21_%s_l{lam}" for lam in bounds],
            tag_suffixes,
            [(delta[:, 1:], 1.0), (x, -h)],
            "<=",
            0.0,
        )
    return BlockColumns(y, delta, pos, neg, z_pos, z_neg, x)


def build_distflow(
    model: MilpModel, case: NetworkCase, options: BuildOptions
) -> DistflowArtifacts:
    """Declare all network variables and constraint rows for the linearized
    DistFlow problem on ``case``.

    Declaration order: a voltage per bus and the root-voltage row; per branch
    in file order ``P``, ``Q``, ``Isqr`` and the P and Q blocks, with the
    blocks' rows, ``eq4`` and ``vdrop``; a pickup per load and ``gp``/``gq``
    per generator; then the two balance rows of each bus."""
    mode = options.mode
    buses = case.buses
    branches = case.branches
    position = {bus.id: i for i, bus in enumerate(buses)}

    voltage = model.add_variables(
        [f"V_{bus.id}" for bus in buses],
        [bus.v_sqr_min for bus in buses],
        [bus.v_sqr_max for bus in buses],
    )
    # the root is the first bus
    model.add_rows([voltage.start], [1.0], [0, 1], ["="], [1.0], [f"rootV_{case.root}"])

    # the branch key in variable names and row tags: "1-2" -> "1_2"
    names = [br.key.replace("-", "_") for br in branches]
    bounds = _flow_bounds(case)
    y_max = _column(bounds)
    # each branch's segment width: n equal segments of [0, y_max]
    h = y_max / options.num_segments
    # squares taken on Python floats: numpy's r**2 differs from Python's in
    # the last digit for some r, which would change the LP text
    i_max_sqr = _column([b**2 for b in bounds])
    z_sqr = _column([-(br.r_pu**2 + br.x_pu**2) for br in branches])
    r = _column([br.r_pu for br in branches])
    x = _column([br.x_pu for br in branches])
    from_bus = np.array([position[br.from_bus] for br in branches], dtype=np.intp)
    to_bus = np.array([position[br.to_bus] for br in branches], dtype=np.intp)

    n = options.num_segments
    stride = 3 + 2 * _block_width(n, mode)
    batch = _Batch(len(branches), model.num_variables, stride)
    p, q = np.hsplit(batch.variables(["P_%s", "Q_%s"], names, -y_max, y_max), 2)
    isqr = batch.variables(["Isqr_%s"], names, 0.0, i_max_sqr)
    block_cols = {
        kind: _emit_blocks(
            batch,
            y,
            y_max,
            h,
            n,
            mode,
            [f"{kind}_{a}" for a in names],
            [f"{a}_{kind}" for a in names],
        )
        for kind, y in (("P", p), ("Q", q))
    }
    # squared-current coupling: Isqr = f(P) + f(Q), v_norm = 1
    slopes = np.arange(1, 2 * n, 2) * h
    coupling = [(isqr, 1.0)] + [(block_cols[kind].delta, -slopes) for kind in ("P", "Q")]
    batch.rows(["eq4_%s"], names, coupling, "=", 0.0)
    # voltage drop along the branch
    batch.rows(
        ["vdrop_%s"],
        names,
        [
            (voltage.start + to_bus[:, None], 1.0),
            (voltage.start + from_bus[:, None], -1.0),
            (p, 2.0 * r),
            (q, 2.0 * x),
            (isqr, z_sqr),
        ],
        "=",
        0.0,
    )
    batch.emit(model)

    loads, gens = case.loads, case.generators
    tail = model.add_variables(
        [f"beta_{load.bus}" for load in loads]
        + [name for g in gens for name in (f"gp_{g.bus}", f"gq_{g.bus}")],
        0.0,
        [1.0] * len(loads) + [limit for g in gens for limit in (g.p_max_pu, g.q_max_pu)],
    )

    # Balance rows, P then Q per bus. Each term goes to the row of its bus;
    # a stable sort by row keeps the terms of a row in the order listed
    # here: branches in file order (leaving flow, or arriving flow minus its
    # loss), then generation, then load.
    from_row, to_row = 2 * from_bus, 2 * to_bus
    gen_row = 2 * np.array([position[g.bus] for g in gens], dtype=np.intp)
    load_row = 2 * np.array([position[load.bus] for load in loads], dtype=np.intp)
    one = np.ones((len(branches), 1))
    beta = tail.start + np.arange(len(loads), dtype=np.intp)
    gp = tail.start + len(loads) + 2 * np.arange(len(gens), dtype=np.intp)
    row = np.concatenate([
        np.stack([from_row, to_row, to_row, from_row + 1, to_row + 1, to_row + 1], axis=1).ravel(),
        np.stack([gen_row, gen_row + 1], axis=1).ravel(),
        np.stack([load_row, load_row + 1], axis=1).ravel(),
    ])
    col = np.concatenate([
        np.hstack([p, p, isqr, q, q, isqr]).ravel(),
        np.stack([gp, gp + 1], axis=1).ravel(),
        np.stack([beta, beta], axis=1).ravel(),
    ])
    coef = np.concatenate([
        np.hstack([-one, one, -r, -one, one, -x]).ravel(),
        np.ones(2 * len(gens)),
        np.array([-c for load in loads for c in (load.p_pu, load.q_pu)]),
    ])
    order = np.argsort(row, kind="stable")
    row_start = np.zeros(2 * len(buses) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=2 * len(buses)), out=row_start[1:])
    model.add_rows(
        col[order],
        coef[order],
        row_start,
        ["="] * (2 * len(buses)),
        np.zeros(2 * len(buses)),
        [f"balance{kind}_{bus.id}" for bus in buses for kind in ("P", "Q")],
    )

    return DistflowArtifacts(
        case=case,
        options=options,
        model=model,
        blocks=block_cols,
        isqr=isqr[:, 0],
        voltage=np.asarray(voltage),
        pickup=beta,
        gen=np.stack([gp, gp + 1], axis=1),
        seg_width=h,
        # per branch its P block's then its Q block's, as declared
        ordering=np.hstack([block_cols["P"].x, block_cols["Q"].x]).ravel(),
    )


def build_restoration_objective(
    model: MilpModel, artifacts: DistflowArtifacts
) -> None:
    """Maximize restored active load, optionally penalizing branch losses."""
    case = artifacts.case
    cols = artifacts.pickup.tolist()
    coefs = [load.p_pu for load in case.loads]
    if artifacts.options.objective == OBJECTIVE_RESTORATION_LOSS:
        cols += artifacts.isqr.tolist()
        coefs += [-br.r_pu for br in case.branches]
    model.set_objective_columns("max", cols, coefs)
