"""The solver: :class:`ScipyMilpAdapter` solves in process with HiGHS, reads
and writes no file, and returns a :class:`sopwl.milp.Solution`.

A MILP goes through ``scipy.optimize.milp``, the public API. An LP goes
through :class:`_LpSession`, one HiGHS object of the binding scipy ships
(``scipy.optimize._highspy._core``; verified on scipy 1.17.1 / HiGHS 1.12.0):
the object keeps its model and its optimal basis between runs, so stage 2 of
:meth:`ScipyMilpAdapter.run_relaxed_two_stage`, which adds one row and swaps
the costs, starts from stage 1's basis instead of solving from scratch, as
``scipy.optimize.milp`` has to.

Every MILP call sets two options beyond the time limit. ``mip_rel_gap``
(:data:`MIP_REL_GAP`, 1e-4) bounds how far a returned MILP objective may lie
from the optimum. ZI round (:data:`ZI_ROUND_OPTION`) turns on a rounding
heuristic that HiGHS leaves off by default. It rounds the root LP point into
an incumbent. On the plain-PWL models of the bundled cases that incumbent is
already optimal, so the MILP stops at its root node instead of waiting for
HiGHS's sub-MIP heuristic.

Another MILP solver is used through files, outside this module: ``export-lp``
writes the LP and ``validate --solution`` re-checks that solver's answer in
the solution text format of :func:`sopwl.milp.format_solution`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize as sopt

from . import milp

__all__ = ["ScipyMilpAdapter"]

# HiGHS's relative MIP gap, set on every MILP call by ScipyMilpAdapter._highs: a
# returned objective is within this share of the optimum. HiGHS's own
# feasibility tolerances stay at their defaults, 1e-6 for a MILP's rows and
# 1e-7 for an LP's.
MIP_REL_GAP = 1e-4
# HiGHS's zero-integrality rounding heuristic ("ZI round", Wallace 2010), off
# in HiGHS by default and on in every MILP call (see the module docstring);
# scipy.optimize.milp does not name the option and passes it on verbatim
ZI_ROUND_OPTION = "mip_heuristic_run_zi_round"
# how far below the LP optimum U stage 2 of the relaxed solve may move the
# objective, relative to max(1, |U|); read by run_relaxed_two_stage
STAGE2_SLACK = 1e-7


@dataclass
class ScipyMilpAdapter:
    """Solves the model in process with scipy's HiGHS-backed MILP solver."""

    time_limit: float = milp.DEFAULT_TIMEOUT_SECONDS

    def run(self, model: milp.MilpModel) -> milp.Solution:
        a = model.arrays
        c = _costs(model)
        res = self._highs(a, c)
        status = _status(res)
        bound = res.get("mip_dual_bound")
        if bound is not None and model.objective_sense == "max":
            # HiGHS bounds c @ x, the negated objective; "+ 0.0" turns a
            # negated 0.0 into 0.0
            bound = -bound + 0.0
        stats = {
            "mip_node_count": res.get("mip_node_count"),
            "mip_gap": res.get("mip_gap"),
            "mip_dual_bound": bound,
        }
        if res.x is None or status in ("infeasible", "unbounded", "error"):
            return milp.Solution(status, 0.0, **stats)

        x = np.asarray(res.x, dtype=float)
        # snap binaries so downstream bound checks see clean values; "+ 0.0"
        # turns a rounded -0.0 into 0.0. _clip clips integrality dust
        x[a.binary] = np.round(x[a.binary]) + 0.0
        x = _clip(x, a)
        if a.missed_rows(x)[0].size:
            x = self._polished(a, c, x)
        return milp.Solution(status, _objective(x, a), x, **stats)

    def _polished(self, a: milp.ModelArrays, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The clipped point ``x`` re-solved as an LP with its binaries fixed
        and clipped into its bounds, or ``x`` itself when that LP is not
        solved to optimality.

        HiGHS may leave a MILP point outside a bound by up to its MIP
        feasibility tolerance (1e-6) with every row met exactly; clipping the
        point into its bounds then breaks a row by that much times the row's
        coefficients. The LP is held to HiGHS's tighter LP tolerance (1e-7),
        and any point it returns is as good as ``x`` up to that tolerance."""
        fixed = _LpSession(
            a, c, np.where(a.binary, x, a.lower), np.where(a.binary, x, a.upper), self.time_limit
        )
        return _clip(fixed.x(), a) if fixed.run() == "optimal" else x

    def run_relaxed_two_stage(
        self, model: milp.MilpModel, stage2: np.ndarray
    ) -> milp.Solution:
        """Solve the LP relaxation of ``model`` (integrality dropped) twice.

        Stage 1 optimises the model's objective, whose optimum ``U`` bounds
        every integer solution. Stage 2 holds the objective within
        ``STAGE2_SLACK * max(1, |U|)`` of ``U`` and minimises the sum of the
        variables in the columns ``stage2``. Both stages run on one HiGHS
        object, so stage 2 starts from stage 1's optimal basis. The stage-2
        point is returned unrounded (clipped into its bounds, binaries
        possibly fractional) with ``U`` as its dual bound,
        ``(U - objective) / |U|`` as its gap (in the model's sense) and 0
        nodes. Otherwise the status is that of the first stage that is not
        optimal, and ``U`` is kept when stage 1 found it.
        Each LP gets the adapter's ``time_limit``.
        """
        a = model.arrays
        c = _costs(model)
        lp = _LpSession(a, c, a.lower, a.upper, self.time_limit)
        status = lp.run()
        if status != "optimal":
            return milp.Solution(status, 0.0)
        # ``fun`` is the optimum of c @ x, so c @ x <= fun + slack holds the
        # objective near U in either sense
        fun = lp.objective()
        sign = -1.0 if model.objective_sense == "max" else 1.0
        bound = sign * fun + 0.0  # as in run: no -0.0
        lp.add_row(c, fun + STAGE2_SLACK * max(1.0, abs(bound)))
        c2 = np.zeros(len(a.names))
        c2[stage2] = 1.0
        lp.set_costs(c2)
        status = lp.run()
        if status != "optimal":
            return milp.Solution(status, 0.0, mip_dual_bound=bound)
        x = _clip(lp.x(), a)
        objective = _objective(x, a)
        gap = -sign * (bound - objective) / abs(bound) if bound else 0.0
        return milp.Solution(
            "optimal",
            objective,
            x,
            mip_node_count=0,
            mip_gap=gap,
            mip_dual_bound=bound,
        )

    def _highs(self, a: milp.ModelArrays, c: np.ndarray):
        """One ``scipy.optimize.milp`` call minimising ``c @ x`` on the model
        ``a``, its binaries integral."""
        constraints = []
        if len(a.row_lo):
            constraints.append(sopt.LinearConstraint(a.matrix(), a.row_lo, a.row_hi))
        with warnings.catch_warnings():
            # scipy warns that it passes ZI_ROUND_OPTION on verbatim; a HiGHS
            # that does not know the option still warns (OptimizeWarning)
            warnings.filterwarnings(
                "ignore",
                message="Unrecognized options detected: .* passed to HiGHS verbatim",
                category=RuntimeWarning,
            )
            return sopt.milp(
                c=c,
                constraints=constraints,
                bounds=sopt.Bounds(a.lower, a.upper),
                integrality=a.binary.astype(int),
                options={
                    "time_limit": self.time_limit,
                    "mip_rel_gap": MIP_REL_GAP,
                    ZI_ROUND_OPTION: True,
                },
            )


class _LpSession:
    """One LP, ``min c @ x`` on the rows of ``a`` within ``[lower, upper]``,
    held by one HiGHS object that keeps the model and its basis between
    runs: a run after :meth:`add_row` or :meth:`set_costs` starts from the
    last optimal basis. The model is passed as ``scipy.optimize.milp`` passes
    it (the rows column-wise, logging off), so a first run gives the same
    point as that call."""

    def __init__(
        self,
        a: milp.ModelArrays,
        c: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        time_limit: float,
    ):
        # scipy's private binding, imported on first use as this module is
        from scipy.optimize._highspy import _core

        self._core = _core
        self.time_limit = time_limit
        cols = a.matrix().tocsc()
        lp = _core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
        lp.num_row_ = lp.a_matrix_.num_row_ = len(a.row_lo)
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = cols.indptr
        lp.a_matrix_.index_ = cols.indices
        lp.a_matrix_.value_ = cols.data
        lp.col_cost_ = c
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        lp.row_lower_ = a.row_lo
        lp.row_upper_ = a.row_hi
        self.highs = _core._Highs()
        self.highs.setOptionValue("log_to_console", False)
        # a model HiGHS will not load is reported as scipy reports it:
        # kModelError, which is "infeasible"
        self._loaded = self.highs.passModel(lp) != _core.HighsStatus.kError

    def run(self) -> str:
        """Solve from the last basis and return the LP's status: HiGHS's
        kOptimal is "optimal", kInfeasible and kModelError "infeasible",
        kUnbounded "unbounded", and every other status, a time limit
        included, "error"."""
        if not self._loaded:
            return "infeasible"
        highs = self.highs
        # HiGHS's run clock keeps counting across runs on one object, and its
        # time limit is read against that clock
        highs.setOptionValue("time_limit", highs.getRunTime() + self.time_limit)
        highs.run()
        status = self._core.HighsModelStatus
        return {
            status.kOptimal: "optimal",
            status.kInfeasible: "infeasible",
            status.kModelError: "infeasible",
            status.kUnbounded: "unbounded",
        }.get(highs.getModelStatus(), "error")

    def x(self) -> np.ndarray:
        return np.array(self.highs.getSolution().col_value)

    def objective(self) -> float:
        """The optimum of ``c @ x`` found by the last run."""
        return self.highs.getInfo().objective_function_value

    def add_row(self, coefs: np.ndarray, upper: float) -> None:
        """Add the row ``coefs @ x <= upper``, its zero terms left out."""
        cols = np.flatnonzero(coefs).astype(np.int32)
        self.highs.addRow(-np.inf, upper, len(cols), cols, coefs[cols])

    def set_costs(self, c: np.ndarray) -> None:
        self.highs.changeColsCost(len(c), np.arange(len(c), dtype=np.int32), c)


def _costs(model: milp.MilpModel) -> np.ndarray:
    """The objective as the cost vector HiGHS minimises."""
    a = model.arrays
    c = np.zeros(len(a.names))
    np.add.at(c, a.obj_cols, a.obj_coefs)
    if model.objective_sense == "max":
        c *= -1.0
    return c


def _status(res) -> str:
    return {
        0: "optimal",
        1: "error" if res.x is None else "feasible",  # a limit hit, incumbent or not
        2: "infeasible",
        3: "unbounded",
    }.get(res.status, "error")


def _clip(x: np.ndarray, a: milp.ModelArrays) -> np.ndarray:
    """``x`` clipped into its bounds, kept where it is not beyond a bound,
    -0.0 included."""
    x = np.where(x < a.lower, a.lower, x)
    return np.where(x > a.upper, a.upper, x)


def _objective(x: np.ndarray, a: milp.ModelArrays) -> float:
    """The objective at the clipped point ``x``, recomputed for consistency
    and summed term by term in the objective's order."""
    obj_values = x[a.obj_cols].tolist()
    return float(sum(c * v for c, v in zip(a.obj_coefs.tolist(), obj_values)))
