"""The solver: :class:`ScipyMilpAdapter` solves in process with HiGHS, reads
and writes no file, and returns a :class:`sopwl.milp.Solution`.

Every solve, MILP or LP, runs on :class:`_HighsSession`, one HiGHS object of
the binding scipy ships (``scipy.optimize._highspy._core``, private; verified
on scipy 1.17.1 / HiGHS 1.12.0). The binding is loaded from its file by
:func:`_load_core`, without running ``scipy/optimize/__init__.py``: that
imports scipy's linalg, sparse, special and fft and takes most of a solve's
start-up, while the binding alone loads in a few milliseconds. The session
hands HiGHS the model's own row-wise arrays in one ``passModel`` call; HiGHS's
column copy of them is the one ``scipy.optimize.milp`` passes, so a first run
gives that call's point. The object keeps its model and its optimal basis
between runs, so stage 2 of a :class:`Relaxation`, which adds one row and
swaps the costs, starts from stage 1's basis instead of solving from scratch.

Every MILP run sets two options beyond the time limit. ``mip_rel_gap``
(:data:`MIP_REL_GAP`, 1e-4) bounds how far a returned MILP objective may lie
from the optimum. ZI round (:data:`ZI_ROUND_OPTION`) turns on a rounding
heuristic that HiGHS leaves off by default. It rounds the root LP point into
an incumbent. It serves two MILPs only: the pwl MILP that ``solve`` falls
back to when the pwl model's LP relaxation is not tight (see
``sopwl.cli._pwl_answer``), and the SO-PWL MILP. On the plain-PWL models of
the bundled cases its incumbent is already optimal, so such a MILP stops at
its root node instead of waiting for HiGHS's sub-MIP heuristic. An option
HiGHS refuses raises ``ValueError``.

Another MILP solver is used through files, outside this module: ``export-lp``
writes the LP and ``validate --solution`` re-checks that solver's answer in
the solution text format of :func:`sopwl.milp.format_solution`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import Optional

import numpy as np

from . import milp

__all__ = ["Relaxation", "ScipyMilpAdapter"]

# HiGHS's relative MIP gap, set on every MILP run by _HighsSession: a
# returned objective is within this share of the optimum. HiGHS's own
# feasibility tolerances stay at their defaults, 1e-6 for a MILP's rows and
# 1e-7 for an LP's.
MIP_REL_GAP = 1e-4
# HiGHS's zero-integrality rounding heuristic ("ZI round", Wallace 2010), off
# in HiGHS by default and on in every MILP run (see the module docstring)
ZI_ROUND_OPTION = "mip_heuristic_run_zi_round"
# how far below the LP optimum U stage 2 of a relaxation may move the
# objective, relative to max(1, |U|); read by Relaxation.refine
STAGE2_SLACK = 1e-7
# the binding's name in scipy; loaded under it, so that scipy.optimize finds
# the same module when it is imported later
CORE_MODULE = "scipy.optimize._highspy._core"


def _load_core() -> ModuleType:
    """scipy's HiGHS binding, loaded from its file in scipy's
    ``optimize/_highspy`` directory and registered in ``sys.modules`` under
    its own name, without importing ``scipy.optimize``. When the binding is
    already loaded (``scipy.optimize`` was imported first), that module is
    returned: pybind11 registers the binding's types once per process, so
    there must be one instance of it."""
    if CORE_MODULE in sys.modules:
        return sys.modules[CORE_MODULE]
    import scipy

    where = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    found = importlib.machinery.PathFinder.find_spec("_core", [where])
    if found is None:
        raise ImportError(
            f"scipy's HiGHS binding _core is not in {where} (scipy {scipy.__version__})",
            name=CORE_MODULE,
        )
    spec = importlib.util.spec_from_file_location(CORE_MODULE, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[CORE_MODULE] = module
    spec.loader.exec_module(module)
    return module


_core = _load_core()


@dataclass
class ScipyMilpAdapter:
    """Solves the model in process with the HiGHS that scipy ships."""

    time_limit: float = milp.DEFAULT_TIMEOUT_SECONDS

    def run(self, model: milp.MilpModel) -> milp.Solution:
        a = model.arrays
        c = _costs(model)
        highs = _HighsSession(a, c, a.lower, a.upper, self.time_limit, a.binary)
        status = highs.run()
        if status not in ("optimal", "feasible"):
            return milp.Solution(status, 0.0)
        stats = highs.mip_stats()
        if stats["mip_dual_bound"] is not None and model.objective_sense == "max":
            # HiGHS bounds c @ x, the negated objective; "+ 0.0" turns a
            # negated 0.0 into 0.0
            stats["mip_dual_bound"] = -stats["mip_dual_bound"] + 0.0

        x = highs.x()
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
        fixed = _HighsSession(
            a, c, np.where(a.binary, x, a.lower), np.where(a.binary, x, a.upper), self.time_limit
        )
        return _clip(fixed.x(), a) if fixed.run() == "optimal" else x

    def relax(self, model: milp.MilpModel) -> Relaxation:
        """Solve the LP relaxation of ``model`` (integrality dropped) on one
        HiGHS session, held by the returned :class:`Relaxation` for
        :meth:`Relaxation.refine`. The LP gets the adapter's ``time_limit``."""
        a = model.arrays
        c = _costs(model)
        lp = _HighsSession(a, c, a.lower, a.upper, self.time_limit)
        return Relaxation(model, c, lp, lp.run())


class Relaxation:
    """The LP relaxation of one model, solved in two stages on one HiGHS
    session.

    Stage 1 (:meth:`ScipyMilpAdapter.relax`) optimises the model's objective,
    whose optimum ``U`` bounds every integer solution. :attr:`solution` is
    its point, clipped into its bounds with binaries possibly fractional,
    with ``U`` as its dual bound, ``(U - objective) / |U|`` as its gap (in
    the model's sense) and 0 nodes; otherwise it is stage 1's status alone.
    Stage 2 (:meth:`refine`) holds the objective within
    ``STAGE2_SLACK * max(1, |U|)`` of ``U`` and minimises the sum of chosen
    columns, starting from stage 1's optimal basis."""

    def __init__(self, model: milp.MilpModel, c: np.ndarray, lp: _HighsSession, status: str):
        self._arrays = model.arrays
        self._c = c
        self._lp = lp
        self._sign = -1.0 if model.objective_sense == "max" else 1.0
        self._refined: Optional[milp.Solution] = None
        self.bound: Optional[float] = None
        if status != "optimal":
            self.solution = milp.Solution(status, 0.0)
            return
        self.bound = self._sign * lp.objective() + 0.0  # as in run: no -0.0
        self.solution = self._at_bound(lp.x())

    def _at_bound(self, x: np.ndarray) -> milp.Solution:
        """The LP point ``x``, clipped, with ``U`` as its dual bound."""
        x = _clip(x, self._arrays)
        objective = _objective(x, self._arrays)
        bound = self.bound
        gap = -self._sign * (bound - objective) / abs(bound) if bound else 0.0
        return milp.Solution(
            "optimal", objective, x, mip_node_count=0, mip_gap=gap, mip_dual_bound=bound
        )

    def refine(self, stage2: np.ndarray) -> milp.Solution:
        """Stage 2, minimising the sum of the columns ``stage2``: its point
        with the statistics :attr:`solution` gives stage 1's, or the status
        of the first stage that is not optimal, with ``U`` kept when stage 1
        found it. Stage 2 runs once per relaxation, with the adapter's
        ``time_limit``; a later call returns the same solution."""
        if self.bound is None:
            return self.solution
        if self._refined is None:
            lp = self._lp
            # ``objective()`` is stage 1's optimum of c @ x, so
            # c @ x <= it + slack holds the objective near U in either sense
            lp.add_row(self._c, lp.objective() + STAGE2_SLACK * max(1.0, abs(self.bound)))
            c2 = np.zeros(len(self._c))
            c2[stage2] = 1.0
            lp.set_costs(c2)
            status = lp.run()
            if status != "optimal":
                self._refined = milp.Solution(status, 0.0, mip_dual_bound=self.bound)
            else:
                self._refined = self._at_bound(lp.x())
        return self._refined


class _HighsSession:
    """One model, ``min c @ x`` on the rows of ``a`` within ``[lower, upper]``
    with the columns ``binary`` integral (an LP when none is), held by one
    HiGHS object that keeps the model and its basis between runs: a run after
    :meth:`add_row` or :meth:`set_costs` starts from the last optimal basis.
    The rows are passed as ``a`` stores them, row-wise, with logging off;
    HiGHS's own column copy puts each column's terms in row order, as
    ``scipy.optimize.milp`` passes them, so a first run gives the same point
    as that call with the same options."""

    def __init__(
        self,
        a: milp.ModelArrays,
        c: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        time_limit: float,
        binary: Optional[np.ndarray] = None,
    ):
        self.time_limit = time_limit
        self.mip = binary is not None and bool(binary.any())
        self.highs = _core._Highs()
        self._set("log_to_console", False)
        if self.mip:
            self._set("mip_rel_gap", MIP_REL_GAP)
            self._set(ZI_ROUND_OPTION, True)
        # HiGHS refuses an empty integrality array: an LP passes kContinuous (0)s
        integrality = np.zeros(len(c), np.int32) if binary is None else binary.astype(np.int32)
        status = self.highs.passModel(
            len(c), len(a.row_lo), len(a.coefs), _core.MatrixFormat.kRowwise,
            _core.ObjSense.kMinimize, 0.0, c, lower, upper, a.row_lo, a.row_hi,
            a.row_start[:-1], a.cols, a.coefs, integrality,
        )
        # a model HiGHS will not load is reported as scipy reports it:
        # kModelError, which is "infeasible"
        self._loaded = status != _core.HighsStatus.kError

    def _set(self, option: str, value) -> None:
        if self.highs.setOptionValue(option, value) == _core.HighsStatus.kError:
            raise ValueError(f"HiGHS refuses the option {option} = {value!r}")

    def run(self) -> str:
        """Solve from the last basis and return the model's status: HiGHS's
        kOptimal is "optimal", kInfeasible and kModelError "infeasible",
        kUnbounded "unbounded". A MILP stopped by its time or iteration
        limit is "feasible" when HiGHS holds an incumbent. Every other
        status, an LP's time limit included, is "error". So is a MILP that
        HiGHS ends kUnboundedOrInfeasible, as it does when its relaxation is
        unbounded: HiGHS has found no feasible point, and "unbounded" would
        be a guess."""
        if not self._loaded:
            return "infeasible"
        highs = self.highs
        # HiGHS's run clock keeps counting across runs on one object, and its
        # time limit is read against that clock
        self._set("time_limit", highs.getRunTime() + self.time_limit)
        highs.run()
        status = _core.HighsModelStatus
        model_status = highs.getModelStatus()
        if self.mip and model_status in (status.kTimeLimit, status.kIterationLimit):
            return "feasible" if self.objective() != _core.kHighsInf else "error"
        return {
            status.kOptimal: "optimal",
            status.kInfeasible: "infeasible",
            status.kModelError: "infeasible",
            status.kUnbounded: "unbounded",
        }.get(model_status, "error")

    def mip_stats(self) -> dict[str, Optional[float]]:
        """The last run's B&B nodes, MIP gap and dual bound (of ``c @ x``),
        each None for an LP; read after a run that returned a point."""
        if not self.mip:
            return dict.fromkeys(("mip_node_count", "mip_gap", "mip_dual_bound"))
        info = self.highs.getInfo()
        return {
            "mip_node_count": info.mip_node_count,
            "mip_gap": info.mip_gap,
            "mip_dual_bound": info.mip_dual_bound,
        }

    def x(self) -> np.ndarray:
        return np.array(self.highs.getSolution().col_value)

    def objective(self) -> float:
        """The optimum of ``c @ x`` found by the last run, or the MILP
        incumbent's value (``kHighsInf`` when there is none)."""
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
