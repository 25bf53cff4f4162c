"""Solver backends. Each adapter returns a :class:`sopwl.milp.Solution`.

:class:`ScipyMilpAdapter` solves in process with HiGHS (via scipy) and reads
and writes no file. :class:`SubprocessAdapter` runs any external MILP solver
that reads an LP file and writes the solution text format of
:func:`sopwl.milp.format_solution`.
"""

from __future__ import annotations

import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

from . import milp

__all__ = ["ScipyMilpAdapter", "SubprocessAdapter"]

DEFAULT_TIMEOUT_SECONDS = 600.0
# how far below the LP optimum U stage 2 of the relaxed solve may move the
# objective, relative to max(1, |U|)
STAGE2_SLACK = 1e-7


@dataclass
class ScipyMilpAdapter:
    """Solves the model in process with scipy's HiGHS-backed MILP solver."""

    time_limit: float = DEFAULT_TIMEOUT_SECONDS
    mip_rel_gap: float = 1e-4

    def run(
        self, model: milp.MilpModel, workdir: Optional[Path] = None
    ) -> milp.Solution:
        a = model.arrays
        c = _costs(model)
        res = self._highs(a, c, integral=True)
        status = _status(res)
        bound = res.get("mip_dual_bound")
        if bound is not None and model.objective_sense == "max":
            bound = -bound  # HiGHS bounds c @ x, the negated objective
        stats = {
            "mip_node_count": res.get("mip_node_count"),
            "mip_gap": res.get("mip_gap"),
            "mip_dual_bound": bound,
        }
        if res.x is None or status in ("infeasible", "unbounded", "error"):
            return milp.Solution(status, 0.0, {}, **stats)

        x = np.asarray(res.x, dtype=float)
        # snap binaries so downstream bound checks see clean values; "+ 0.0"
        # turns a rounded -0.0 into 0.0. _clipped clips integrality dust
        x[a.binary] = np.round(x[a.binary]) + 0.0
        objective, values = _clipped(x, a)
        return milp.Solution(status, objective, values, **stats)

    def run_relaxed_two_stage(
        self, model: milp.MilpModel, stage2: Sequence[str]
    ) -> milp.Solution:
        """Solve the LP relaxation of ``model`` (integrality dropped) twice.

        Stage 1 optimises the model's objective, whose optimum ``U`` bounds
        every integer solution. Stage 2 holds the objective within
        ``STAGE2_SLACK * max(1, |U|)`` of ``U`` and minimises the sum of the
        ``stage2`` variables. The stage-2 point is returned unrounded (clipped
        into its bounds, binaries possibly fractional) with ``U`` as its dual
        bound, ``(U - objective) / |U|`` as its gap (in the model's sense)
        and 0 nodes. Otherwise the status is that of the first stage that is
        not optimal, and ``U`` is kept when stage 1 found it.
        Each LP gets the adapter's ``time_limit``.
        """
        a = model.arrays
        c = _costs(model)
        first = self._highs(a, c, integral=False)
        status = _status(first)
        if status != "optimal":
            return milp.Solution(status, 0.0, {})
        # ``first.fun`` is the optimum of c @ x, so c @ x <= fun + slack
        # holds the objective near U in either sense
        sign = -1.0 if model.objective_sense == "max" else 1.0
        bound = sign * first.fun
        hold = sopt.LinearConstraint(
            sp.csr_matrix(c), -np.inf, first.fun + STAGE2_SLACK * max(1.0, abs(bound))
        )
        c2 = np.zeros(len(a.names))
        c2[[model.variable(name).index for name in stage2]] = 1.0
        second = self._highs(a, c2, integral=False, extra=[hold])
        status = _status(second)
        if status != "optimal":
            return milp.Solution(status, 0.0, {}, mip_dual_bound=bound)
        objective, values = _clipped(np.asarray(second.x, dtype=float), a)
        gap = -sign * (bound - objective) / abs(bound) if bound else 0.0
        return milp.Solution(
            "optimal",
            objective,
            values,
            mip_node_count=0,
            mip_gap=gap,
            mip_dual_bound=bound,
        )

    def _highs(
        self, a: milp.ModelArrays, c: np.ndarray, integral: bool, extra: Sequence = ()
    ):
        """One HiGHS call minimising ``c @ x`` on the rows and bounds of ``a``
        plus the ``extra`` constraints."""
        n = len(a.names)
        constraints = list(extra)
        if len(a.row_lo):
            constraints.insert(0, sopt.LinearConstraint(a.matrix(), a.row_lo, a.row_hi))
        return sopt.milp(
            c=c,
            constraints=constraints,
            bounds=sopt.Bounds(a.lower, a.upper) if n else None,
            integrality=a.binary.astype(int) if integral and n else None,
            options={"time_limit": self.time_limit, "mip_rel_gap": self.mip_rel_gap},
        )


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


def _clipped(x: np.ndarray, a: milp.ModelArrays) -> tuple[float, dict[str, float]]:
    """The objective and the values of ``x`` clipped into its bounds.

    The clip keeps x where it is not beyond a bound, -0.0 included. The
    objective is recomputed from the clipped values for consistency, summed
    term by term in the objective's order.
    """
    x = np.where(x < a.lower, a.lower, x)
    x = np.where(x > a.upper, a.upper, x)
    obj_values = x[a.obj_cols].tolist()
    objective = float(sum(c * v for c, v in zip(a.obj_coefs.tolist(), obj_values)))
    return objective, dict(zip(a.names, x.tolist()))


@dataclass
class SubprocessAdapter:
    """Runs an external solver executable.

    ``arg_template`` is a shell-style template; ``{lp}`` and ``{sol}`` expand
    to the LP input path and the expected solution output path. The external
    command must write the solution text format to ``{sol}``.

    The LP file, the solution file and the solver log go to ``workdir``. When
    it is None, they go to a temporary directory, removed after a successful
    solve and kept, with the solver log, when the solve raises.
    """

    command: str
    arg_template: str = "{lp} {sol}"
    timeout: float = DEFAULT_TIMEOUT_SECONDS

    def run(
        self, model: milp.MilpModel, workdir: Optional[Path] = None
    ) -> milp.Solution:
        if workdir is not None:
            return self._run_in(model, workdir)
        tmp = Path(tempfile.mkdtemp(prefix="sopwl_"))
        solution = self._run_in(model, tmp)
        shutil.rmtree(tmp)
        return solution

    def _run_in(self, model: milp.MilpModel, workdir: Path) -> milp.Solution:
        workdir.mkdir(parents=True, exist_ok=True)
        lp_path = workdir / f"{model.name}.lp"
        lp_path.write_text(milp.write_lp(model))
        sol_path = workdir / f"{model.name}.adapter.sol"
        args = [self.command] + [
            part.format(lp=str(lp_path), sol=str(sol_path))
            for part in shlex.split(self.arg_template)
        ]
        log_path = workdir / f"{model.name}.solver.log"
        with open(log_path, "w") as log:
            proc = subprocess.run(
                args,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=self.timeout,
            )
        if proc.returncode != 0:
            raise RuntimeError(
                f"solver command {args[0]!r} exited {proc.returncode}; "
                f"log at {log_path}"
            )
        if not sol_path.exists():
            raise RuntimeError(f"solver produced no solution file at {sol_path}")
        return milp.parse_solution(sol_path.read_text(), model)
