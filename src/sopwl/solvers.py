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
from typing import Optional

import numpy as np
import scipy.optimize as sopt

from . import milp

__all__ = ["ScipyMilpAdapter", "SubprocessAdapter"]

DEFAULT_TIMEOUT_SECONDS = 600.0


@dataclass
class ScipyMilpAdapter:
    """Solves the model in process with scipy's HiGHS-backed MILP solver."""

    time_limit: float = DEFAULT_TIMEOUT_SECONDS
    mip_rel_gap: float = 1e-4

    def run(
        self, model: milp.MilpModel, workdir: Optional[Path] = None
    ) -> milp.Solution:
        a = model.arrays
        n = len(a.names)

        c = np.zeros(n)
        np.add.at(c, a.obj_cols, a.obj_coefs)
        if model.objective_sense == "max":
            c *= -1.0

        constraints = []
        if len(a.row_lo):
            constraints = [sopt.LinearConstraint(a.matrix(), a.row_lo, a.row_hi)]

        res = sopt.milp(
            c=c,
            constraints=constraints,
            bounds=sopt.Bounds(a.lower, a.upper) if n else None,
            integrality=a.binary.astype(int) if n else None,
            options={"time_limit": self.time_limit, "mip_rel_gap": self.mip_rel_gap},
        )
        status = {
            0: "optimal",
            1: "error" if res.x is None else "feasible",  # a limit hit, incumbent or not
            2: "infeasible",
            3: "unbounded",
        }.get(res.status, "error")

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
        # snap binaries and clip integrality dust so downstream bound checks
        # see clean values. "+ 0.0" turns a rounded -0.0 into 0.0, and the
        # clip keeps x where it is not beyond a bound, -0.0 included
        x[a.binary] = np.round(x[a.binary]) + 0.0
        x = np.where(x < a.lower, a.lower, x)
        x = np.where(x > a.upper, a.upper, x)
        # recompute the objective from snapped values for consistency, summed
        # term by term in the objective's order
        obj_values = x[a.obj_cols].tolist()
        objective = float(sum(c * v for c, v in zip(a.obj_coefs.tolist(), obj_values)))
        return milp.Solution(status, objective, dict(zip(a.names, x.tolist())), **stats)


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
