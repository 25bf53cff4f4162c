"""Solver backends: an in-process HiGHS adapter (via scipy) and a generic
subprocess adapter for any external MILP solver speaking LP files.

Both produce the same textual solution format consumed by
:func:`sopwl.milp.parse_solution`:

    optimal|feasible|infeasible|unbounded|error
    obj <value>
    <name> <value>
    ...
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.optimize as sopt

from .milp import MilpModel

__all__ = ["ScipyMilpAdapter", "SubprocessAdapter", "format_solution_text"]

DEFAULT_TIMEOUT_SECONDS = 600.0


def format_solution_text(status: str, objective: float, values: dict[str, float]) -> str:
    lines = [status, f"obj {objective!r}"]
    lines.extend(f"{name} {val!r}" for name, val in values.items())
    return "\n".join(lines) + "\n"


@dataclass
class ScipyMilpAdapter:
    """Solves the model in process with scipy's HiGHS-backed MILP solver."""

    time_limit: float = DEFAULT_TIMEOUT_SECONDS
    mip_rel_gap: float = 1e-4

    def run(self, model: MilpModel, lp_path: Path, workdir: Path) -> str:
        a = model.arrays
        n = len(a.names)

        c = np.zeros(n)
        np.add.at(c, a.obj_cols, a.obj_coefs)
        if model.objective_sense == "max":
            c *= -1.0

        constraints = []
        if len(a.row_lo):
            constraints = [sopt.LinearConstraint(a.matrix(), a.row_lo, a.row_hi)]

        bounds = sopt.Bounds(a.lower, a.upper)
        integrality = a.binary.astype(int)

        res = sopt.milp(
            c=c,
            constraints=constraints,
            bounds=bounds if n else None,
            integrality=integrality if n else None,
            options={
                "time_limit": self.time_limit,
                "mip_rel_gap": self.mip_rel_gap,
            },
        )

        if res.status == 0:
            status = "optimal"
        elif res.status == 1 and res.x is not None:
            status = "feasible"  # hit time limit with an incumbent
        elif res.status == 2:
            status = "infeasible"
        elif res.status == 3:
            status = "unbounded"
        else:
            status = "error"

        if res.x is None or status in ("infeasible", "unbounded", "error"):
            return format_solution_text(status, 0.0, {})

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
        return format_solution_text(status, objective, dict(zip(a.names, x.tolist())))


@dataclass
class SubprocessAdapter:
    """Runs an external solver executable.

    ``arg_template`` is a shell-style template; ``{lp}`` and ``{sol}`` expand
    to the LP input path and the expected solution output path. The external
    command must write the textual solution format to ``{sol}``.
    """

    command: str
    arg_template: str = "{lp} {sol}"
    timeout: float = DEFAULT_TIMEOUT_SECONDS

    def run(self, model: MilpModel, lp_path: Path, workdir: Path) -> str:
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
        return sol_path.read_text()
