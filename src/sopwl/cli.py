"""Command-line entry point: build, solve, export, and validate linearized
DistFlow models.

Subcommands: ``solve``, ``export-lp``, ``validate``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from . import milp
from .distflow import (
    MODE_PWL,
    MODE_SOPWL,
    MODES,
    OBJECTIVES,
    BuildOptions,
    DistflowArtifacts,
    build_distflow,
    build_restoration_objective,
)
from .network import NetworkCase, bundled_case_path, load_case
from .validation import (
    ErrorReport,
    SweepDivergence,
    branch_errors,
    delimited_error,
    filling_dump,
    lift_ordered,
    radial_sweep,
    signed,
)

if TYPE_CHECKING:
    from .solvers import Relaxation, ScipyMilpAdapter


# --mode both runs each of MODES in turn
RUN_MODES = (*MODES, "both")
# each --format: its report's file extension and renderer, and the column
# separator of the comparison under --mode both
_REPORT_FORMS = {
    "table": ("txt", ErrorReport.to_table, "\t"),
    "delimited": ("csv", ErrorReport.to_delimited, ","),
}
REPORT_FORMATS = tuple(_REPORT_FORMS)


@dataclass
class RunConfig:
    """The settings of one run and their defaults; the mode, segment count
    and objective default to :class:`BuildOptions`'. Each command's flags
    store into these fields, and the keys of a ``--config`` file are their
    names."""

    case: str
    mode: str = BuildOptions.mode  # one of RUN_MODES
    num_segments: int = BuildOptions.num_segments
    objective: str = BuildOptions.objective
    timeout: float = milp.DEFAULT_TIMEOUT_SECONDS
    out_dir: Path = Path("sopwl_out")
    # None: each branch's own floor (validation.branch_errors)
    zero_flow_floor: Optional[float] = None
    report_format: str = REPORT_FORMATS[0]

    def __post_init__(self) -> None:
        # a config file can put any JSON value in any field, so check types too
        if not isinstance(self.case, str):
            raise ValueError(f"case must be a string, got {self.case!r}")
        if not isinstance(self.num_segments, int) or isinstance(self.num_segments, bool):
            raise ValueError(f"segments must be an integer, got {self.num_segments!r}")
        if self.num_segments < 1:
            raise ValueError("segments must be >= 1")
        if self.mode not in RUN_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        checked = [("timeout", self.timeout)]
        if self.zero_flow_floor is not None:
            checked.append(("zero-flow-floor", self.zero_flow_floor))
        for flag, value in checked:
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 < value < math.inf):
                raise ValueError(f"{flag} must be a positive finite number, got {value!r}")
        if not isinstance(self.out_dir, (str, Path)):
            raise ValueError(f"output directory must be a string, got {self.out_dir!r}")
        self.out_dir = Path(self.out_dir)
        if self.report_format not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {self.report_format!r}")

    def resolve_case_path(self) -> Path:
        path = Path(self.case)
        if path.exists() and not path.is_dir():
            return path
        try:
            return bundled_case_path(self.case)
        except FileNotFoundError:
            pass
        if path.is_dir():
            raise FileNotFoundError(f"case {self.case!r} is a directory, not a case file")
        raise FileNotFoundError(f"case {self.case!r}: no such file or bundled case")

    def make_adapter(self) -> ScipyMilpAdapter:
        # imported here: only a solve needs HiGHS, and export-lp loads
        # none of scipy
        from .solvers import ScipyMilpAdapter

        return ScipyMilpAdapter(time_limit=self.timeout)


def _build(case: NetworkCase, config: RunConfig, mode: str) -> DistflowArtifacts:
    """The frozen ``mode`` model of ``case``, as its artifacts."""
    options = BuildOptions(
        num_segments=config.num_segments, mode=mode, objective=config.objective
    )
    model = milp.MilpModel(name=f"{case.name}_{mode}")
    artifacts = build_distflow(model, case, options)
    build_restoration_objective(model, artifacts)
    model.freeze()
    return artifacts


def _solution_injections(
    artifacts: DistflowArtifacts, solution: milp.Solution
) -> dict[int, tuple[float, float]]:
    """Net per-bus injections implied by a solved model, for the exact sweep."""
    injections: dict[int, tuple[float, float]] = {}
    case = artifacts.case
    x = solution.x
    for gen, (gp, gq) in zip(case.generators, x[artifacts.gen].tolist()):
        p, q = injections.get(gen.bus, (0.0, 0.0))
        injections[gen.bus] = (p + gp, q + gq)
    for load, beta in zip(case.loads, x[artifacts.pickup].tolist()):
        p, q = injections.get(load.bus, (0.0, 0.0))
        injections[load.bus] = (p - beta * load.p_pu, q - beta * load.q_pu)
    return injections


@contextmanager
def _output_to(log_path: Path):
    """Send file descriptors 1 and 2 to ``log_path``, so that what HiGHS
    prints from C lands there and not on the user's terminal."""
    libc = ctypes.CDLL(None)
    libc.fflush.argtypes = [ctypes.c_void_p]
    libc.fflush.restype = ctypes.c_int
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    try:
        with open(log_path, "wb") as log:
            os.dup2(log.fileno(), 1)
            os.dup2(log.fileno(), 2)
            try:
                yield
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                libc.fflush(None)
                os.dup2(saved[0], 1)
                os.dup2(saved[1], 2)
    finally:
        os.close(saved[0])
        os.close(saved[1])


def _pwl_answer(
    pwl: DistflowArtifacts, relaxation: Relaxation, adapter: ScipyMilpAdapter
) -> milp.Solution:
    """The pwl model's answer: its LP relaxation's stage-1 point, or its
    MILP's when that point breaks a row.

    The sign binaries ``z_pos``/``z_neg`` only split each flow into
    ``pos - neg``. So when the relaxation's optimum never uses both signs of
    one flow, that point with its sign binaries set is feasible for the MILP,
    and its objective is the relaxation's bound ``U``: it is a MILP optimum.
    It is accepted when ``check_solution`` finds no violated row; otherwise
    the MILP is solved. The accepted point is stage 1's vertex, which
    optimises restoration alone, never a loss-minimising stage-2 point: that
    one comes out ordered, and plain PWL's unordered fillings are what the
    comparison with sopwl shows."""
    if relaxation.solution.status == "optimal":
        solution = signed(relaxation.solution, pwl.blocks.values())
        if not milp.check_solution(pwl.model, solution):
            return solution
    return milp.solve(pwl.model, adapter)


def _sopwl_answer(
    artifacts: DistflowArtifacts,
    pwl: DistflowArtifacts,
    relaxation: Relaxation,
    adapter: ScipyMilpAdapter,
    pwl_solution: Optional[milp.Solution] = None,
) -> tuple[milp.Solution, str]:
    """The sopwl model's answer and the name of the path that gave it, the
    first of three:

    - ``lifted``: ``pwl_solution``, the pwl run's answer under
      ``--mode both``, lifted when every filling in it is ordered;
    - ``lp_screen``: a point of ``relaxation``, the LP relaxation of the pwl
      model ``pwl``, whose optimum ``U`` bounds the sopwl optimum. Stage 2
      keeps the restoration within 1e-7 * max(1, |U|) of ``U`` and minimises
      the squared currents, which fills each block's segments in slope order
      unless another row stops it. The point, with its sign binaries set, is
      accepted only when ``lift_ordered`` finds every block ordered and the
      sopwl model's ``check_solution`` finds no violated row;
    - ``milp``: the sopwl MILP."""
    if pwl_solution is not None:
        lifted = lift_ordered(pwl_solution, artifacts)
        if lifted is not None:
            return lifted, "lifted"
    relaxed = relaxation.refine(pwl.isqr)
    if relaxed.status == "optimal":
        screened = lift_ordered(signed(relaxed, pwl.blocks.values()), artifacts)
        if screened is not None and not milp.check_solution(artifacts.model, screened):
            return screened, "lp_screen"
    return milp.solve(artifacts.model, adapter), "milp"


def _run_one_mode(
    config: RunConfig,
    artifacts: DistflowArtifacts,
    answer: Callable[[], tuple[milp.Solution, Optional[str]]],
    carried: float = 0.0,
) -> tuple[int, Optional[ErrorReport], Optional[milp.Solution]]:
    """Solve and report the model of ``artifacts``: ``answer()`` gives its
    solution and sopwl path, and ``solve_seconds`` is the time that call
    takes plus ``carried``. What the solver prints goes to
    ``<out>/<mode>/solver.log``. Returns the exit status, the error report
    (None on failure) and the solution (None when the solver raised)."""
    mode = artifacts.options.mode
    model = artifacts.model
    out = config.out_dir / mode
    out.mkdir(parents=True, exist_ok=True)
    # run.json has these keys on every exit; what needs a point stays null
    meta = {
        "case": artifacts.case.name,
        "mode": mode,
        "segments": config.num_segments,
        "objective_variant": config.objective,
        "status": "error",
        **dict.fromkeys(["sopwl_path", "objective_value", "solve_seconds", "mip_node_count"]),
        **dict.fromkeys(["mip_gap", "mip_dual_bound", "max_e_p_percent", "violations"]),
        **model.arrays.sizes(),
    }
    run_json = out / "run.json"
    try:
        with _output_to(out / "solver.log"):
            start = time.perf_counter()
            solution, path = answer()
            seconds = time.perf_counter() - start
    except Exception as exc:
        print(f"[{mode}] solver failure: {exc}", file=sys.stderr)
        run_json.write_text(json.dumps(meta, indent=1) + "\n")
        return 1, None, None
    solution = replace(solution, solve_seconds=carried + seconds)
    meta.update(
        status=solution.status, sopwl_path=path, solve_seconds=solution.solve_seconds,
        mip_node_count=solution.mip_node_count, mip_gap=solution.mip_gap,
        mip_dual_bound=solution.mip_dual_bound,
    )
    (out / f"{model.name}.sol").write_text(milp.format_solution(solution, model))
    if solution.status not in ("optimal", "feasible"):
        print(f"[{mode}] solve ended with status {solution.status}", file=sys.stderr)
        run_json.write_text(json.dumps(meta, indent=1) + "\n")
        return 1, None, solution

    violations = milp.check_solution(model, solution)
    for tag, gap in violations:
        print(f"[{mode}] constraint {tag} violated by {gap:.3e}", file=sys.stderr)

    report = branch_errors(solution, artifacts, zero_flow_floor=config.zero_flow_floor)
    ext, render, _ = _REPORT_FORMS[config.report_format]
    text = render(report)
    (out / f"report.{ext}").write_text(text)
    (out / "fillings.txt").write_text(filling_dump(solution, artifacts))
    meta.update(
        objective_value=solution.objective_value, max_e_p_percent=report.max_e_p,
        violations=len(violations),
    )
    run_json.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"[{mode}] status={solution.status} objective={solution.objective_value:.6f}")
    print(text, end="")
    status = 0 if not violations else 1
    return status, report, solution


def cmd_solve(config: RunConfig) -> int:
    case = load_case(config.resolve_case_path())
    modes = MODES if config.mode == "both" else (config.mode,)
    # every answer rests on the pwl model's LP relaxation, so pwl is built
    # for every mode; --mode sopwl alone builds it for the LP screen only
    pwl = _build(case, config, MODE_PWL)
    sopwl = _build(case, config, MODE_SOPWL) if MODE_SOPWL in modes else None
    adapter = config.make_adapter()
    # solved once, by the first run, inside its solver.log and its clock
    relaxation = functools.cache(lambda: adapter.relax(pwl.model))
    reports = {}
    exit_status = 0
    pwl_solution = None  # the pwl run's answer, which sopwl lifts
    if MODE_PWL in modes:
        exit_status, reports[MODE_PWL], pwl_solution = _run_one_mode(
            config, pwl, lambda: (_pwl_answer(pwl, relaxation(), adapter), None)
        )
    if sopwl is not None:
        # sopwl's solve_seconds also covers the pwl run its answer rests on
        carried = pwl_solution.solve_seconds if pwl_solution is not None else 0.0
        status, reports[MODE_SOPWL], _ = _run_one_mode(
            config,
            sopwl,
            lambda: _sopwl_answer(sopwl, pwl, relaxation(), adapter, pwl_solution),
            carried,
        )
        exit_status = max(exit_status, status)
    if config.mode == "both" and None not in reports.values():
        ext, _, sep = _REPORT_FORMS[config.report_format]
        lines = [sep.join(["feeder", "E_p_pwl", "E_p_sopwl", "E_q_pwl", "E_q_sopwl"])]
        pwl_rec = {r.branch_key: r for r in reports[MODE_PWL].records}
        for r in reports[MODE_SOPWL].records:
            p = pwl_rec[r.branch_key]
            errors = map(delimited_error, [p.e_p, r.e_p, p.e_q, r.e_q])
            lines.append(sep.join([r.branch_key, *errors]))
        (config.out_dir / f"comparison.{ext}").write_text("\n".join(lines) + "\n")
    return exit_status


def cmd_export_lp(config: RunConfig) -> int:
    case = load_case(config.resolve_case_path())
    modes = MODES if config.mode == "both" else (config.mode,)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    # One build: the pwl model is the sopwl model without its ordering
    # binaries and the rows that hold them, with the same names, tags,
    # coefficients and order, so its file is that view of the sopwl model
    # (a pwl build has no ordering binaries to leave out).
    artifacts = _build(case, config, MODE_SOPWL if MODE_SOPWL in modes else MODE_PWL)
    dropped = {MODE_PWL: artifacts.ordering, MODE_SOPWL: ()}
    views = [(f"{case.name}_{mode}", dropped[mode]) for mode in modes]
    chunks = milp.lp_view_chunks(artifacts.model, views)  # checks: no file when it fails
    paths = [config.out_dir / f"{name}.lp" for name, _ in views]
    # each file is written under a temporary name and renamed when whole,
    # so that a failed export leaves no cut-short file
    parts = [path.with_name(path.name + ".part") for path in paths]
    try:
        with ExitStack() as stack:
            files = [stack.enter_context(open(part, "w")) for part in parts]
            for pieces in chunks:
                for f, piece in zip(files, pieces):
                    f.write(piece)
        for part, path in zip(parts, paths):
            os.replace(part, path)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    for path in paths:
        print(path)
    return 0


def cmd_validate(config: RunConfig, solution_path: Path) -> int:
    case = load_case(config.resolve_case_path())
    if config.mode == "both":
        raise ValueError("validate requires a single mode")
    artifacts = _build(case, config, config.mode)
    model = artifacts.model
    solution = milp.parse_solution(solution_path.read_text(), model)
    if solution.status not in ("optimal", "feasible"):
        print(f"solution status is {solution.status}; nothing to validate")
        return 1
    if solution.missing:
        print(f"{solution.missing} variables missing from the solution, read as 0")

    violations = milp.check_solution(model, solution)
    for tag, gap in violations:
        print(f"VIOLATED {tag} by {gap:.3e}")

    report = branch_errors(solution, artifacts, zero_flow_floor=config.zero_flow_floor)
    print(report.to_table(), end="")

    try:
        sweep = radial_sweep(case, _solution_injections(artifacts, solution))
    except SweepDivergence as exc:
        print(
            f"exact sweep did not converge in {len(exc.trace)} iterations "
            f"(last voltage change {exc.trace[-1]:.6e} pu)"
        )
        return 1
    print(f"exact sweep converged in {sweep.iterations} iterations")
    print(
        f"root slack injection: P={sweep.root_injection[0]:.6e} pu, "
        f"Q={sweep.root_injection[1]:.6e} pu"
    )
    linearized = solution.x[artifacts.voltage].tolist()
    dev = max(
        abs(sweep.voltages[bus.id] ** 2 - v) for bus, v in zip(case.buses, linearized)
    )
    print(f"max |V^2 deviation| linearized vs exact: {dev:.6e} pu^2")
    return 0 if not violations else 1


def _add_command(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """The subcommand ``name`` with the run-setting flags. A flag stores its
    value under its ``RunConfig`` field and only when it is given, so a
    setting left out takes ``RunConfig``'s default."""
    parser = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    parser.add_argument("--case", required=True, help="case file path or bundled case name")
    parser.add_argument("--mode", choices=RUN_MODES)
    parser.add_argument("--segments", type=int, dest="num_segments", metavar="SEGMENTS")
    parser.add_argument("--objective", choices=OBJECTIVES)
    parser.add_argument("--timeout", type=float)
    parser.add_argument("--out", dest="out_dir", metavar="OUT")
    parser.add_argument(
        "--zero-flow-floor",
        type=float,
        help="flow magnitude (pu) below which a branch's error is not reported "
        "(default: each branch's seg_width * sqrt(12.5))",
    )
    parser.add_argument("--format", dest="report_format", choices=REPORT_FORMATS)
    parser.add_argument("--config", help="JSON config file overriding flags")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    keys = {f.name for f in fields(RunConfig)}
    given = vars(args)
    settings = {key: value for key, value in given.items() if key in keys}
    if given.get("config"):
        overrides = json.loads(Path(given["config"]).read_text())
        if not isinstance(overrides, dict):
            raise ValueError(
                f"config file must hold a JSON object, not a {type(overrides).__name__}"
            )
        unknown = set(overrides) - keys
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(overrides)
    return RunConfig(**settings)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sopwl",
        description="Piecewise-linearized DistFlow models with ordered-filling "
        "(self-optimal) constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "solve", "build and solve, then report errors")
    _add_command(sub, "export-lp", "write the LP file without solving")
    p_val = _add_command(sub, "validate", "re-check a solution file against the model")
    p_val.add_argument("--solution", required=True, help="solution file to validate")

    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "solve":
            return cmd_solve(config)
        if args.command == "export-lp":
            return cmd_export_lp(config)
        return cmd_validate(config, Path(args.solution))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
