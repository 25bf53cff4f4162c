"""Spans and counters recorded from outside the program.

:class:`Probe` replaces the public functions that ``sopwl.cli`` and
``sopwl.milp`` call, at the module attributes they are looked up by, with
wrappers. Every wrapper records the few counters the correctness gate and the
result need (model mode, solver statistics, LP bytes, violations, orderings).
Only while :attr:`Probe.recording` is true does a wrapper also record a span:
name, start, end, parent and the run it belongs to. Spans stay in memory
until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

from sopwl import cli, milp, network, solvers, validation

# Layers whose spans have no traced children, so that their span time is their
# self time.
LEAF_TIMES = {
    "network.load_case_s": ("network.load_case",),
    "distflow.build_s": ("distflow.build", "distflow.objective", "distflow.freeze"),
    "milp.write_lp_s": ("milp.write_lp",),
    "milp.parse_s": ("milp.parse_solution",),
    "milp.check_s": ("milp.check_solution",),
    "validation.branch_errors_s": ("validation.branch_errors",),
    "validation.filling_dump_s": ("validation.filling_dump",),
    "validation.sweep_s": ("validation.radial_sweep",),
}

MODES = ("pwl", "sopwl")
LAYERS = ("network", "distflow", "milp", "solvers", "validation", "cli")


@dataclass
class Span:
    run: int
    name: str
    start: float
    parent: Optional[int]
    mode: Optional[str] = None
    end: float = 0.0


@dataclass
class RunCounters:
    """Counters of one run, reset by :meth:`Probe.begin_run`."""

    buses: int = 0
    lp_bytes: int = 0
    violations: int = 0
    sweep_iters: int = 0
    # mode -> {"status", "mip_node_count", "mip_gap", "mip_dual_bound"}
    solver: dict[str, dict[str, Any]] = field(default_factory=dict)
    # mode -> (unordered blocks, blocks)
    orderings: dict[str, tuple[int, int]] = field(default_factory=dict)


class Probe:
    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Span] = []
        self.counters = RunCounters()
        self._run = -1
        self._stack: list[int] = []
        self._mode: Optional[str] = None
        self._model_modes: dict[int, str] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        self._patch(cli, "main", "cli.main")
        for owner in (cli, network):
            self._patch(owner, "load_case", "network.load_case", after=self._count_buses)
        self._patch(cli, "build_distflow", "distflow.build", before=self._note_mode)
        self._patch(cli, "build_restoration_objective", "distflow.objective")
        self._patch(milp.MilpModel, "freeze", "distflow.freeze")
        self._patch(milp, "solve", "milp.solve")
        self._patch(milp, "write_lp", "milp.write_lp", after=self._count_lp_bytes)
        self._patch(milp, "parse_solution", "milp.parse_solution")
        self._patch(milp, "check_solution", "milp.check_solution", after=self._count_violations)
        self._patch(solvers.ScipyMilpAdapter, "run", "solvers.run", before=self._enter_solver)
        # solvers calls HiGHS as ``sopt.milp``, with ``sopt`` the scipy.optimize module
        self._patch(getattr(solvers, "sopt", None), "milp", "solvers.highs", after=self._solver_stats)
        self._patch(cli, "branch_errors", "validation.branch_errors", after=self._count_ordering)
        self._patch(cli, "filling_dump", "validation.filling_dump")
        for owner in (cli, validation):
            self._patch(owner, "radial_sweep", "validation.radial_sweep", after=self._count_sweep)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _patch(
        self,
        owner: object,
        attr: str,
        span: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        if not hasattr(owner, attr):
            # the program no longer calls this function by this name: its span
            # and counters stay empty, and the end-to-end runs go on
            self.missing.append(span)
            return
        orig = getattr(owner, attr)
        probe = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if probe.recording:
                result = probe._timed(span, orig, args, kwargs)
            else:
                result = orig(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _timed(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        mode = self._mode if name.startswith("solvers.") else None
        parent = self._stack[-1] if self._stack else None
        span = Span(run=self._run, name=name, start=0.0, parent=parent, mode=mode)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- counters ----------------------------------------------------------

    def _note_mode(self, args: tuple) -> None:
        model, _case, options = args
        self._model_modes[id(model)] = options.mode

    def _enter_solver(self, args: tuple) -> None:
        _adapter, model = args[:2]
        self._mode = self._model_modes.get(id(model))

    def _solver_stats(self, args: tuple, res: Any) -> None:
        self.counters.solver[self._mode] = {
            "status": int(res.status),
            "mip_node_count": getattr(res, "mip_node_count", None),
            "mip_gap": getattr(res, "mip_gap", None),
            "mip_dual_bound": getattr(res, "mip_dual_bound", None),
        }

    def _count_buses(self, args: tuple, case: Any) -> None:
        self.counters.buses = len(case.buses)

    def _count_lp_bytes(self, args: tuple, text: str) -> None:
        self.counters.lp_bytes += len(text)

    def _count_violations(self, args: tuple, violations: list) -> None:
        self.counters.violations += len(violations)

    def _count_ordering(self, args: tuple, report: Any) -> None:
        blocks = 2 * len(report.records)
        ordered = sum(r.eso_ok_p + r.eso_ok_q for r in report.records)
        self.counters.orderings[report.mode] = (blocks - ordered, blocks)

    def _count_sweep(self, args: tuple, sweep: Any) -> None:
        self.counters.sweep_iters += sweep.iterations

    # -- runs --------------------------------------------------------------

    def begin_run(self, run: int, recording: bool) -> None:
        self._run = run
        self.recording = recording
        self.counters = RunCounters()
        self._model_modes.clear()
        self._mode = None

    def end_run(self) -> None:
        self.recording = False

    def spans_as_json(self) -> list[dict]:
        return [{"id": i, **asdict(s)} for i, s in enumerate(self.spans)]


def layer_times(spans: list[Span], run: int) -> dict[str, float]:
    """Per-layer times of one traced run, in seconds.

    A span's self time is its duration minus the durations of its direct
    children. HiGHS (``solvers.highs``) is kept apart from the self time of
    the ``solvers`` layer that calls it. The layers' self times and
    ``solvers.highs_s`` add up to ``trace.spanned_s``, the time spent inside
    the program.
    """
    dur: dict[int, float] = {}
    child: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.run == run:
            dur[i] = s.end - s.start
            if s.parent is not None:
                child[s.parent] += dur[i]
    total: dict[tuple[str, Optional[str]], float] = defaultdict(float)
    self_t: dict[tuple[str, Optional[str]], float] = defaultdict(float)
    spanned = 0.0
    for i, d in dur.items():
        s = spans[i]
        total[s.name, s.mode] += d
        self_t[s.name, s.mode] += d - child[i]
        if s.parent is None:
            spanned += d

    def of(table, name, mode=None):
        if mode is not None:
            return table[name, mode]
        return sum(v for (n, _), v in table.items() if n == name)

    out = {metric: sum(of(total, n) for n in names) for metric, names in LEAF_TIMES.items()}
    out["milp.solve_s"] = of(total, "milp.solve")
    for m in MODES:
        out[f"solvers.run_s.{m}"] = of(total, "solvers.run", m)
        out[f"solvers.highs_s.{m}"] = of(total, "solvers.highs", m)
        out[f"solvers.run_self_s.{m}"] = of(self_t, "solvers.run", m)
    out["solvers.highs_s"] = of(total, "solvers.highs")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for (n, _), v in self_t.items()
            if n.split(".")[0] == layer and n != "solvers.highs"
        )
    out["trace.spanned_s"] = spanned
    return out
