"""Benchmark of the sopwl pipeline: load -> build -> LP -> solve -> check -> sweep.

Run from the repository root:

    python3 perfbench/run.py --workload ieee33-headline --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the checkout it sits in and drives it
only through its public entry points (``sopwl.cli.main``,
``sopwl.network.load_case``, ``sopwl.validation.radial_sweep``), from one
process with one closed-loop client: the next run starts when the previous
one has finished. Workloads:

- ``ieee33-headline``: the bundled ``ieee33_4dg`` case at 50 segments. One run
  is ``sopwl solve --mode both`` and ``sopwl validate`` on each mode's
  solution. The seed does not change this input.
- ``ieee33-surplus``: the same case with every DG's limits scaled x3, the same
  run shape. Here the ordering constraints bind.
- ``feeder-export``: a seeded synthetic radial feeder of 1600 buses. One run
  is ``sopwl export-lp --mode both --segments 10``, then the exact sweep at
  full pickup and nameplate DG output. Nothing is solved.

Set-up (``setup_s``) is the import time plus the median of three rounds of
making the case file, loading it and a small warm-up run. Then runs repeat
until the next one would end after ``--seconds``. Each run's outputs pass a
correctness gate, and a run that fails it counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics ``setup_s``, ``run_s`` (median wall time of a run; the
sample count is ``attempted``) and ``peak_rss_mb``. With ``--trace 1`` the
runs alternate between untraced and traced, and the metrics are per layer:
span times from the traced runs, counts, and the tracing overhead. Everything
the program prints, HiGHS's C-level output included, goes to a per-run log
under ``.bench_out/<workload>/logs/``; the same directory receives
``result.json`` (metrics plus model sizes, solver statistics and versions)
and, when tracing, ``spans.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_ROUNDS = 3
MODES = ("pwl", "sopwl")
# The adapter's default relative MIP gap: the restored load of any returned
# solution lies within this share of the optimum.
RESTORED_REL_TOL = 1e-4


@contextmanager
def output_to(log_path: Path):
    """Send file descriptors 1 and 2 to ``log_path``, so that C-level output
    (HiGHS) lands there as well as Python's."""
    libc = ctypes.CDLL(None)
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    with open(log_path, "ab") as log:
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
            os.close(saved[0])
            os.close(saved[1])


class Ieee33:
    """``sopwl solve --mode both`` and ``sopwl validate`` per mode on the
    33-bus case, optionally with DG limits scaled x3."""

    segments = 50

    def __init__(self, surplus: bool, restored_pu: float):
        self.surplus = surplus
        self.restored_pu = restored_pu

    def case_text(self, seed: int) -> str:
        text = network.bundled_case_path("ieee33_4dg").read_text()
        return cases.surplus_json(text) if self.surplus else text

    def warm_up(self, case_path: Path, out: Path) -> None:
        self._actions(case_path, out, segments=4)

    def run(self, case_path: Path, out: Path) -> dict:
        return {"exit_codes": self._actions(case_path, out, self.segments)}

    def _actions(self, case_path: Path, out: Path, segments: int) -> list[int]:
        common = ["--case", str(case_path), "--segments", str(segments)]
        codes = [cli.main(["solve", *common, "--mode", "both", "--out", str(out)])]
        for m in MODES:
            sol = out / m / f"{case_path.stem}_{m}.sol"
            codes.append(cli.main(["validate", *common, "--mode", m, "--solution", str(sol)]))
        return codes

    def check(self, case_path: Path, out: Path, result: dict, log: str, first: dict) -> list[str]:
        problems = []
        if result["exit_codes"] != [0, 0, 0]:
            problems.append(f"exit codes (solve, validate pwl, validate sopwl) {result['exit_codes']}")
        for m in MODES:
            meta = json.loads((out / m / "run.json").read_text())
            if meta["status"] != "optimal":
                problems.append(f"{m}: status {meta['status']}")
            if meta["violations"] != 0:
                problems.append(f"{m}: {meta['violations']} violated constraints")
            restored = meta["objective_value"]
            if abs(restored - self.restored_pu) > RESTORED_REL_TOL * self.restored_pu:
                problems.append(f"{m}: restored {restored!r} pu, expected {self.restored_pu}")
            result[f"restored_pu.{m}"] = restored
            rows = (out / m / "report.txt").read_text().splitlines()[1:-1]
            unordered = sum(1 for row in rows if row.split()[-1] != "yes")
            result[f"unordered_branches.{m}"] = unordered
        if result["unordered_branches.sopwl"]:
            problems.append(f"sopwl: {result['unordered_branches.sopwl']} branches with unordered fillings")
        if log.count("exact sweep converged in") != len(MODES):
            problems.append("validate did not report a converged sweep for every mode")
        return problems


class FeederExport:
    """``sopwl export-lp --mode both --segments 10`` on a seeded synthetic
    feeder, then the exact sweep at full pickup and nameplate DG output."""

    buses = 1600
    warm_up_buses = 64
    segments = 10

    def case_text(self, seed: int) -> str:
        return cases.feeder_json(seed, self.buses)

    def warm_up(self, case_path: Path, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        small = out / "small_feeder.json"
        small.write_text(cases.feeder_json(0, self.warm_up_buses))
        self._actions(small, out)

    def run(self, case_path: Path, out: Path) -> dict:
        code, sweep = self._actions(case_path, out)
        return {"exit_codes": [code], "sweep": sweep}

    def _actions(self, case_path: Path, out: Path):
        code = cli.main(["export-lp", "--case", str(case_path), "--mode", "both",
                         "--segments", str(self.segments), "--out", str(out)])
        case = network.load_case(case_path)
        injections: dict[int, tuple[float, float]] = {}
        for load in case.loads:
            p, q = injections.get(load.bus, (0.0, 0.0))
            injections[load.bus] = (p - load.p_pu, q - load.q_pu)
        for gen in case.generators:
            p, q = injections.get(gen.bus, (0.0, 0.0))
            injections[gen.bus] = (p + gen.p_max_pu, q + gen.q_max_pu)
        return code, validation.radial_sweep(case, injections)

    def check(self, case_path: Path, out: Path, result: dict, log: str, first: dict) -> list[str]:
        problems = []
        if result["exit_codes"] != [0]:
            problems.append(f"export-lp exit code {result['exit_codes'][0]}")
        sweep = result.pop("sweep")
        result["sweep_iterations"] = sweep.iterations
        if not all(math.isfinite(v) and v > 0 for v in sweep.voltages.values()):
            problems.append("sweep voltages are not finite and positive")
        for m in MODES:
            path = out / f"{case_path.stem}_{m}.lp"
            size = path.stat().st_size
            result[f"lp_bytes.{m}"] = size
            with open(path, "rb") as f:
                head = f.read(2)
                f.seek(-4, os.SEEK_END)
                tail = f.read()
            if head != b"\\ " or tail != b"End\n":
                problems.append(f"{path.name} is not a complete LP file")
        for key in ("lp_bytes.pwl", "lp_bytes.sopwl", "sweep_iterations"):
            if first and first.get(key) != result[key]:
                problems.append(f"{key} {result[key]} differs from the first run's {first.get(key)}")
        return problems


def model_sizes(case_path: Path, segments: int) -> dict[str, dict[str, int]]:
    """Exact size of the model the CLI builds for each mode, from a build
    through the public API with the CLI's default options."""
    from sopwl.distflow import BuildOptions, build_distflow, build_restoration_objective
    from sopwl.milp import BINARY, MilpModel

    case = network.load_case(case_path)
    sizes = {}
    for m in MODES:
        model = MilpModel(name=f"{case.name}_{m}")
        artifacts = build_distflow(model, case, BuildOptions(num_segments=segments, mode=m))
        build_restoration_objective(model, artifacts)
        sizes[m] = {
            "vars": len(model.variables),
            "rows": len(model.constraints),
            "nnz": sum(len(c.terms) for c in model.constraints),
            "binaries": sum(1 for v in model.variables if v.kind == BINARY),
        }
    return sizes


def per_layer_metrics(probe, runs: list[dict], sizes: dict) -> dict:
    """Medians of the span times over the traced runs, the counts of the last
    traced run, and the tracing overhead: the median over pairs of an
    untraced run and the traced run after it of their difference in time."""
    traced = [r for r in runs if r["traced"]]
    times = [tracing.layer_times(probe.spans, r["run"]) for r in traced]
    metrics = {name: statistics.median(t[name] for t in times) for name in times[0]}
    counters = traced[-1]["counters"]
    metrics["network.buses"] = counters.buses
    metrics["milp.lp_bytes"] = counters.lp_bytes
    metrics["milp.violations"] = counters.violations
    metrics["validation.sweep_iters"] = counters.sweep_iters
    for m in MODES:
        for what, value in sizes[m].items():
            metrics[f"distflow.{what}.{m}"] = value
        stats = counters.solver.get(m, {})
        # on a workload that solves nothing: 0 nodes, gap 0 and status -1
        metrics[f"solvers.mip_nodes.{m}"] = stats.get("mip_node_count") or 0
        metrics[f"solvers.mip_gap.{m}"] = stats.get("mip_gap") or 0.0
        metrics[f"solvers.status.{m}"] = stats.get("status", -1)
        unordered, blocks = counters.orderings.get(m, (0, 0))
        metrics[f"validation.blocks.{m}"] = blocks
        metrics[f"validation.unordered_blocks.{m}"] = unordered
        metrics[f"validation.ordered_share.{m}"] = (blocks - unordered) / blocks if blocks else 0.0
    metrics["trace.run_s"] = statistics.median(r["seconds"] for r in traced)
    metrics["trace.overhead_s"] = statistics.median(
        b["seconds"] - a["seconds"] for a, b in zip(runs, runs[1:]) if b["traced"] and not a["traced"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sopwl" / "__init__.py").is_file():
        print(f"error: no sopwl package under {SRC}", file=sys.stderr)
        return 2
    import_s = _import_program()
    workload = WORKLOADS[args.workload]
    wdir = OUT / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    (wdir / "logs").mkdir(parents=True)

    probe = tracing.Probe()
    probe.install()
    try:
        setup_rounds, case_text = [], None
        for i in range(SETUP_ROUNDS):
            start = time.perf_counter()
            text = workload.case_text(args.seed)
            # the CLI names its output files after the case's "name"
            case_path = wdir / f"{json.loads(text)['name']}.json"
            case_path.write_text(text)
            network.load_case(case_path)
            with output_to(wdir / "logs" / "setup.log"):
                workload.warm_up(case_path, wdir / "warm_up")
            setup_rounds.append(time.perf_counter() - start)
            if case_text is not None and text != case_text:
                raise RuntimeError("case generation is not deterministic for a fixed seed")
            case_text = text

        runs: list[dict] = []
        first: dict = {}
        start_all = time.perf_counter()
        while True:
            i = len(runs)
            traced = bool(args.trace) and i % 2 == 1
            out = wdir / "run"
            shutil.rmtree(out, ignore_errors=True)
            log_path = wdir / "logs" / f"run-{i:03d}.log"
            gc.collect()  # every run starts from the same collector state
            probe.begin_run(i, traced)
            with output_to(log_path):
                start = time.perf_counter()
                try:
                    result = workload.run(case_path, out)
                    error = None
                except Exception:
                    result, error = {}, traceback.format_exc()
                seconds = time.perf_counter() - start
                if error:
                    print(error)
            probe.end_run()
            if error:
                problems = [error.strip().splitlines()[-1]]
            else:
                try:
                    problems = workload.check(case_path, out, result, log_path.read_text(), first)
                except (OSError, KeyError, ValueError) as exc:
                    problems = [f"output check failed: {exc!r}"]
            if not first and not problems:
                first = dict(result)
            runs.append({"run": i, "traced": traced, "seconds": seconds, "ok": not problems,
                         "problems": problems, "counters": probe.counters, **result})
            for p in problems:
                print(f"run {i}: {p} (log: {log_path})", file=sys.stderr)
            elapsed = time.perf_counter() - start_all
            typical = statistics.median(r["seconds"] for r in runs)
            if len(runs) >= (2 if args.trace else 1) and elapsed + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        probe.uninstall()

    sizes = model_sizes(case_path, workload.segments)
    if args.trace:
        metrics = per_layer_metrics(probe, runs, sizes)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_rounds),
            "run_s": statistics.median(r["seconds"] for r in runs),
            "peak_rss_mb": peak_rss_mb,
        }
    # names and units of the metrics printed are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = sum(1 for r in runs if not r["ok"])
    summary = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "case": {"file": case_path.name, "sha256": hashlib.sha256(case_text.encode()).hexdigest()},
        "model_sizes": sizes,
        "solver_stats": runs[-1]["counters"].solver,
        "untraced_functions": probe.missing,
        "import_s": import_s,
        "setup_rounds_s": setup_rounds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    records = [{k: v for k, v in r.items() if k != "counters"} for r in runs]
    (wdir / "result.json").write_text(json.dumps(
        {"summary": summary, "context": context, "runs": records}, indent=1) + "\n")
    if args.trace:
        (wdir / "spans.json").write_text(json.dumps(probe.spans_as_json()) + "\n")
    print("context: " + json.dumps(context))
    print(json.dumps(summary))
    return 0


def _import_program() -> float:
    """Import the package from ``src/`` of this checkout; returns the seconds
    the imports took."""
    global numpy, scipy, cli, network, validation, cases, tracing
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import sopwl
    from sopwl import cli, network, validation

    import cases
    import tracing

    if Path(sopwl.__file__).resolve().parent != (SRC / "sopwl").resolve():
        raise ImportError(f"sopwl was imported from {sopwl.__file__}, not from {SRC}")
    return time.perf_counter() - start


WORKLOADS = {
    "ieee33-headline": Ieee33(surplus=False, restored_pu=0.198798),
    "ieee33-surplus": Ieee33(surplus=True, restored_pu=0.3715),
    "feeder-export": FeederExport(),
}

if __name__ == "__main__":
    sys.exit(main())
