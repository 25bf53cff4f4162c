"""The benchmark's instrumentation (``perfbench/tracing.py``) still finds
every function it wraps but HiGHS itself, and its spans still come out of a
real run."""

import importlib.util
import sys
from pathlib import Path

from sopwl.cli import main

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_probe_wraps_every_function_and_records_spans(tmp_path, cases_dir, monkeypatch):
    probe = _tracing(monkeypatch).Probe()
    probe.install()
    try:
        # HiGHS runs on the adapter's own HiGHS session, not through
        # scipy.optimize.milp, so the tracer's HiGHS hook finds nothing to
        # wrap until the program times its own stages (ROADMAP item 4)
        assert probe.missing == ["solvers.highs"]
        probe.begin_run(0, recording=True)
        # vlimited3's pwl LP relaxation uses both signs of a flow, so the
        # pwl run falls back to its MILP
        args = ["--case", str(cases_dir / "vlimited3.json"), "--segments", "2", "--mode", "both"]
        assert main(["solve", *args, "--out", str(tmp_path)]) == 0
        probe.end_run()
    finally:
        probe.uninstall()
    names = {span.name for span in probe.spans}
    # sopwl lifts the pwl optimum, so the one MILP run is pwl's
    assert {span.mode for span in probe.spans if span.name == "solvers.run"} == {"pwl"}
    assert {"distflow.build", "validation.branch_errors"} <= names
