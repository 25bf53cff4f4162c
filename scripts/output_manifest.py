#!/usr/bin/env python3
"""Print a manifest of every output of a standard set of ``sopwl`` runs, so
that two checkouts can be shown to write the same bytes.

Runs, each from its own copy of the case file and with relative paths:

- ``solve --mode both --segments 50``, ``validate`` of each mode's solution and
  ``export-lp --mode both --segments 50`` on ``ieee33_4dg`` and
  ``ieee33_4dg_surplus``;
- ``solve`` and ``export-lp`` with ``--mode both`` on the test cases
  ``branching6``, ``twobus``, ``tinyq3`` and ``vlimited3`` at 1, 2 and 3
  segments;
- ``solve --mode sopwl`` alone (the LP screen on its own pwl build) and
  ``validate`` of its solution on ``branching6``, ``tinyq3`` and
  ``vlimited3`` at 3 segments;
- ``solve --mode both --zero-flow-floor 1e-9 --format delimited`` on
  ``branching6`` at 3 segments.

Prints ``<sha256>  <relative path>`` for every file the runs write and for
each run's stdout, stderr and exit status, with ``solve_seconds`` dropped
from every ``run.json``. Usage:

    python3 scripts/output_manifest.py [DIR] > manifest.txt

The outputs are kept in ``DIR`` when it is given (it must not exist yet).
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sopwl.cli import main  # noqa: E402


def _run(name, argv):
    """Run the CLI with ``argv``; keep its stdout, stderr and exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    Path(f"{name}.stdout").write_text(out.getvalue())
    Path(f"{name}.stderr").write_text(err.getvalue())
    Path(f"{name}.exit").write_text(f"{status}\n")


def _runs():
    for case in ("ieee33_4dg", "ieee33_4dg_surplus"):
        shutil.copy(ROOT / "src" / "sopwl" / "cases" / f"{case}.json", f"cases/{case}.json")
        args = ["--case", f"cases/{case}.json", "--segments", "50"]
        _run(f"solve_{case}", ["solve", *args, "--mode", "both", "--out", f"solve_{case}"])
        for mode in ("pwl", "sopwl"):
            solution = f"solve_{case}/{mode}/{case}_{mode}.sol"
            argv = ["validate", *args, "--mode", mode, "--solution", solution]
            _run(f"validate_{case}_{mode}", argv)
        _run(f"export_{case}", ["export-lp", *args, "--mode", "both", "--out", f"export_{case}"])
    for case in ("branching6", "twobus", "tinyq3", "vlimited3"):
        shutil.copy(ROOT / "tests" / "cases" / f"{case}.json", f"cases/{case}.json")
        for segments in ("1", "2", "3"):
            args = ["--case", f"cases/{case}.json", "--mode", "both", "--segments", segments]
            for command in ("solve", "export-lp"):
                run = f"{command}_{case}_{segments}"
                _run(run, [command, *args, "--out", run])
    for case in ("branching6", "tinyq3", "vlimited3"):
        args = ["--case", f"cases/{case}.json", "--mode", "sopwl", "--segments", "3"]
        run = f"solve_sopwl_{case}_3"
        _run(run, ["solve", *args, "--out", run])
        solution = f"{run}/sopwl/{case}_sopwl.sol"
        _run(f"validate_sopwl_{case}_3", ["validate", *args, "--solution", solution])
    run = "solve_branching6_3_floor1e-9_delimited"
    args = ["--case", "cases/branching6.json", "--mode", "both", "--segments", "3"]
    _run(run, ["solve", *args, "--zero-flow-floor", "1e-9", "--format", "delimited", "--out", run])


def _manifest(top):
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        if path.name == "run.json":
            meta = json.loads(path.read_text())
            meta.pop("solve_seconds")
            path.write_text(json.dumps(meta, indent=1) + "\n")
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(top)}")


if __name__ == "__main__":
    keep = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else None
    if keep:
        keep.mkdir(parents=True)
    top = keep or Path(tempfile.mkdtemp(prefix="sopwl_manifest_"))
    (top / "cases").mkdir()
    os.chdir(top)
    try:
        _runs()
        _manifest(top)
    finally:
        os.chdir(ROOT)
        if keep is None:
            shutil.rmtree(top)
