#!/usr/bin/env python3
"""Run the 33-bus service-restoration comparison: plain PWL vs the
ordered-filling (SO-PWL) constraint set, at 50 segments per block, on the
bundled case and on its surplus-DG variant.

On ``ieee33_4dg`` the DG limits bind and plain PWL already returns ordered
fillings, so the SO-PWL run lifts the PWL optimum. On ``ieee33_4dg_surplus``
(DG limits x3) plain PWL returns unordered fillings, and the SO-PWL run is
certified by the two-stage LP screen instead of the ordering MILP.

Writes per-mode reports, filling-state dumps, and a side-by-side error
comparison under ``<out>/<case>/`` (default ``experiment_out``).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sopwl.cli import main

CASES = ("ieee33_4dg", "ieee33_4dg_surplus")

if __name__ == "__main__":
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "experiment_out")
    status = 0
    for case in CASES:
        status = max(
            status,
            main(
                [
                    "solve",
                    "--case", case,
                    "--mode", "both",
                    "--segments", "50",
                    "--out", str(out / case),
                ]
            ),
        )
    sys.exit(status)
