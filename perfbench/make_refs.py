#!/usr/bin/env python3
"""Write the golden sweep table ``perfbench/ref/sweep.csv``.

Runs every demo sweep at every grid offset the benchmark's seed can pick
and stores the rows without the eta column.  Run it from the root of a
checkout whose outputs are trusted, and only when a change of the sweep
output is intended and documented:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import SWEEP_OFFSETS, SWEEPS, run_cli, sweep_argv  # noqa: E402

FIELDS = ("sweep", "offset", "kappa", "branch", "alpha", "com_norm", "energy")


def main() -> int:
    checks.REF_DIR.mkdir(exist_ok=True)
    with open(checks.SWEEP_REF, "w", newline="") as handle:
        writer = csv.DictWriter(handle, FIELDS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for offset in range(SWEEP_OFFSETS):
            for name, *_ in SWEEPS:
                code, out, err = run_cli(sweep_argv(name, offset))
                if code != 0 or err:
                    sys.stderr.write(f"sweep {name} offset {offset} failed: {err}")
                    return 1
                for rec in csv.DictReader(out.splitlines()):
                    writer.writerow(dict(rec, sweep=name, offset=offset))
    return 0


if __name__ == "__main__":
    sys.exit(main())
