#!/usr/bin/env python3
"""Regenerate ``pinned.json``: cell fingerprints at the default seed.

Run from the repository root after a deliberate behaviour change::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_workloads as bw  # noqa: E402


def main() -> None:
    pinned = {"seed": bw.DEFAULT_SEED}
    for name in ("sweep", "fastpath", "arena"):
        workload = bw.make_workload(name, bw.DEFAULT_SEED)
        workload.setup()
        cells = {}
        for unit in range(workload.units):
            rnd = workload.run_round(unit)
            if rnd.errors:
                raise SystemExit(f"{name}: cells raised {rnd.errors}")
            cells.update(rnd.cells)
        pinned[name] = dict(sorted(cells.items()))
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
