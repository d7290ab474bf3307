"""Time one cold set-up of a workload in a fresh interpreter.

Prints the seconds from before the first ``repro`` import to the end of
``setup()`` (trace generation plus the first session or fleet build),
normalised to the reference host by the calibration kernel timed right
after it (see host_speed.py). ``run.py`` runs this several times and
reports the median as ``setup_s``::

    python3 perfbench/setup_probe.py sweep 1
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bench_workloads as bw
    bw.make_workload(name, seed).setup()
    elapsed = perf_counter() - t0
    # Imported only now, so that the modules it pulls in (asyncio) are
    # timed as part of the set-up, as a user's first import pays them.
    import host_speed
    print(elapsed * host_speed.REF_KERNEL_S / host_speed.kernel_s())


if __name__ == "__main__":
    main()
