"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

On a shared host the same simulation round can take anywhere from 1.2 s
to 2.5 s within a few minutes, because neighbours on the host come and
go. Timing a fixed kernel, which shares no code with the program, right
before and right after each round measures the host's speed at that
moment. Dividing the round's time by the kernel's time cancels that
speed. Scaling by :data:`REF_KERNEL_S` then expresses the result in
reference-host seconds.

A change to the program moves the normalised time exactly as it moves
the raw time. A change to the host moves neither.

An open loop that sleeps between timer wake-ups drifts with the host
differently: its CPU time follows what each wake-up costs after an idle
gap, which the hot kernel does not see. :func:`wake_kernel_s` measures
that cost with a fixed sleep/wake loop on a fresh event loop, and
:data:`REF_WAKE_S` is its reference-host value.
"""

from __future__ import annotations

import asyncio
import heapq
from time import perf_counter, process_time

#: the kernel's time on the reference host (2-core x86-64 KVM guest,
#: Python 3.11, unloaded); normalised times are in these host-seconds.
REF_KERNEL_S = 0.085
#: the wake-up kernel's CPU time on the reference host.
REF_WAKE_S = 0.0175


class _Event:
    __slots__ = ("t", "n")

    def __init__(self, t: float, n: int) -> None:
        self.t = t
        self.n = n


def _kernel() -> float:
    # Integer arithmetic, heap traffic, small-object allocation and dict
    # updates: the mix an event-driven simulator spends its time on.
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(30_000):
        heapq.heappush(heap, ((i * 0.37) % 11.0, i, _Event(i * 0.5, i)))
        if len(heap) > 256:
            t, _, ev = heapq.heappop(heap)
            key = ev.n & 1023
            table[key] = table.get(key, 0.0) + t
            total += t + ev.t
    return total + acc


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes right now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


async def _wake_ups(n: int) -> int:
    # A 1 ms timer and a sliver of work per wake-up: the rhythm of a
    # paced sender on a real-time clock.
    acc = 0
    for _ in range(n):
        await asyncio.sleep(0.001)
        for j in range(200):
            acc += j * j % 7
    return acc


def wake_kernel_s() -> float:
    """Process CPU seconds 150 timer wake-ups take right now."""
    c0 = process_time()
    asyncio.run(_wake_ups(150))
    return process_time() - c0
