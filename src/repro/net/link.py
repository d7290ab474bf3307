"""Trace-driven bottleneck link with a pluggable queue discipline.

This mirrors the Mahimahi configuration in the paper's testbed: the
receiver's downlink is a variable-rate bottleneck with a drop-tail queue
of fixed byte capacity (100 KB in all experiments). Packets serialize at
the instantaneous trace rate; when the queue is full, arrivals are
dropped from the tail.

The queue itself is a :class:`~repro.net.aqm.QueueDiscipline`. The
default is the paper's :class:`~repro.net.aqm.DropTailQueue` (extracted
to ``net/aqm.py``), which keeps the historical inlined fast path — and
therefore bit-identical single-flow sessions. Any other discipline
(CoDel, PIE, Confucius-style; see :mod:`repro.net.aqm`) is driven
through the generic ``enqueue``/``select_head``/``pop_head`` protocol:
the selected packet stays in the queue while it serializes, exactly like
the drop-tail head, so occupancy accounting is discipline-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.aqm import DEFAULT_QUEUE_CAPACITY_BYTES, DropTailQueue, \
    QueueDiscipline
from repro.net.packet import Packet
from repro.net.trace import BandwidthTrace
from repro.sim.events import EventLoop

__all__ = ["DEFAULT_QUEUE_CAPACITY_BYTES", "DropTailQueue", "Link",
           "LinkStats"]


@dataclass
class LinkStats:
    """Counters and samples collected by a :class:`Link`."""

    enqueued_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    enqueued_bytes: int = 0
    delivered_bytes: int = 0
    dropped_bytes: int = 0
    busy_time: float = 0.0
    #: (time, queue_bytes) samples taken at every enqueue/dequeue.
    occupancy_samples: list[tuple[float, int]] = field(default_factory=list)

    @property
    def drop_rate(self) -> float:
        total = self.enqueued_packets + self.dropped_packets
        return self.dropped_packets / total if total else 0.0


class Link:
    """Single-server bottleneck: serialize packets at the trace rate.

    ``on_deliver(packet)`` fires when a packet finishes serialization;
    ``on_drop(packet)`` fires on any queue drop (tail drop, AQM early
    drop, or in-queue eviction). The serialization time of a packet is
    computed from the trace rate at service start — fine at the paper's
    200 ms trace granularity, where thousands of packets share each rate
    sample.

    ``discipline`` plugs in a non-default queue discipline; ``None``
    keeps the paper's drop-tail queue on the inlined fast path.
    """

    def __init__(self, loop: EventLoop, trace: BandwidthTrace,
                 queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY_BYTES,
                 on_deliver: Optional[Callable[[Packet], None]] = None,
                 on_drop: Optional[Callable[[Packet], None]] = None,
                 discipline: Optional[QueueDiscipline] = None) -> None:
        self.loop = loop
        self.trace = trace
        self.queue = (discipline if discipline is not None
                      else DropTailQueue(queue_capacity_bytes))
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        #: observer taps, each called as ``fn(packet)``: on every offer
        #: (before the queue decides), after ``on_deliver`` and after
        #: ``on_drop``. Observers only — they must not touch the packet.
        self.offer_taps: list[Callable[[Packet], None]] = []
        self.deliver_taps: list[Callable[[Packet], None]] = []
        self.drop_taps: list[Callable[[Packet], None]] = []
        self.stats = LinkStats()
        self._busy = False
        self._service_started_at = 0.0
        # The plain drop-tail queue keeps the historical inlined hot
        # path; every other discipline goes through the generic protocol
        # (and reports in-queue drops through drop_hook).
        self._fast_droptail = type(self.queue) is DropTailQueue
        if not self._fast_droptail:
            self.queue.drop_hook = self._dropped_in_queue
        # Hot-path bound-method caches (one lookup per packet otherwise).
        self._rate_at = trace.rate_at
        self._occupancy = self.stats.occupancy_samples

    @property
    def rate_now(self) -> float:
        """Instantaneous link rate in bits/second."""
        return self.trace.rate_at(self.loop.now)

    @property
    def queued_bytes(self) -> int:
        return self.queue.bytes_queued

    @property
    def queued_packets(self) -> int:
        return len(self.queue)

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link; returns False if dropped on arrival."""
        now = self.loop.now
        packet.t_enter_queue = now
        stats = self.stats
        size = packet.size_bytes
        queue = self.queue
        if self.offer_taps:
            for tap in self.offer_taps:
                tap(packet)
        if self._fast_droptail:
            queued = queue._bytes + size
            if queued > queue.capacity_bytes:     # try_push inlined (hot path)
                self._drop(packet)
                return False
            queue._queue.append(packet)
            queue._bytes = queued
        else:
            if not queue.enqueue(packet, now):
                self._drop(packet)
                return False
            queued = queue.bytes_queued
        stats.enqueued_packets += 1
        stats.enqueued_bytes += size
        self._occupancy.append((now, queued))
        if not self._busy:
            self._start_service()
        return True

    def _dropped_in_queue(self, packet: Packet) -> None:
        """A discipline dropped/evicted a packet it had already queued."""
        self._occupancy.append((self.loop.now, self.queue.bytes_queued))
        self._drop(packet)

    def _drop(self, packet: Packet) -> None:
        packet.dropped = True
        stats = self.stats
        stats.dropped_packets += 1
        stats.dropped_bytes += packet.size_bytes
        if self.on_drop is not None:
            self.on_drop(packet)
        for tap in self.drop_taps:
            tap(packet)

    def _sample_occupancy(self) -> None:
        self._occupancy.append((self.loop.now, self.queue.bytes_queued))

    def _start_service(self) -> None:
        queue = self.queue
        if self._fast_droptail:
            packet = queue._queue[0] if queue._queue else None
        else:
            packet = queue.select_head(self.loop.now)
        if packet is None:
            self._busy = False
            return
        now = self.loop.now
        rate = self._rate_at(now)
        if rate <= 0:
            # Outage: retry when the next trace sample may have capacity.
            self._busy = True
            self.loop.call_later(0.05, self._retry_service, name="link.outage-retry")
            return
        self._busy = True
        self._service_started_at = now
        serialization = packet.size_bytes * 8 / rate
        self.loop.call_later(serialization, self._finish_service, "link.serve")

    def _retry_service(self) -> None:
        self._busy = False
        if len(self.queue):
            self._start_service()

    def _finish_service(self) -> None:
        queue = self.queue
        packet = queue.pop() if self._fast_droptail else queue.pop_head()
        now = self.loop.now
        packet.t_leave_queue = now
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        stats.busy_time += now - self._service_started_at
        self._occupancy.append((now, queue._bytes if self._fast_droptail
                                else queue.bytes_queued))
        if self.on_deliver is not None:
            self.on_deliver(packet)
        if self.deliver_taps:
            for tap in self.deliver_taps:
                tap(packet)
        if self._fast_droptail:
            if queue._queue:
                self._start_service()
            else:
                self._busy = False
        else:
            if len(queue):
                self._start_service()
            else:
                self._busy = False

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of elapsed time the link spent serializing packets."""
        elapsed = horizon if horizon is not None else self.loop.now
        return self.stats.busy_time / elapsed if elapsed > 0 else 0.0
