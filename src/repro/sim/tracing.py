"""Event tracing for the simulation engine.

A :class:`Tracer` observes an :class:`~repro.sim.events.EventLoop` and
records every executed event (time, name) plus any explicit annotations
components emit. Useful when debugging a pipeline interaction ("what
fired between t=1.20 and t=1.25?") without littering the code with
prints. Disabled unless installed, so the hot path stays clean.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.events import Event, EventLoop


@dataclass
class TraceRecord:
    time: float
    name: str
    detail: str = ""


class Tracer:
    """Records executed loop events and explicit annotations."""

    def __init__(self, loop: EventLoop,
                 name_filter: Optional[Callable[[str], bool]] = None,
                 max_records: int = 1_000_000) -> None:
        self.loop = loop
        self.name_filter = name_filter
        self.max_records = max_records
        self.records: list[TraceRecord] = []
        #: records discarded after ``max_records`` was reached — a capped
        #: trace is truncated, not complete, and queries must be able to
        #: tell the difference.
        self.dropped_records = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Subscribe to the loop's observers to record executed events.

        Any number of tracers (with different filters) and other
        observers can watch one loop; each leaves independently.
        """
        if self._after_event not in self.loop.observers:
            self.loop.observe(self._after_event)
        return self

    def uninstall(self) -> None:
        """Stop recording; safe in any order and when not installed."""
        if self._after_event in self.loop.observers:
            self.loop.unobserve(self._after_event)

    def _after_event(self, event: Event) -> None:
        self._record(self.loop.now, event.name)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, time: float, name: str, detail: str = "") -> None:
        if self.name_filter is not None and not self.name_filter(name):
            return
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        self.records.append(TraceRecord(time, name, detail))

    def annotate(self, detail: str, name: str = "annotation") -> None:
        """Record an explicit marker at the current simulation time."""
        self._record(self.loop.now, name, detail)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def between(self, start: float, end: float) -> list[TraceRecord]:
        return [r for r in self.records if start <= r.time <= end]

    def counts(self) -> Counter:
        counter = Counter(r.name for r in self.records)
        if self.dropped_records:
            counter["<dropped>"] = self.dropped_records
        return counter

    def dump(self, limit: int = 50) -> str:
        lines = [f"{r.time:10.6f}  {r.name}  {r.detail}".rstrip()
                 for r in self.records[:limit]]
        if len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more)")
        if self.dropped_records:
            lines.append(f"!! {self.dropped_records} record(s) dropped at "
                         f"max_records={self.max_records}")
        return "\n".join(lines)
