"""Self-profiling for the event loop: who burns the simulator's time?

A :class:`LoopProfiler` attached to an :class:`~repro.sim.events.EventLoop`
counts every executed callback by event name and component (the dotted
prefix of the name: ``sender.capture`` -> ``sender``) and buckets each
callback's *wall* time into fixed log-scale buckets. Counts are fully
deterministic for a fixed seed; wall times describe the host, not the
simulation, and never feed back into it — profiling a fixed-seed run
leaves its results bit-identical.

Cost model: when no profiler is attached the loop's one dispatch loop
pays a single ``is None`` branch per event; ``scripts/check_perf.py``
gates the profiler-off session bench against its plain twin at a tight
factor to keep it that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: wall-time bucket upper bounds (seconds): 1us .. 10ms, then +Inf.
PROFILE_BUCKETS_S = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

#: display name for events scheduled without a name.
UNNAMED = "(unnamed)"


@dataclass(slots=True)
class ProfileEntry:
    """Aggregate stats of one event name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    buckets: list = field(default_factory=lambda: [0] * (len(PROFILE_BUCKETS_S) + 1))

    def observe(self, elapsed: float) -> None:
        self.count += 1
        self.total_s += elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed
        for i, bound in enumerate(PROFILE_BUCKETS_S):
            if elapsed <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    @property
    def component(self) -> str:
        """Component prefix of the event name (before the first dot)."""
        name = self.name
        return name.split(".", 1)[0] if "." in name else name


class LoopProfiler:
    """Per-event-name callback counters + wall-time histogram.

    Attach with :meth:`~repro.sim.events.EventLoop.set_profiler` (or by
    assigning ``loop.profiler``); it records from the next event on.
    Read the entries (or :meth:`render`) afterwards.
    """

    def __init__(self) -> None:
        self.entries: dict[str, ProfileEntry] = {}
        #: total callbacks observed (== loop events executed while attached).
        self.total_events = 0
        #: total wall seconds spent inside callbacks while attached.
        self.total_wall_s = 0.0

    def record(self, name: str, elapsed: float) -> None:
        """One executed callback (called from the loop's dispatch)."""
        key = name or UNNAMED
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = ProfileEntry(key)
        entry.observe(elapsed)
        self.total_events += 1
        self.total_wall_s += elapsed

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def by_total_time(self) -> list[ProfileEntry]:
        """Entries ordered hottest-first (ties broken by name: stable)."""
        return sorted(self.entries.values(),
                      key=lambda e: (-e.total_s, e.name))

    def component_totals(self) -> dict[str, tuple[int, float]]:
        """Per-component ``(count, wall seconds)`` aggregates."""
        out: dict[str, tuple[int, float]] = {}
        for entry in self.entries.values():
            count, total = out.get(entry.component, (0, 0.0))
            out[entry.component] = (count + entry.count,
                                    total + entry.total_s)
        return out

    def counts(self) -> dict[str, int]:
        """Deterministic per-name callback counts (fixed for a seed)."""
        return {name: e.count for name, e in sorted(self.entries.items())}

    def render(self, top: int = 15) -> str:
        """Fixed-width profile table for ``repro trace --profile``."""
        lines = [f"event-loop profile: {self.total_events} callbacks, "
                 f"{self.total_wall_s * 1000:.2f} ms wall"]
        header = (f"  {'event':<22}{'count':>9}{'total ms':>10}"
                  f"{'mean us':>9}{'max us':>9}  buckets(<=1us..>10ms)")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        entries = self.by_total_time()
        for entry in entries[:top]:
            buckets = "/".join(str(n) for n in entry.buckets)
            lines.append(
                f"  {entry.name:<22}{entry.count:>9}"
                f"{entry.total_s * 1e3:>10.3f}"
                f"{entry.mean_s * 1e6:>9.2f}{entry.max_s * 1e6:>9.1f}"
                f"  {buckets}")
        if len(entries) > top:
            rest = entries[top:]
            lines.append(f"  ... {len(rest)} more event types "
                         f"({sum(e.count for e in rest)} callbacks)")
        comp = self.component_totals()
        parts = [f"{name}={count}ev/{total * 1e3:.2f}ms"
                 for name, (count, total) in
                 sorted(comp.items(), key=lambda kv: -kv[1][1])]
        lines.append("  components: " + "  ".join(parts))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)
