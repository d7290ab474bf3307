"""The benchmark's four workloads, each driven through public entry points.

Every workload derives its inputs (traces, session seeds) from one
workload seed and exposes the same three steps:

* ``setup()`` -- trace generation plus the first session or fleet build
  (timed cold by ``setup_probe.py`` and reported as ``setup_s``);
* ``run_round(unit, tracer=None)`` -- one *unit* of the workload (one
  simulated cell, or one live fleet), returning a :class:`Round` with
  wall/CPU time, session-seconds, frame counts and one output
  fingerprint (or status) per cell;
* ``check(rounds)`` -- extra correctness checks beyond determinism
  (only ``fastpath`` has one: batch vs reference engine).

Why each workload exists, and the self-time split measured on it, is in
``NOTES.md`` next to this file.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Optional

from repro.analysis.results import RunResult
from repro.arena.grid import cell_label, parse_mix, run_arena_grid
from repro.arena.session import ArenaFlowSpec, ArenaSession
from repro.bench import run_grid
from repro.live.server import (LoadConfig, SessionSupervisor,
                               build_load_specs, run_load_async)
from repro.live.session import build_live_session
from repro.net.trace import BandwidthTrace, TraceLibrary
from repro.obs.quantiles import percentiles
from repro.rtc import SessionConfig, build_session

#: seed whose cell fingerprints are pinned in ``pinned.json``.
DEFAULT_SEED = 1

#: the repo's batch-vs-reference contract (tests/test_batch_engine.py).
REL_TOL = 1e-6
PAIRED_METRICS = ("p50_latency", "p95_latency", "mean_vmaf", "loss_rate",
                  "stall_rate", "received_fps")

#: trace length generated for every workload (longer than any session
#: plus its drain).
TRACE_S = 30.0

#: seed of the trace corpus: the repo's standard nine-trace library
#: (``repro.bench.bench_traces``), fixed like the paper's trace sample.
#: Only session seeds follow the workload seed; see NOTES.md for why.
CORPUS_SEED = 1


def fingerprint(metrics) -> str:
    """sha256 over the fields ``fingerprint()`` in
    tests/test_sim_regression.py hashes."""
    h = hashlib.sha256()
    _feed(h, metrics)
    return h.hexdigest()


def _feed(h, metrics) -> None:
    h.update(repr(metrics.packets_sent).encode())
    h.update(repr(metrics.packets_lost).encode())
    h.update(repr(metrics.packets_retransmitted).encode())
    for f in metrics.frames:
        h.update(("%d %.9f %d %.9f %d" % (
            f.frame_id, f.capture_time, f.size_bytes,
            f.quality_vmaf, f.complexity_level)).encode())
        for value in (f.encode_time, f.pacer_enqueue, f.pacer_last_exit,
                      f.complete_at, f.displayed_at):
            h.update(b"?" if value is None else ("%.9f" % value).encode())
    for t, size in metrics.send_events:
        h.update(("%.9f %d" % (t, size)).encode())
    for t, bwe in metrics.bwe_history:
        h.update(("%.9f %.6f" % (t, bwe)).encode())


def _count(rnd: "Round", metrics) -> None:
    frames = metrics.frames
    rnd.captured += len(frames)
    rnd.displayed += sum(1 for f in frames if f.displayed_at is not None)
    rnd.packets += metrics.packets_sent


@dataclass
class Round:
    """Outcome of running one unit."""

    unit: int
    wall_s: float
    cpu_s: float
    #: simulated session-seconds (flow-seconds on arena, live media
    #: session-seconds on live) the round covered.
    session_s: float
    captured: int = 0
    displayed: int = 0
    #: media packets the round sent (its amount of work).
    packets: int = 0
    #: cell name -> output fingerprint (sim) or final status (live).
    cells: dict = field(default_factory=dict)
    #: cell name -> "ExceptionType: message" for cells that raised.
    errors: dict = field(default_factory=dict)
    #: cell name -> (effective engine, fallback reason or None).
    engines: dict = field(default_factory=dict)
    #: workload-specific measurements (live lateness, paired metrics...).
    extra: dict = field(default_factory=dict)
    #: host slowness while the round ran (calibration kernel time over
    #: its reference time; see host_speed.py). 1.0 = reference host.
    host: float = 1.0


def session_seeds(seed: int, count: int) -> tuple[int, ...]:
    """Session seeds of one workload seed. Content drawn from one session
    seed is shared by every cell that uses it, so a workload needs several
    to keep its cost from swinging with the seed."""
    return tuple(seed * 100 + k for k in range(count))


class _Workload:
    name = ""
    #: session seeds (draws) per workload seed.
    DRAWS = 1
    #: wall time is set by a real-time clock, not by CPU speed.
    OPEN_LOOP = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.seeds = session_seeds(seed, self.DRAWS)
        self.traces: list[BandwidthTrace] = []

    @property
    def units(self) -> int:
        """Rounds in one pass over every cell of the workload."""
        return self.DRAWS

    def check(self, rounds: list[Round]) -> dict:
        return {}


class Sweep(_Workload):
    """The paper's single-flow grid as ``repro grid --slo --series`` runs
    it: eight baselines x one wifi/4g/5g trace, reference engine."""

    name = "sweep"
    BASELINES = ("ace", "ace-n", "webrtc", "webrtc-star", "cbr",
                 "always-burst", "salsify", "ace-fec")
    CLASSES = ("wifi", "4g", "5g")
    DURATION = 4.0
    DRAWS = 3

    def setup(self) -> None:
        lib = TraceLibrary(seed=CORPUS_SEED, duration=TRACE_S)
        self.traces = [lib.by_class(c)[0] for c in self.CLASSES]
        build_session(self.BASELINES[0], self.traces[0],
                      SessionConfig(duration=self.DURATION,
                                    seed=self.seeds[0], initial_bwe_bps=6e6))

    @property
    def units(self) -> int:
        # One round per cell: short rounds let the host-speed calibration
        # between them track the host closely (see NOTES.md).
        return self.DRAWS * len(self.CLASSES) * len(self.BASELINES)

    def run_round(self, unit: int, tracer=None) -> Round:
        draw, rest = divmod(unit, len(self.CLASSES) * len(self.BASELINES))
        part, index = divmod(rest, len(self.BASELINES))
        args = ([self.BASELINES[index]], [self.traces[part]],
                (self.seeds[draw],))
        t0, c0 = perf_counter(), process_time()
        if tracer is None:
            grid = self._grid(*args)
        else:
            with tracer.span("bench.parallel:run_grid", "bench.parallel") \
                    as span:
                grid = self._grid(*args)
        wall, cpu = perf_counter() - t0, process_time() - c0
        rnd = Round(unit, wall, cpu, self.DURATION * len(grid))
        for (baseline, trace_name, seed, _cat), m in grid.items():
            cell = f"{baseline}/{trace_name}/s{seed}"
            rnd.cells[cell] = fingerprint(m)
            rnd.engines[cell] = ("reference", None)
            _count(rnd, m)
        if tracer is not None:
            rnd.extra["grid_wall_s"] = span.duration
        return rnd

    def _grid(self, baselines, traces, seeds):
        return run_grid(baselines, traces,
                        seeds=seeds, duration=self.DURATION,
                        jobs=1, use_cache=False, slo=True, series=True)


class Fastpath(_Workload):
    """Packet-heavy single flows on the batch engine, BWE cap raised to
    100 Mbps, over a constant 100 Mbps trace and a 5g trace."""

    name = "fastpath"
    BASELINES = ("ace", "webrtc-star", "cbr", "always-burst", "salsify")
    DURATION = 8.0

    def setup(self) -> None:
        lib = TraceLibrary(seed=CORPUS_SEED, duration=TRACE_S)
        self.traces = [BandwidthTrace.constant(100e6, duration=TRACE_S),
                       lib.by_class("5g")[0]]
        build_session(self.BASELINES[0], self.traces[0],
                      self._config(self.seeds[0]), engine="batch")

    def _config(self, seed: int) -> SessionConfig:
        return SessionConfig(duration=self.DURATION, seed=seed,
                             initial_bwe_bps=50e6, max_bwe_bps=100e6)

    def _cells(self, seed: int) -> list:
        return [(f"{baseline}/{trace.name}/s{seed}", baseline, trace)
                for baseline in self.BASELINES for trace in self.traces]

    @property
    def units(self) -> int:
        # One round per cell, as on sweep.
        return self.DRAWS * len(self.BASELINES) * len(self.traces)

    def run_round(self, unit: int, tracer=None) -> Round:
        draw, index = divmod(unit, len(self.BASELINES) * len(self.traces))
        seed = self.seeds[draw]
        cell, baseline, trace = self._cells(seed)[index]
        rnd = Round(unit, 0.0, 0.0, 0.0)
        t0, c0 = perf_counter(), process_time()
        try:
            session = build_session(baseline, trace, self._config(seed),
                                    engine="batch")
            m = session.run()
        except Exception as exc:
            rnd.errors[cell] = f"{type(exc).__name__}: {exc}"
            return rnd
        finally:
            rnd.wall_s = perf_counter() - t0
            rnd.cpu_s = process_time() - c0
        rnd.session_s = self.DURATION
        reason = session.engine.fallback_reason
        rnd.engines[cell] = (
            "batch" if reason is None else "reference", reason)
        rnd.cells[cell] = fingerprint(m)
        _count(rnd, m)
        rnd.extra["paired"] = {cell: _paired(m, baseline, trace.name, seed)}
        return rnd

    def check(self, rounds: list[Round]) -> dict:
        """Run each cell's reference-engine twin (outside the timed
        region) and name every cell whose paired metrics differ by more
        than ``REL_TOL``."""
        batch = {}
        for rnd in rounds:
            batch.update(rnd.extra.get("paired", {}))
        failures = {}
        for seed in self.seeds:
            for cell, baseline, trace in self._cells(seed):
                if cell not in batch:
                    continue
                ref = _paired(build_session(baseline, trace,
                                            self._config(seed)).run(),
                              baseline, trace.name, seed)
                off = []
                for metric in PAIRED_METRICS:
                    a, b = ref[metric], batch[cell][metric]
                    if math.isnan(a) and math.isnan(b):
                        continue
                    if not abs(a - b) <= REL_TOL * max(abs(a), 1e-3):
                        off.append(f"{metric} ref {a:.9g} batch {b:.9g}")
                if off:
                    failures[cell] = "batch vs reference: " + "; ".join(off)
        return failures


def _paired(metrics, baseline: str, trace: str, seed: int) -> dict:
    result = RunResult.from_metrics(metrics, baseline=baseline, trace=trace,
                                    seed=seed)
    return {m: getattr(result, m) for m in PAIRED_METRICS}


class Arena(_Workload):
    """Paced and bursty flows plus a late joiner sharing one bottleneck,
    under each queue discipline."""

    name = "arena"
    MIX = "ace*2+webrtc-star+always-burst@3"
    DISCIPLINES = ("droptail", "codel", "pie", "confucius")
    DURATION = 6.0
    # With one session seed, the arena's work per run swung by 13%
    # between seeds; six draws average most of that out.
    DRAWS = 6

    def setup(self) -> None:
        lib = TraceLibrary(seed=CORPUS_SEED, duration=TRACE_S)
        self.traces = [lib.by_class("wifi")[0]]
        flows = [ArenaFlowSpec(**f) for f in parse_mix(self.MIX)]
        ArenaSession(flows, self.traces[0],
                     SessionConfig(duration=self.DURATION,
                                   seed=self.seeds[0], initial_bwe_bps=6e6),
                     discipline=self.DISCIPLINES[0])

    @property
    def units(self) -> int:
        # One round per cell (discipline), as on sweep.
        return self.DRAWS * len(self.DISCIPLINES)

    def run_round(self, unit: int, tracer=None) -> Round:
        draw, index = divmod(unit, len(self.DISCIPLINES))
        args = ((self.DISCIPLINES[index],), (self.seeds[draw],))
        t0, c0 = perf_counter(), process_time()
        if tracer is None:
            grid = self._grid(*args)
        else:
            with tracer.span("bench.parallel:run_arena_grid",
                             "bench.parallel") as span:
                grid = self._grid(*args)
        wall, cpu = perf_counter() - t0, process_time() - c0
        rnd = Round(unit, wall, cpu, 0.0)
        for (mix, discipline, _trace, seed), arena in grid.items():
            cell = f"{cell_label(mix, discipline)}/s{seed}"
            h = hashlib.sha256()
            for fid in sorted(arena.keys()):
                m = arena[fid]
                _feed(h, m)
                _count(rnd, m)
                spec = arena.specs[fid]
                stop = spec["stop"] if spec["stop"] is not None \
                    else self.DURATION
                rnd.session_s += min(stop, self.DURATION) - spec["start"]
            rnd.cells[cell] = h.hexdigest()
            rnd.engines[cell] = ("reference", None)
        if tracer is not None:
            rnd.extra["grid_wall_s"] = span.duration
        return rnd

    def _grid(self, disciplines, seeds):
        return run_arena_grid([self.MIX], self.traces,
                              disciplines=disciplines,
                              seeds=seeds, duration=self.DURATION,
                              series=True, jobs=1, use_cache=False)


class Live(_Workload):
    """Loopback sessions on one event loop, each capturing at 30 fps
    whatever the host speed: an open loop."""

    name = "live"
    OPEN_LOOP = True
    MIX = ("ace", "webrtc-star")
    DURATION = 3.0
    #: period of the benchmark's lateness probe on the fleet's loop.
    LAG_PERIOD_S = 0.005

    def __init__(self, seed: int, sessions: int) -> None:
        super().__init__(seed)
        self.sessions = sessions

    def _config(self, unit: int = 0) -> LoadConfig:
        # Sessions of one fleet take seeds seed, seed + 1, ...
        return LoadConfig(sessions=self.sessions, mix=self.MIX, ramp=0.0,
                          duration=self.DURATION, seed=self.seeds[unit],
                          bottleneck_mbps=20.0, shaped=True)

    def setup(self) -> None:
        specs = build_load_specs(self._config())
        SessionSupervisor(specs, heartbeat_interval=None)
        for spec in specs:
            build_live_session(spec.baseline, spec.config, trace=spec.trace,
                               category=spec.category)

    async def _fleet(self, unit: int, lags: list) -> SessionSupervisor:
        probe = asyncio.get_running_loop().create_task(self._probe(lags))
        try:
            return await run_load_async(self._config(unit))
        finally:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass

    async def _probe(self, lags: list) -> None:
        """Record how late a fixed-period timer fires on the fleet loop."""
        period = self.LAG_PERIOD_S
        while True:
            due = perf_counter() + period
            await asyncio.sleep(period)
            lags.append(perf_counter() - due)

    def run_round(self, unit: int, tracer=None) -> Round:
        lags: list[float] = []
        t0, c0 = perf_counter(), process_time()
        supervisor = asyncio.run(self._fleet(unit, lags))
        wall, cpu = perf_counter() - t0, process_time() - c0
        rnd = Round(unit, wall, cpu, self.sessions * self.DURATION)
        latencies: list[float] = []
        session_cpu = 0.0
        for rec in supervisor.records:
            rnd.cells[rec.spec.label] = rec.status
            rnd.engines[rec.spec.label] = ("wallclock", None)
            if rec.error is not None:
                rnd.errors[rec.spec.label] = rec.error
            if rec.cpu_s is not None:
                session_cpu += rec.cpu_s
            if rec.metrics is not None:
                _count(rnd, rec.metrics)
                latencies.extend(rec.metrics.e2e_latencies())
        (lag_p99,) = percentiles(lags, (99.0,))
        (frame_p95,) = percentiles(latencies, (95.0,))
        rnd.extra.update(
            loop_lag_p99_ms=None if lag_p99 is None else lag_p99 * 1e3,
            frame_p95_ms=None if frame_p95 is None else frame_p95 * 1e3,
            pacing_p99_ms=supervisor.summary["pacing_p99_ms"],
            session_cpu_s=session_cpu)
        return rnd


def median_of(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def make_workload(name: str, seed: int):
    if name == "live":
        # No more concurrent live sessions than cores, so the figures
        # measure the program rather than the scheduler.
        return Live(seed, sessions=min(2, os.cpu_count() or 1))
    return {"sweep": Sweep, "fastpath": Fastpath, "arena": Arena}[name](seed)
