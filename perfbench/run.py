#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times rounds of the workload through the public entry
points with nothing instrumented and reports the end-to-end metrics,
normalised to a reference host by the calibration kernel in
``host_speed.py``. ``--trace 1`` times the same untraced rounds, then
runs one more pass with span wrappers installed on every layer
(``span_trace.py``) and reports the per-layer metrics instead. Either
way the last line of stdout is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``. Workloads and metric definitions:
``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import host_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: cold set-ups (fresh interpreters) per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: every run measures at least this many rounds, however long they take.
MIN_ROUNDS = 2

SELF_TIME_LAYERS = ("sim.events", "sim.batch", "transport.pacer",
                    "net.link", "net.aqm", "arena.topology", "transport.cc",
                    "core.queue_estimator", "core.ace_n", "core.ace_c",
                    "transport.receiver", "transport.fec", "rtc.sender",
                    "video", "obs")
COUNTS = ("sim.events.events", "transport.pacer.packets",
          "net.link.packets", "net.link.drops", "net.aqm.drops",
          "transport.cc.feedback", "core.ace_n.decisions",
          "core.ace_c.decisions", "transport.receiver.packets",
          "video.frames", "obs.series_samples", "obs.slo_alerts")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fastpath", "arena", "live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Nothing may instrument or cache the timed runs behind our back.
    for var in ("REPRO_TELEMETRY", "REPRO_AUDIT"):
        os.environ.pop(var, None)
    os.environ["REPRO_CACHE"] = "off"

    setup_s = statistics.median(
        cold_setup(args) for _ in range(SETUP_REPEATS))
    import bench_workloads as bw
    workload = bw.make_workload(args.workload, args.seed)
    workload.setup()

    # Rounds cycle through the workload's units until the time is up;
    # every unit runs at least once.
    rounds = []
    clock = HostClock(workload.OPEN_LOOP)
    deadline = perf_counter() + args.seconds
    while (len(rounds) < max(MIN_ROUNDS, workload.units)
           or perf_counter() < deadline):
        rounds.append(clock.round(workload, len(rounds) % workload.units))
        # Free the round's sessions now, not whenever the cyclic
        # collector next runs, so peak memory does not depend on timing.
        gc.collect()
        if len(rounds) == workload.units:
            # Peak memory of set-up plus one pass over every cell, as a
            # user running the workload once sees it. The allocator's
            # high-water mark can step up on the first repeat of a pass,
            # and how many repeats fit in the run depends on host speed.
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                           .ru_maxrss / 1024)

    first = first_outputs(rounds)
    failures, correct = check_outputs(bw, args, rounds, first)
    mismatches = workload.check(rounds)
    failures.update(mismatches)

    traced = []
    if args.trace:
        traced, tracer = traced_pass(workload)
        for rnd in traced:
            for cell, value in rnd.cells.items():
                if value != first.get(cell):
                    failures[cell] = "traced output differs from untraced"
                    correct = False
            for cell, err in rnd.errors.items():
                failures[cell] = f"traced round raised {err}"
                correct = False

    if args.workload == "live":
        runs = rounds + traced
        attempted = sum(len(r.cells) for r in runs)
        failed = sum(1 for r in runs for s in r.cells.values()
                     if s != "completed")
    else:
        attempted = len(set(first) | {c for r in rounds for c in r.errors})
        failed = len(failures)

    report_cells(rounds, failures)
    if args.trace:
        metrics = per_layer_metrics(bw, args, workload, rounds, traced,
                                    tracer, len(mismatches))
    else:
        metrics = end_to_end_metrics(rounds, workload.OPEN_LOOP, setup_s,
                                     peak_rss_mb)
    session, wall, _ = pass_cost(rounds, workload.OPEN_LOOP)
    packets = sum({r.unit: r.packets for r in rounds}.values())
    host = statistics.median(r.host for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} "
          f"untraced rounds; one pass over {workload.units} unit(s) is "
          f"{session:g} session-s, {packets} packets, {wall:.3f} s wall "
          f"(host slowness {host:.3f})")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted} failed {failed} "
          f"fail_rate {failed / max(attempted, 1):.4g}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


class HostClock:
    """Runs rounds back to back, each bracketed by the host-speed kernel
    (the wake-up kernel for an open loop, the hot kernel otherwise). The
    kernel run between two rounds serves both."""

    def __init__(self, open_loop: bool) -> None:
        self.kernel, self.ref = (
            (host_speed.wake_kernel_s, host_speed.REF_WAKE_S) if open_loop
            else (host_speed.kernel_s, host_speed.REF_KERNEL_S))
        self.last = self.kernel()

    def round(self, workload, unit: int, tracer=None):
        rnd = workload.run_round(unit, tracer=tracer)
        after = self.kernel()
        rnd.host = (self.last + after) / 2 / self.ref
        self.last = after
        return rnd


def cold_setup(args) -> float:
    """Reference-host seconds of one set-up in a fresh interpreter:
    imports, traces and the first session or fleet build."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), args.workload,
         str(args.seed)], capture_output=True, text=True, check=True,
        timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def first_outputs(rounds) -> dict:
    """Cell -> output of the first round that ran the cell."""
    first: dict = {}
    for rnd in rounds:
        for cell, value in rnd.cells.items():
            first.setdefault(cell, value)
    return first


def check_outputs(bw, args, rounds, first: dict):
    """Every round must reproduce the first run of each of its cells; at
    the default seed those must match the pinned fingerprints."""
    failures: dict[str, str] = {}
    correct = True
    for i, rnd in enumerate(rounds):
        for cell, err in rnd.errors.items():
            failures[cell] = f"round {i} raised {err}"
            correct = False
        if args.workload == "live":
            for cell, status in rnd.cells.items():
                if status != "completed":
                    failures[f"round{i}/{cell}"] = f"status {status}"
                    correct = False
            continue
        for cell, value in rnd.cells.items():
            if value != first[cell]:
                failures[cell] = (f"round {i} output differs from the "
                                  "first run of the cell")
                correct = False
    if args.workload != "live" and args.seed == bw.DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned.json").read_text())
        expected = pinned[args.workload]
        for cell in sorted(set(expected) | set(first)):
            if first.get(cell) != expected.get(cell):
                failures[cell] = "output differs from pinned fingerprint"
                correct = False
    return failures, correct


def traced_pass(workload):
    """One more round per unit of the first draw, with every layer
    wrapped; the spans are written to ``.perfbench/`` at the end. One
    draw keeps the slowed-down traced sweep well inside the run's time
    limit."""
    import span_trace
    tracer = span_trace.Tracer()
    clock = HostClock(workload.OPEN_LOOP)
    traced = []
    with tracer:
        for unit in range(workload.units // workload.DRAWS):
            tracer.cell += 1
            traced.append(clock.round(workload, unit, tracer=tracer))
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload.name}-s{workload.seed}.npz")
    return traced, tracer


def report_cells(rounds, failures) -> None:
    engines: dict = {}
    for rnd in rounds:
        for cell in list(rnd.cells) + list(rnd.errors):
            engines.setdefault(cell, rnd.engines.get(cell, ("-", None)))
    for cell, (engine, reason) in sorted(engines.items()):
        print(f"cell {cell}: engine={engine} "
              f"fallback_reason={reason or '-'}")
    for cell in sorted(failures):
        print(f"FAILED {cell}: {failures[cell]}")


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def pass_cost(rounds, open_loop: bool) -> tuple[float, float, float]:
    """(session-seconds, wall s, CPU s) of one pass over every unit, in
    reference-host seconds: each round's times are divided by the host
    slowness measured around it, and each unit's times are the median
    over its rounds. An open loop's wall time is not normalised: it
    follows the real-time clock."""
    by_unit: dict[int, list] = {}
    for rnd in rounds:
        by_unit.setdefault(rnd.unit, []).append(rnd)
    session = sum(rs[0].session_s for rs in by_unit.values())
    wall_host = (lambda r: 1.0) if open_loop else (lambda r: r.host)
    wall = sum(statistics.median(r.wall_s / wall_host(r) for r in rs)
               for rs in by_unit.values())
    cpu = sum(statistics.median(r.cpu_s / r.host for r in rs)
              for rs in by_unit.values())
    return session, wall, cpu


def end_to_end_metrics(rounds, open_loop: bool, setup_s: float,
                       peak_rss_mb: float) -> dict:
    session, wall, cpu = pass_cost(rounds, open_loop)
    captured = sum(r.captured for r in rounds)
    displayed = sum(r.displayed for r in rounds)
    return {
        "sim_s_per_s": _metric(session / wall, "s/s"),
        "cpu_ms_per_session_s": _metric(cpu * 1e3 / session, "ms/s"),
        "frames_delivered_share": _metric(displayed / captured, "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def per_layer_metrics(bw, args, workload, rounds, traced, tracer,
                      mismatches: int) -> dict:
    self_s = tracer.self_time_by_layer()
    out = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = _metric(self_s.get(layer, 0.0), "s")
    for name in COUNTS:
        out[name] = _metric(tracer.counts.get(name, 0), "count")
    engines = [e for rnd in traced for e in rnd.engines.values()]
    batch_cells = len(engines) if args.workload == "fastpath" else 0
    fell_back = sum(1 for _, reason in engines if reason is not None)
    out["sim.batch.fallback_share"] = _metric(
        fell_back / batch_cells if batch_cells else 0.0, "ratio")
    out["sim.batch.ref_mismatch"] = _metric(mismatches, "count")
    out["rtc.session.build_s"] = _metric(
        tracer.total_time("rtc.session:RtcSession.__init__"), "s")
    out["arena.session.build_s"] = _metric(
        tracer.total_time("arena.session:ArenaSession.__init__"), "s")
    # Grid wall minus the summed wall of the sessions' run() calls.
    grid_wall = sum(r.extra.get("grid_wall_s", 0.0) for r in traced)
    runs = (tracer.total_time("rtc.session:RtcSession.run")
            + tracer.total_time("arena.session:ArenaSession.run"))
    out["bench.parallel.overhead_s"] = _metric(
        grid_wall - runs if grid_wall else 0.0, "s")
    live = args.workload == "live"
    for name, key, unit in (("live.loop_lag_p99_ms", "loop_lag_p99_ms", "ms"),
                            ("live.session.cpu_s", "session_cpu_s", "s"),
                            ("live.pacing_p99_ms", "pacing_p99_ms", "ms"),
                            ("live.frame_p95_ms", "frame_p95_ms", "ms")):
        value = (bw.median_of(r.extra[key] for r in rounds) if live
                 else None)
        out[name] = _metric(value or 0.0, unit)
    # Live wall time is fixed by the 30 fps capture clock, so tracing
    # cost shows in CPU time there; simulated rounds are CPU-bound.
    traced_units = {r.unit for r in traced}
    _, traced_wall, traced_cpu = pass_cost(traced, workload.OPEN_LOOP)
    _, wall, cpu = pass_cost([r for r in rounds if r.unit in traced_units],
                             workload.OPEN_LOOP)
    overhead = traced_cpu / cpu if workload.OPEN_LOOP else traced_wall / wall
    out["trace.overhead"] = _metric(overhead, "ratio")
    print_self_time_split(self_s, sum(r.wall_s for r in traced))
    return out


def print_self_time_split(self_s: dict, wall_s: float) -> None:
    total = sum(self_s.values())
    print(f"self-time split of the traced pass ({wall_s:.3f} s wall, "
          f"{total:.3f} s in spans):")
    for layer, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:24s} {secs:9.4f} s {100 * secs / total:6.2f}%")


if __name__ == "__main__":
    sys.exit(main())
