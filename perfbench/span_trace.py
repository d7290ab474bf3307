"""Span tracing from outside the program: class-level wrappers per layer.

The traced run installs a wrapper on the public entry points of every
layer (plus the callbacks a layer binds at construction, such as a
link's delivery hook) *at class level*, before any session is built, so
bound methods captured in constructors are wrapped too. Scheduled event
callbacks are wrapped at scheduling time and attributed to a layer by
their event name (``link.serve`` -> ``net.link``), the same key the
repo's ``LoopProfiler`` uses.

Each call records one span: name, start, end, parent span and cell id.
Spans live in flat in-memory arrays and are written out once, at the
end. A layer's self time is the summed duration of its spans minus the
durations of their direct child spans.

Nothing here attaches a hook, profiler or telemetry to a session, so the
batch engine's eligibility check sees the same session it sees untraced
and the same engine runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: event-name prefix -> layer, for scheduled callbacks.
EVENT_LAYERS = {
    "sender": "rtc.sender",
    "audio": "rtc.sender",
    "pacer": "transport.pacer",
    "link": "net.link",
    "path": "net.link",
    "cross": "net.link",
    "receiver": "transport.receiver",
    "obs": "obs",
    "slo": "obs",
    "arena": "arena.topology",
    "live": "live",
}


def _calls(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += 1
    return count


def _falses(key):
    def count(tracer, args, kwargs, result):
        if result is False:
            tracer.counts[key] += 1
    return count


def _packets_arg(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += len(args[1])
    return count


def _chunk_packets(key):
    # TransportReceiver.on_media_chunk(self, frame_id, first_seq, index0,
    # packet_count, prev_sent_frame_id, send_times, arrivals, sizes, ...):
    # one call carries a train of len(sizes) packets.
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += len(args[8] if len(args) > 8
                                  else kwargs["sizes"])
    return count


def _firing(key):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += sum(1 for e in result or ()
                                  if e.get("state") == "firing")
    return count


_AQM = ("enqueue", "select_head", "pop_head")
_AQM_DROPS = {"enqueue": (_falses("net.aqm.drops"),)}

#: (layer, module, class, methods, {method: counting fns}). The same
#: methods are wrapped on every subclass that overrides them (pacers,
#: congestion controllers, rate controls). A counting fn sees the call's
#: arguments and result and bumps a per-layer counter.
TARGETS = [
    ("sim.events", "repro.sim.events", "EventLoop",
     ("run", "drain", "step"), {}),
    ("sim.batch", "repro.sim.batch", "BatchEngine",
     ("prepare", "advance", "finalize"), {}),
    ("sim.batch", "repro.sim.batch", "BatchPipeline",
     ("install", "on_frame_encoded", "materialize", "forget_frame",
      "run_until", "drain_to", "finalize"), {}),
    ("transport.pacer", "repro.transport.pacer.base", "Pacer",
     ("enqueue", "enqueue_retransmission", "enqueue_audio",
      "set_pacing_rate", "set_bucket_size", "cancel_pump"),
     {"enqueue": (_packets_arg("transport.pacer.packets"),),
      "enqueue_retransmission": (_calls("transport.pacer.packets"),),
      "enqueue_audio": (_calls("transport.pacer.packets"),)}),
    ("net.link", "repro.net.link", "Link",
     ("send", "_dropped_in_queue"),
     {"send": (_calls("net.link.packets"), _falses("net.link.drops")),
      # only non-drop-tail disciplines drop packets already queued
      "_dropped_in_queue": (_calls("net.link.drops"),
                            _calls("net.aqm.drops"))}),
    ("net.link", "repro.net.path", "NetworkPath",
     ("send", "send_feedback", "_delivered_by_link"), {}),
    # Link inlines drop-tail on its fast path, so DropTailQueue spans
    # appear only when drop-tail runs through the generic protocol.
    ("net.aqm", "repro.net.aqm", "DropTailQueue", _AQM, {}),
    ("net.aqm", "repro.net.aqm", "CoDelDiscipline", _AQM, _AQM_DROPS),
    ("net.aqm", "repro.net.aqm", "PieDiscipline", _AQM, _AQM_DROPS),
    ("net.aqm", "repro.net.aqm", "ConfuciusDiscipline", _AQM, _AQM_DROPS),
    ("arena.topology", "repro.arena.topology", "ArenaPath",
     ("send", "_hop_delivered"), {}),
    ("transport.cc", "repro.transport.cc.base", "CongestionController",
     ("on_feedback", "observe_rtt", "observe_rtt_array"),
     {"on_feedback": (_calls("transport.cc.feedback"),)}),
    ("core.queue_estimator", "repro.core.queue_estimator", "QueueEstimator",
     ("on_feedback", "queue_bytes", "peak_queue_bytes"), {}),
    ("core.ace_n", "repro.core.ace_n", "AceNController",
     ("on_feedback", "rate_factor", "on_frame_enqueued"),
     {"on_feedback": (_calls("core.ace_n.decisions"),)}),
    ("core.ace_c", "repro.core.ace_c", "AceCController",
     ("select_complexity", "on_encoded"),
     {"select_complexity": (_calls("core.ace_c.decisions"),)}),
    ("transport.receiver", "repro.transport.receiver", "TransportReceiver",
     ("on_packet", "on_media_chunk", "skip_frame", "start", "stop"),
     {"on_packet": (_calls("transport.receiver.packets"),),
      "on_media_chunk": (_chunk_packets("transport.receiver.packets"),)}),
    ("transport.receiver", "repro.transport.feedback", "FeedbackBuilder",
     ("on_packet", "on_chunk", "build"), {}),
    ("transport.fec", "repro.transport.fec", "FecEncoder",
     ("protect", "observe_loss_rate"), {}),
    ("transport.fec", "repro.transport.fec", "FecDecoder",
     ("on_media", "on_parity", "give_up_older_than"), {}),
    ("rtc.sender", "repro.rtc.sender", "Sender",
     ("start", "stop", "on_feedback", "forget_frame"), {}),
    ("video", "repro.video.codec.model", "CodecModel",
     ("encode", "natural_bits", "relative_satd", "rc_satd",
      "observe_satd", "decode_time"), {}),
    ("video", "repro.video.codec.rate_control", "RateControl",
     ("plan_bytes", "on_encoded"), {}),
    ("video", "repro.video.source", "VideoSource",
     ("next_frame",), {"next_frame": (_calls("video.frames"),)}),
    ("video", "repro.video.source", "MixedSource",
     ("next_frame",), {"next_frame": (_calls("video.frames"),)}),
    ("rtc.session", "repro.rtc.session", "RtcSession",
     ("__init__", "run"), {}),
    ("arena.session", "repro.arena.session", "ArenaSession",
     ("__init__", "run"), {}),
    ("obs", "repro.obs.recorder", "Telemetry",
     ("record", "annotate", "frame_stage", "packet_wire", "start_tick",
      "stop_tick"), {}),
    ("obs", "repro.obs.burst", "BurstAnalyzer",
     ("on_packet", "flush"), {}),
    ("obs", "repro.obs.timeseries", "SeriesRecorder",
     ("sample", "frame"), {"sample": (_calls("obs.series_samples"),)}),
    ("obs", "repro.obs.slo", "SloWatchdog",
     ("evaluate",), {"evaluate": (_firing("obs.slo_alerts"),)}),
    ("live", "repro.live.transport", "UdpTransport",
     ("send", "send_feedback", "_on_datagram", "_sendto"), {}),
]

#: classes whose scheduling methods get their callbacks wrapped, with the
#: layer for callbacks whose event name has no known prefix.
SCHEDULERS = [
    ("repro.sim.events", "EventLoop", "sim.events"),
    ("repro.live.clock", "WallClock", "live"),
]

#: cell-root spans: entering one starts a new cell id.
CELL_ROOTS = {("RtcSession", "__init__"), ("ArenaSession", "__init__")}


class Tracer:
    """In-memory span store plus the class-level wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.cell_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.cell = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def span_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _wrap(self, fn, nid: int, counters=(), new_cell: bool = False):
        names, parents, cells = self.name_id, self.parent, self.cell_id
        starts, ends, stack = self.start, self.end, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_cell:
                tracer.cell += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cells.append(tracer.cell)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            for count in counters:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def span(self, name: str, layer: str):
        """Context manager recording one span around benchmark code."""
        return _Span(self, self.span_id(name, layer))

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for layer, module, cls_name, methods, counted in TARGETS:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _hierarchy(base):
                for meth in methods:
                    fn = cls.__dict__.get(meth)
                    if not inspect.isfunction(fn):
                        continue
                    if inspect.isgeneratorfunction(fn) \
                            or inspect.iscoroutinefunction(fn):
                        continue
                    nid = self.span_id(f"{layer}:{cls.__name__}.{meth}",
                                       layer)
                    self._patch(cls, meth, self._wrap(
                        fn, nid, counted.get(meth, ()),
                        new_cell=(cls_name, meth) in CELL_ROOTS))
        for module, cls_name, default_layer in SCHEDULERS:
            cls = getattr(importlib.import_module(module), cls_name)
            for meth in ("call_at", "call_later"):
                self._patch(cls, meth, self._scheduler(
                    cls.__dict__[meth], default_layer))
        return self

    def uninstall(self) -> None:
        while self._restore:
            cls, meth, original = self._restore.pop()
            setattr(cls, meth, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, cls, meth: str, replacement) -> None:
        self._restore.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, replacement)

    def _scheduler(self, schedule, default_layer: str):
        """Wrap ``call_at``/``call_later`` so every scheduled callback
        runs inside a span named after its event."""
        event_ids: dict[str, int] = {}
        counters = ((_calls("sim.events.events"),)
                    if default_layer == "sim.events" else ())
        tracer = self

        def nid_for(name: str) -> int:
            nid = event_ids.get(name)
            if nid is None:
                prefix = name.split(".", 1)[0] if name else ""
                layer = EVENT_LAYERS.get(prefix, default_layer)
                nid = event_ids[name] = tracer.span_id(
                    f"{layer}:event {name or '(unnamed)'}", layer)
            return nid

        wrap = self._wrap

        @functools.wraps(schedule)
        def scheduling(self_, when, callback, name=""):
            return schedule(self_, when,
                            wrap(callback, nid_for(name), counters), name)

        return scheduling

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_time_by_layer(self) -> dict[str, float]:
        if not len(self.start):
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = np.bincount(names, weights=dur - child,
                          minlength=len(self.names))
        out: dict[str, float] = {}
        for nid, layer in enumerate(self.layers):
            out[layer] = out.get(layer, 0.0) + float(own[nid])
        return out

    def total_time(self, name: str) -> float:
        """Summed duration of every span of ``name`` (children included)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        names = np.frombuffer(self.name_id, dtype=np.int32)
        mask = names == nid
        return float((np.frombuffer(self.end, dtype=np.float64)[mask]
                      - np.frombuffer(self.start, dtype=np.float64)[mask])
                     .sum())

    def write(self, path) -> None:
        """Persist every span (columnar ``.npz``) and the name table."""
        np.savez(path,
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 cell=np.frombuffer(self.cell_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(self.names),
                 layers=np.array(self.layers))


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self.tracer = tracer
        self.nid = nid
        self.idx = -1

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.start)
        t.name_id.append(self.nid)
        t.parent.append(t.stack[-1] if t.stack else -1)
        t.cell_id.append(t.cell)
        t.end.append(0.0)
        t.stack.append(self.idx)
        t.start.append(perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.end[self.idx] = perf_counter()
        t.stack.pop()

    @property
    def duration(self) -> float:
        t = self.tracer
        return t.end[self.idx] - t.start[self.idx]


def _hierarchy(base: type) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen
