"""Session runner: one flow stack over an emulated path.

:class:`RtcSession` builds its sender/receiver stack with
:func:`~repro.rtc.stack.build_flow_stack` — the same builder the arena
and live sessions use — and adds what only a single simulated flow has:
the :class:`NetworkPath`, the simulation engine, the audio receiver and
optional cross traffic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.ace_c import AceCConfig
from repro.core.ace_n import AceNConfig
from repro.live.transport import SimTransport
from repro.net.cross_traffic import PageLoadGenerator
from repro.net.packet import Packet, PacketType
from repro.net.path import NetworkPath, PathConfig
from repro.net.trace import BandwidthTrace
from repro.rtc.metrics import SessionMetrics
from repro.rtc.stack import BaselineSpec, build_flow_stack
from repro.sim.events import EventLoop
from repro.sim.rng import SeedSequenceFactory
from repro.transport.audio import AudioReceiver
from repro.transport.pacer.base import Pacer


@dataclass
class SessionConfig:
    """Knobs of one experiment run."""

    duration: float = 30.0
    seed: int = 1
    fps: float = 30.0
    base_rtt: float = 0.03
    queue_capacity_bytes: int = 100_000
    random_loss_rate: float = 0.0
    cross_traffic: bool = False
    cross_traffic_interarrival: float = 8.0
    #: weak-venue contention loss (see PathConfig.contention_loss_rate).
    contention_loss_rate: float = 0.0
    #: per-packet forward delay jitter std-dev (PathConfig.delay_jitter_std).
    delay_jitter_std: float = 0.0
    #: multiplex a top-priority Opus-style audio substream.
    audio: bool = False
    initial_bwe_bps: float = 4_000_000.0
    #: product-style cap on the bandwidth estimate (WebRTC deployments
    #: configure a max video bitrate; the paper's cloud-gaming context
    #: runs at up to ~30 Mbps).
    max_bwe_bps: float = 30_000_000.0


class RtcSession:
    """One sender/receiver pair over an emulated path.

    The flow stack is built from ``spec`` (see
    :func:`~repro.rtc.stack.build_flow_stack`); ``source_factory``
    (``rngs -> source``) and ``pacer_factory`` (``(loop, send_fn) ->
    Pacer``) override its video source and pacer. :meth:`run` executes
    the event loop and returns :class:`SessionMetrics`.
    """

    def __init__(self, trace: BandwidthTrace, config: SessionConfig,
                 spec: BaselineSpec,
                 source_factory: Optional[
                     Callable[[SeedSequenceFactory], object]] = None,
                 pacer_factory: Optional[
                     Callable[[EventLoop, Callable[[Packet], None]], Pacer]] = None,
                 ace_n_config: Optional[AceNConfig] = None,
                 ace_c_config: Optional[AceCConfig] = None,
                 telemetry=None, engine: str = "reference",
                 discipline: str = "droptail",
                 discipline_params: Optional[dict] = None) -> None:
        self.trace = trace
        self.config = config
        #: simulation engine name ("reference" or "batch"); resolved to
        #: an engine instance at :meth:`run` time.
        self.engine_name = engine
        #: bottleneck queue discipline name (see repro.net.aqm).
        self.discipline = discipline
        self.loop = EventLoop()
        self.rngs = SeedSequenceFactory(config.seed)

        path_config = PathConfig(
            base_rtt=config.base_rtt,
            queue_capacity_bytes=config.queue_capacity_bytes,
            random_loss_rate=config.random_loss_rate,
            contention_loss_rate=config.contention_loss_rate,
            delay_jitter_std=config.delay_jitter_std,
        )
        # The default drop-tail stays on Link's inlined fast path
        # (bit-identical goldens); anything else is built here with its
        # own named RNG stream so AQM randomness never perturbs the
        # source/loss streams.
        queue = None
        if discipline != "droptail" or discipline_params:
            from repro.net.aqm import make_discipline
            queue = make_discipline(discipline,
                                    config.queue_capacity_bytes,
                                    rng=self.rngs.stream("aqm"),
                                    **(discipline_params or {}))
        self.path = NetworkPath(self.loop, trace, path_config,
                                rng=self.rngs.stream("path.loss"),
                                discipline=queue)
        self.transport = SimTransport(self.path)

        self.stack = build_flow_stack(
            spec, self.loop, self.rngs,
            send_fn=self.transport.send, transport=self.transport,
            send_feedback=self.transport.send_feedback, fps=config.fps,
            initial_bwe_bps=config.initial_bwe_bps,
            max_bwe_bps=config.max_bwe_bps,
            source_factory=source_factory, pacer_factory=pacer_factory,
            audio=config.audio, ace_n_config=ace_n_config,
            ace_c_config=ace_c_config)
        self.sender = self.stack.sender
        self.receiver = self.stack.receiver
        self.codec = self.sender.codec
        self.source = self.sender.source
        self.cc = self.sender.cc
        self.audio_receiver = AudioReceiver(self.loop)
        self.cross_traffic: Optional[PageLoadGenerator] = None
        if config.cross_traffic:
            self.cross_traffic = PageLoadGenerator(
                self.loop, self.path.send, self.rngs.stream("cross"),
                mean_interarrival=config.cross_traffic_interarrival,
                rtt_estimate=config.base_rtt,
            )

        self.transport.on_arrival = self._on_arrival
        self.transport.on_feedback = self.sender.on_feedback
        self.transport.on_drop = self._on_drop
        self._finished = False
        #: optional :class:`repro.obs.Telemetry` (see enable_telemetry).
        self.telemetry = None
        if telemetry is not None:
            self.enable_telemetry(telemetry)

    def enable_telemetry(self, telemetry=None):
        """Attach a :class:`repro.obs.Telemetry` hub to this session.

        Idempotent; must run before :meth:`run`. Wires the sender and
        receiver span stages, registers the stack's gauges/counters
        (token level, bucket size, estimated queue, BWE, pacer backlog,
        link queue, drops), and starts the sampling tick. Telemetry is
        a pure observer — fixed-seed results are bit-identical with it
        on or off (``tests/test_sim_regression.py`` holds both).
        """
        if self.telemetry is not None:
            return self.telemetry
        from repro.obs import Telemetry, instrument_stack
        tel = telemetry if telemetry is not None else Telemetry()
        tel.attach_clock(self.loop)
        self.sender.telemetry = tel
        self.receiver.telemetry = tel
        instrument_stack(tel, pacer=self.sender.pacer, cc=self.cc,
                         ace_n=self.sender.ace_n, link=self.path.link)
        tel.start_tick()
        self.telemetry = tel
        return tel

    # ------------------------------------------------------------------
    # path callbacks
    # ------------------------------------------------------------------
    def _on_arrival(self, packet: Packet) -> None:
        if packet.ptype is PacketType.CROSS:
            if self.cross_traffic is not None:
                self.cross_traffic.on_delivered(packet)
            return
        # Only audio packets carry frame_id < 0; media skips the probe.
        if packet.frame_id < 0 and self.audio_receiver.on_packet(packet):
            return
        self.stack.on_arrival(packet)

    def _on_drop(self, packet: Packet) -> None:
        if packet.ptype is PacketType.CROSS and self.cross_traffic is not None:
            self.cross_traffic.on_dropped(packet)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self) -> SessionMetrics:
        """Execute the session and aggregate metrics.

        With ``REPRO_AUDIT=1`` in the environment a strict
        :class:`~repro.audit.auditor.SessionAuditor` rides along and
        raises at the first invariant violation. The env vars affect
        directly-run sessions only: grid workers strip them
        (:mod:`repro.bench.parallel`), so instrumenting a sweep is an
        explicit per-:class:`~repro.bench.parallel.GridTask` choice.
        """
        if self._finished:
            raise RuntimeError("session already ran; build a new one")
        if (self.telemetry is None
                and os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")):
            self.enable_telemetry()
        auditor = None
        if os.environ.get("REPRO_AUDIT", "") not in ("", "0"):
            from repro.audit.auditor import attach_audit
            auditor = attach_audit(self, strict=True)
        # Resolve the engine after telemetry/audit hooks are attached so
        # the batch engine's eligibility check sees the final wiring.
        from repro.sim.engine import get_engine
        engine = get_engine(self.engine_name)
        self.engine = engine
        engine.prepare(self)
        self.sender.start()
        self.receiver.start()
        if self.cross_traffic is not None:
            self.cross_traffic.start()
        engine.advance(self, self.config.duration)
        self.sender.stop()
        if self.cross_traffic is not None:
            self.cross_traffic.stop()
        # Let in-flight packets and feedback land (half a second of drain).
        engine.advance(self, self.config.duration + 0.5)
        engine.finalize(self)
        self._finished = True
        if auditor is not None:
            auditor.finalize()
        lost = sum(1 for p in self.path.lost_packets
                   if p.ptype != PacketType.CROSS)
        return self.stack.collect(self.config.duration, lost,
                                  self.trace.rate_at)

    def attribution(self):
        """Causal pacer-residence attribution of the finished run.

        Pure post-processing over the sender's frame stamps and the
        ACE-N decision log (recorded with or without telemetry).
        Returns a :class:`~repro.obs.attrib.SessionAttribution`.
        """
        from repro.obs import attribute_session
        return attribute_session(self)
