"""One flow's sender/receiver stack, built the same way for every session.

ACE is one sender stack: the congestion controller sets the token rate,
ACE-N sizes the bucket and ACE-C picks the encoder complexity.
:func:`build_flow_stack` assembles that stack from a declarative
:class:`BaselineSpec` on any clock and any packet I/O, so the simulated
:class:`~repro.rtc.session.RtcSession`, every flow of an
:class:`~repro.arena.session.ArenaSession` and the wall-clock
:class:`~repro.live.session.LiveSession` run the same components by
construction. Each session adds only its network: a path, a router
chain or a pair of UDP endpoints.

This module imports no session module, so all three can import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.ace_c import AceCConfig, AceCController
from repro.core.ace_n import AceNConfig, AceNController
from repro.net.packet import Packet
from repro.rtc.metrics import SessionMetrics
from repro.rtc.sender import Sender, SenderConfig
from repro.sim.rng import SeedSequenceFactory
from repro.transport.cc.bbr import BbrController
from repro.transport.cc.base import CongestionController
from repro.transport.cc.copa import CopaController
from repro.transport.cc.delivery_rate import DeliveryRateController
from repro.transport.cc.gcc import GccController
from repro.transport.pacer.base import Pacer
from repro.transport.pacer.burst import BurstPacer
from repro.transport.pacer.leaky_bucket import LeakyBucketPacer
from repro.transport.pacer.token_bucket_pacer import TokenBucketPacer
from repro.transport.receiver import TransportReceiver
from repro.video.codec.model import CodecModel
from repro.video.codec.presets import codec_config
from repro.video.codec.rate_control import (
    AbrVbvRateControl,
    CbrRateControl,
    RateControl,
)
from repro.video.source import VideoSource


@dataclass(frozen=True)
class BaselineSpec:
    """Declarative description of one baseline scheme."""

    name: str
    codec: str = "x264"
    rate_control: str = "abr"          # "abr" | "cbr"
    pacer: str = "leaky"               # "leaky" | "burst" | "token"
    pacing_factor: float = 1.0
    ace_c: bool = False
    ace_n: bool = False
    salsify: bool = False
    fec: bool = False
    cc: str = "gcc"                    # "gcc" | "bbr" | "copa" | "delivery"
    #: ACE's GCC uses a time-windowed trendline (§5.2).
    time_windowed_trendline: bool = False
    max_target_bitrate_bps: Optional[float] = None
    description: str = ""


class DisplaySync:
    """Joins receiver display records back onto sender frame metrics.

    Walks only frames displayed since the previous sync (the receiver
    appends in display order), keeping the cost O(1) amortized per
    arrival instead of rescanning the whole session.
    """

    def __init__(self, sender: Sender, receiver: TransportReceiver) -> None:
        self.sender = sender
        self.receiver = receiver
        self._cursor = 0

    def sync(self) -> None:
        displayed = self.receiver.displayed
        sender = self.sender
        while self._cursor < len(displayed):
            record = displayed[self._cursor]
            self._cursor += 1
            metrics = sender.frame_metrics.get(record.frame_id)
            if metrics is not None and metrics.displayed_at is None:
                metrics.complete_at = record.complete_at
                metrics.displayed_at = record.displayed_at
                metrics.had_retransmission = record.had_retransmission
                sender.forget_frame(record.frame_id)

    @property
    def pending(self) -> bool:
        return self._cursor < len(self.receiver.displayed)


@dataclass(eq=False)
class FlowStack:
    """A built flow: the sender (codec, source, congestion controller,
    pacer, ACE-N/ACE-C and the spec's :class:`SenderConfig`, all reachable
    as ``sender.*``), its receiver, and the display sync between them.
    """

    sender: Sender
    receiver: TransportReceiver
    display_sync: DisplaySync

    def on_arrival(self, packet: Packet) -> None:
        """Deliver one media packet to the receiver."""
        self.receiver.on_packet(packet)
        # Any frames that just became displayable get their sender-side
        # metrics stamped here.
        if self.display_sync.pending:
            self.display_sync.sync()

    def collect(self, duration: float, packets_lost: int,
                bandwidth_fn: Optional[Callable[[float], float]] = None
                ) -> SessionMetrics:
        """Final display sync, then the flow's :class:`SessionMetrics`.

        Loss is counted by the network the session owns, so the caller
        passes it in.
        """
        self.display_sync.sync()
        sender = self.sender
        metrics = SessionMetrics(duration=duration)
        metrics.frames = [sender.frame_metrics[fid]
                          for fid in sorted(sender.frame_metrics)]
        metrics.packets_sent = sender.pacer.stats.sent_packets
        metrics.packets_lost = packets_lost
        metrics.packets_retransmitted = sender.retransmissions
        metrics.send_events = list(sender.send_events)
        metrics.bwe_history = [(s.time, s.bwe_bps) for s in sender.cc.history]
        metrics.bandwidth_fn = bandwidth_fn
        return metrics


def build_flow_stack(spec: BaselineSpec, clock, rngs: SeedSequenceFactory, *,
                     send_fn: Callable[[Packet], None], transport,
                     send_feedback: Callable, fps: float,
                     initial_bwe_bps: float, max_bwe_bps: float,
                     category: str = "gaming",
                     source_factory: Optional[Callable] = None,
                     pacer_factory: Optional[Callable] = None,
                     audio: bool = False,
                     ace_n_config: Optional[AceNConfig] = None,
                     ace_c_config: Optional[AceCConfig] = None) -> FlowStack:
    """Build one flow's stack for ``spec`` on ``clock``.

    The flow's I/O is the pacer output ``send_fn``, the sender's
    ``transport`` (read for its reverse-delay estimate) and the
    receiver's ``send_feedback``. The codec and source draw from the
    ``codec`` and ``source`` streams of ``rngs``. ``source_factory``
    (``rngs -> source``) replaces the ``category`` video source and
    ``pacer_factory`` (``(clock, send_fn) -> Pacer``) the spec's pacer.
    """
    codec = CodecModel(codec_config(spec.codec), rngs.stream("codec"))
    if source_factory is not None:
        source = source_factory(rngs)
    else:
        source = VideoSource.from_category(category, rngs.stream("source"),
                                           fps=fps)
    sender_cfg = SenderConfig(
        fps=fps,
        ace_c_enabled=spec.ace_c,
        ace_n_enabled=spec.ace_n,
        salsify_mode=spec.salsify,
        fec_enabled=spec.fec,
        audio_enabled=audio,
        max_target_bitrate_bps=spec.max_target_bitrate_bps,
    )
    cc = _build_cc(spec, initial_bwe_bps, max_bwe_bps)
    if pacer_factory is not None:
        pacer = pacer_factory(clock, send_fn)
    else:
        pacer = _build_pacer(spec, clock, send_fn, ace_n_config)
    pacer.set_pacing_rate(cc.bwe_bps)

    ace_n = None
    if spec.ace_n:
        ace_n = AceNController(ace_n_config or AceNConfig())
    ace_c = None
    if spec.ace_c:
        levels = codec.config.levels
        if ace_c_config is None:
            # "Empirical values" for the complexity factors come from
            # the offline per-codec calibration (Fig. 4): seed phi
            # and delta_Te with the encoder's measured level curves.
            budget_bits = initial_bwe_bps / fps
            base_time = levels[0].encode_time(budget_bits)
            ace_c_config = AceCConfig(
                initial_phi=tuple(l.phi for l in levels),
                initial_delta_te=tuple(
                    max(0.0, l.encode_time(budget_bits) - base_time)
                    for l in levels),
            )
        ace_c = AceCController(num_levels=len(levels), fps=fps,
                               config=ace_c_config)

    sender = Sender(clock, source, codec, _build_rate_control(spec), pacer,
                    cc, transport, config=sender_cfg, ace_c=ace_c,
                    ace_n=ace_n)
    receiver = TransportReceiver(clock, send_feedback_fn=send_feedback,
                                 decode_time_fn=codec.decode_time)
    # The receiver learns capture time and quality lazily from the
    # sender's frame metrics as frames are captured.
    receiver.frame_capture_time = _CaptureTimeView(sender)
    receiver.frame_quality = _QualityView(sender)
    return FlowStack(sender, receiver, DisplaySync(sender, receiver))


def _build_rate_control(spec: BaselineSpec) -> RateControl:
    if spec.rate_control == "abr":
        return AbrVbvRateControl()
    if spec.rate_control == "cbr":
        return CbrRateControl()
    raise ValueError(f"unknown rate control {spec.rate_control!r}")


def _build_pacer(spec: BaselineSpec, clock, send_fn,
                 ace_n_config: Optional[AceNConfig]) -> Pacer:
    if spec.pacer == "leaky":
        return LeakyBucketPacer(clock, send_fn,
                                pacing_factor=spec.pacing_factor)
    if spec.pacer == "burst":
        return BurstPacer(clock, send_fn)
    if spec.pacer == "token":
        initial = (ace_n_config or AceNConfig()).initial_bucket_bytes
        return TokenBucketPacer(clock, send_fn, initial_bucket_bytes=initial)
    raise ValueError(f"unknown pacer {spec.pacer!r}")


def _build_cc(spec: BaselineSpec, initial_bwe: float,
              max_bwe: float) -> CongestionController:
    if spec.cc == "gcc":
        return GccController(
            initial_bwe_bps=initial_bwe, max_bwe_bps=max_bwe,
            time_windowed_trendline=spec.time_windowed_trendline)
    if spec.cc == "bbr":
        return BbrController(initial_bwe_bps=initial_bwe, max_bwe_bps=max_bwe)
    if spec.cc == "delivery":
        return DeliveryRateController(initial_bwe_bps=initial_bwe,
                                      max_bwe_bps=max_bwe)
    if spec.cc == "copa":
        return CopaController(initial_bwe_bps=initial_bwe,
                              max_bwe_bps=max_bwe)
    if spec.cc == "delivery-throughput":
        # Throughput-chasing engine: larger headroom, no delay brake —
        # it fills the bottleneck queue and only yields to loss.
        return DeliveryRateController(initial_bwe_bps=initial_bwe,
                                      max_bwe_bps=max_bwe,
                                      headroom=1.25,
                                      delay_brake_s=float("inf"))
    raise ValueError(f"unknown congestion controller {spec.cc!r}")


class _CaptureTimeView(dict):
    """Lazy view mapping frame_id -> capture time from sender metrics."""

    def __init__(self, sender: Sender) -> None:
        super().__init__()
        self._sender = sender

    def get(self, frame_id, default=None):
        metrics = self._sender.frame_metrics.get(frame_id)
        return metrics.capture_time if metrics is not None else default


class _QualityView(dict):
    """Lazy view mapping frame_id -> VMAF from sender metrics."""

    def __init__(self, sender: Sender) -> None:
        super().__init__()
        self._sender = sender

    def get(self, frame_id, default=0.0):
        metrics = self._sender.frame_metrics.get(frame_id)
        return metrics.quality_vmaf if metrics is not None else default
