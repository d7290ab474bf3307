"""ArenaSession tests: golden fingerprints, shared-bottleneck flows,
late joiners, routes, AQM.

Includes the PR's acceptance experiment: 2 ACE + 2 GCC (webrtc-star)
flows on a shared 20 Mbps drop-tail bottleneck must share fairly
(Jain >= 0.9 over the final 10 s), and the Confucius-style discipline
must improve the worst flow's p95 frame latency on the same seed.
"""

import pytest

from repro.arena import (
    ArenaFlowSpec,
    ArenaMetrics,
    ArenaSession,
    BottleneckSpec,
    parse_mix,
)
from repro.net.trace import BandwidthTrace
from repro.rtc.metrics import SessionMetrics
from repro.rtc.session import SessionConfig
from tests.test_sim_regression import fingerprint


def const_trace(mbps=20.0, duration=40.0):
    return BandwidthTrace.constant(mbps * 1e6, duration=duration,
                                   name=f"const{mbps:g}")


def run_arena(flows, mbps=20.0, duration=8.0, seed=5, **kwargs):
    cfg = SessionConfig(duration=duration, seed=seed, initial_bwe_bps=6e6)
    session = ArenaSession(flows, const_trace(mbps, duration + 10), cfg,
                           **kwargs)
    return session, session.run()


# ----------------------------------------------------------------------
# bit-identity goldens: per-flow fingerprints of three pinned arena runs
# ----------------------------------------------------------------------
#: sha256 hexdigests of fingerprint() per flow; any change means the
#: arena's event sequence changed, which must be deliberate (update the
#: constants in the same commit, and say why in its message).
ARENA_GOLDEN = {
    "ace+webrtc-star": {
        1: "34ad3246b0972209292749391e54c9876960226be48eddad18337530e0fa41d5",
        2: "892a85fd12cc104c585bde8425496b64b8b614c33cff2faa65e58ceaa16016ae",
    },
    "ace*2+webrtc-star+always-burst@3@confucius": {
        1: "90fdda1d3f535915ed4d73f954b332f5aed00a732a1efe487f8352099972d5d4",
        2: "776045eb9503fa15dd14660e0718a4481f17e90a3ef21746ea8fb74576af832e",
        3: "b00ad6c2f03ba516ebdfa16640cd35992a65e97886456a3a0fecd7f2bad8874f",
        4: "973f05d3fa277ce71b04da9ca2a56e1fe8324df0a57579e57e15c4994578959e",
    },
    "partial-routes": {
        1: "5e81597605afc3dea183b8e16b7ff30a27bfc8eaf6e16e0d1c0610db5540dbb3",
        2: "4f92163f6b1b4273be0ceb603f0e464a8c15e60e7935edaa4370c5bb78f13e89",
    },
}


def _golden_session(case: str) -> ArenaSession:
    if case == "ace+webrtc-star":
        return ArenaSession(
            [ArenaFlowSpec("ace", flow_id=1),
             ArenaFlowSpec("webrtc-star", flow_id=2)],
            const_trace(30.0, 18.0),
            SessionConfig(duration=6.0, seed=5, initial_bwe_bps=6e6))
    if case == "ace*2+webrtc-star+always-burst@3@confucius":
        return ArenaSession(
            [ArenaFlowSpec(**f)
             for f in parse_mix("ace*2+webrtc-star+always-burst@3")],
            const_trace(20.0, 18.0),
            SessionConfig(duration=6.0, seed=5, initial_bwe_bps=6e6),
            discipline="confucius")
    assert case == "partial-routes"
    # flow 1 crosses both routers; flow 2 bypasses the narrow one.
    return ArenaSession(
        [ArenaFlowSpec("cbr", flow_id=1, route=(0, 1)),
         ArenaFlowSpec("cbr", flow_id=2, route=(0,))],
        config=SessionConfig(duration=8.0, seed=5, initial_bwe_bps=4e6),
        bottlenecks=[BottleneckSpec(const_trace(30.0)),
                     BottleneckSpec(const_trace(6.0))])


@pytest.fixture(scope="module")
def golden_runs():
    return {case: _golden_session(case).run() for case in ARENA_GOLDEN}


@pytest.mark.parametrize("case", sorted(ARENA_GOLDEN))
def test_arena_results_bit_identical_to_golden(golden_runs, case):
    results = golden_runs[case]
    assert {fid: fingerprint(results[fid]) for fid in results} \
        == ARENA_GOLDEN[case], (
        f"arena run {case!r} diverged from its golden per-flow "
        f"fingerprints — arena refactors are supposed to be bit-identical")


# ----------------------------------------------------------------------
# satellite fixes: eager per-flow state, incremental loss counting
# ----------------------------------------------------------------------
def test_sync_cursors_initialized_for_all_flows_at_construction():
    cfg = SessionConfig(duration=4.0, seed=3)
    session = ArenaSession([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2),
                            ArenaFlowSpec("ace", flow_id=3)],
                           const_trace(30.0), cfg)
    assert sorted(session.stacks) == [1, 2, 3]
    for fid, stack in session.stacks.items():
        assert stack.display_sync.receiver is session.receivers[fid]
        assert not stack.display_sync.pending
    assert session._flow_losses == {1: 0, 2: 0, 3: 0}


def test_incremental_loss_counts_match_lost_packets_scan():
    cfg = SessionConfig(duration=6.0, seed=7, initial_bwe_bps=6e6,
                        random_loss_rate=0.02)
    session = ArenaSession([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2)],
                           const_trace(20.0), cfg)
    results = session.run()
    scan = {fid: sum(1 for p in session.path.lost_packets
                     if p.flow_id == fid) for fid in (1, 2)}
    assert sum(scan.values()) > 0, "loss config produced no losses"
    for fid in (1, 2):
        assert results[fid].packets_lost == scan[fid]


# ----------------------------------------------------------------------
# flows sharing one drop-tail bottleneck
# ----------------------------------------------------------------------
def test_two_flows_both_deliver():
    _, results = run_arena([ArenaFlowSpec("ace", flow_id=1),
                            ArenaFlowSpec("webrtc-star", flow_id=2)],
                           mbps=40.0)
    for fid, metrics in results.items():
        assert len(metrics.displayed_frames()) > 0.8 * len(metrics.frames), \
            f"flow {fid} must deliver most frames"


def test_flows_are_isolated_streams():
    """Frames of one flow never leak into the other's receiver."""
    session, _ = run_arena([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2)], mbps=40.0)
    r1 = session.receivers[1]
    r2 = session.receivers[2]
    # both receivers display their own frame 0..N — identity is per-flow
    assert len(r1.displayed) > 100 and len(r2.displayed) > 100
    # sender-side bookkeeping matches its own receiver
    assert len(session.senders[1].frame_metrics) >= len(r1.displayed)


def test_two_identical_flows_share_roughly_fairly():
    """Two equal ACE flows on one bottleneck get comparable bitrates."""
    _, results = run_arena([ArenaFlowSpec("ace", flow_id=1),
                            ArenaFlowSpec("ace", flow_id=2)],
                           mbps=30.0, duration=12.0)
    rates = {}
    for fid, metrics in results.items():
        sizes = [f.size_bytes for f in metrics.frames[-120:]]
        rates[fid] = sum(sizes) / len(sizes) * 8 * 30
    ratio = max(rates.values()) / min(rates.values())
    assert ratio < 2.5, f"equal flows should converge near fairness: {rates}"


def test_single_flow_matches_expectations():
    _, results = run_arena([ArenaFlowSpec("cbr", flow_id=1)], mbps=20.0,
                           duration=4.0)
    metrics = results[1]
    assert metrics.loss_rate() < 0.02
    assert metrics.p95_latency() < 0.5


# ----------------------------------------------------------------------
# late joiners / early leavers
# ----------------------------------------------------------------------
def test_late_joiner_sends_nothing_before_start():
    _, results = run_arena(
        [ArenaFlowSpec("cbr", flow_id=1),
         ArenaFlowSpec("cbr", flow_id=2, start=4.0)], duration=8.0)
    late = results[2]
    assert late.send_events, "late joiner never sent"
    assert min(t for t, _ in late.send_events) >= 4.0
    assert results.specs[2]["start"] == 4.0
    # the early flow was sending from the beginning
    assert min(t for t, _ in results[1].send_events) < 1.0


def test_early_leaver_stops_sending():
    _, results = run_arena(
        [ArenaFlowSpec("cbr", flow_id=1),
         ArenaFlowSpec("cbr", flow_id=2, stop=3.0)], duration=8.0)
    stopped = results[2]
    assert stopped.send_events
    # pacer may flush a queued frame right at the stop boundary
    assert max(t for t, _ in stopped.send_events) < 3.5
    assert max(t for t, _ in results[1].send_events) > 7.0


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validation_errors():
    trace = const_trace()
    cfg = SessionConfig(duration=8.0, seed=3)
    with pytest.raises(ValueError):
        ArenaSession([], trace, cfg)
    with pytest.raises(ValueError):
        ArenaSession([ArenaFlowSpec("ace", flow_id=1),
                      ArenaFlowSpec("cbr", flow_id=1)], trace, cfg)
    with pytest.raises(ValueError):
        ArenaSession([ArenaFlowSpec("ace", flow_id=0)], trace, cfg)
    with pytest.raises(ValueError):       # start outside the run
        ArenaSession([ArenaFlowSpec("ace", flow_id=1, start=8.0)],
                     trace, cfg)
    with pytest.raises(ValueError):       # stop before start
        ArenaSession([ArenaFlowSpec("ace", flow_id=1, start=2.0, stop=1.0)],
                     trace, cfg)
    with pytest.raises(ValueError):       # route references router 1 of 1
        ArenaSession([ArenaFlowSpec("ace", flow_id=1, route=(1,))],
                     trace, cfg)
    with pytest.raises(KeyError):         # unknown discipline
        ArenaSession([ArenaFlowSpec("ace", flow_id=1)], trace, cfg,
                     discipline="red")
    with pytest.raises(ValueError):       # no trace and no bottlenecks
        ArenaSession([ArenaFlowSpec("ace", flow_id=1)], None, cfg)
    # arena flows have no audio substream and no cross traffic: refuse
    # the flags instead of ignoring them
    for name in ("audio", "cross_traffic"):
        with pytest.raises(ValueError, match=f"SessionConfig.{name}"):
            ArenaSession([ArenaFlowSpec("ace", flow_id=1)], trace,
                         SessionConfig(duration=8.0, seed=3, **{name: True}))


def test_cannot_run_twice():
    session, _ = run_arena([ArenaFlowSpec("cbr", flow_id=1)], duration=2.0)
    with pytest.raises(RuntimeError):
        session.run()


# ----------------------------------------------------------------------
# multi-router chains and per-flow routes
# ----------------------------------------------------------------------
def test_router_chain_with_partial_routes(golden_runs):
    results = golden_runs["partial-routes"]
    stats = results.router_stats
    assert len(stats) == 2
    assert stats[0]["enqueued_packets"] > 0
    assert 0 < stats[1]["enqueued_packets"] < stats[0]["enqueued_packets"]
    for fid in (1, 2):
        assert len(results[fid].displayed_frames()) > 0
    # crossing the extra (narrower) router can only add latency
    assert results[1].p95_latency() >= results[2].p95_latency()


def test_arena_metrics_dict_like_api():
    _, results = run_arena([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2)], duration=3.0)
    assert isinstance(results, ArenaMetrics)
    assert len(results) == 2
    assert sorted(results) == [1, 2]
    assert sorted(results.keys()) == [1, 2]
    assert isinstance(results[1], SessionMetrics)
    assert {fid for fid, _ in results.items()} == {1, 2}
    assert all(isinstance(m, SessionMetrics) for m in results.values())
    assert results.baselines() == {1: "cbr", 2: "cbr"}
    assert results.starts() == {1: 0.0, 2: 0.0}
    assert results.bandwidth_fn is not None


def test_enable_telemetry_registers_arena_gauges():
    cfg = SessionConfig(duration=2.0, seed=3)
    session = ArenaSession([ArenaFlowSpec("cbr", flow_id=1),
                            ArenaFlowSpec("cbr", flow_id=2)],
                           const_trace(20.0), cfg)
    tel = session.enable_telemetry()
    assert session.enable_telemetry() is tel      # idempotent
    names = set(tel.registry.names())
    assert "arena.router0.queue_bytes" in names
    for fid in (1, 2):
        assert f"arena.flow{fid}.queue_bytes" in names
        assert f"arena.flow{fid}.queue_share" in names
    session.run()
    tel.registry.sample_all()
    gauge = tel.registry.gauges["arena.flow1.queue_share"]
    assert gauge.value is not None and 0.0 <= gauge.value <= 1.0


# ----------------------------------------------------------------------
# acceptance: fairness and AQM benefit (ISSUE 7 criteria)
# ----------------------------------------------------------------------
ACCEPT_MIX = [("ace", 1), ("ace", 2), ("webrtc-star", 3), ("webrtc-star", 4)]


def _accept_run(discipline):
    cfg = SessionConfig(duration=22.0, seed=3, initial_bwe_bps=6e6)
    session = ArenaSession(
        [ArenaFlowSpec(b, flow_id=f) for b, f in ACCEPT_MIX],
        const_trace(20.0, 40.0), cfg, discipline=discipline)
    return session.run()


@pytest.fixture(scope="module")
def accept_runs():
    return {d: _accept_run(d) for d in ("droptail", "confucius")}


def test_acceptance_droptail_jain_fairness(accept_runs):
    report = accept_runs["droptail"].fairness(window_s=10.0)
    assert report.jain_throughput >= 0.9, (
        f"2xACE + 2xGCC on shared 20 Mbps drop-tail must share fairly; "
        f"Jain={report.jain_throughput:.3f}")
    assert len(report.shares) == 4
    assert all(s.throughput_bps > 0 for s in report.shares)


def test_acceptance_confucius_improves_worst_flow_latency(accept_runs):
    droptail = accept_runs["droptail"].fairness(window_s=10.0)
    confucius = accept_runs["confucius"].fairness(window_s=10.0)
    assert confucius.worst_p95_latency_s < droptail.worst_p95_latency_s, (
        f"Confucius-style discipline should shield the worst flow: "
        f"{confucius.worst_p95_latency_s * 1e3:.1f} ms vs drop-tail "
        f"{droptail.worst_p95_latency_s * 1e3:.1f} ms")
    assert accept_runs["confucius"].discipline == "confucius"
    stats = accept_runs["confucius"].router_stats[0]
    assert stats["discipline"] == "confucius"
