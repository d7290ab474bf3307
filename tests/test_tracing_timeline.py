"""Tests for event tracing and frame-timeline export."""

import pytest

from repro.analysis.timeline import frame_rows, load_csv, to_csv
from repro.net.trace import BandwidthTrace
from repro.rtc.baselines import build_session
from repro.rtc.session import SessionConfig
from repro.sim.events import EventLoop
from repro.sim.tracing import Tracer


class TestTracer:
    def test_records_executed_events(self):
        loop = EventLoop()
        tracer = Tracer(loop).install()
        loop.call_at(0.1, lambda: None, name="a")
        loop.call_at(0.2, lambda: None, name="b")
        loop.drain()
        assert [r.name for r in tracer.records] == ["a", "b"]
        assert [r.time for r in tracer.records] == [0.1, 0.2]

    def test_name_filter(self):
        loop = EventLoop()
        tracer = Tracer(loop, name_filter=lambda n: n.startswith("x")).install()
        loop.call_at(0.1, lambda: None, name="x.keep")
        loop.call_at(0.2, lambda: None, name="y.drop")
        loop.drain()
        assert [r.name for r in tracer.records] == ["x.keep"]

    def test_uninstall_stops_recording(self):
        loop = EventLoop()
        tracer = Tracer(loop).install()
        loop.call_at(0.1, lambda: None, name="before")
        loop.drain()
        tracer.uninstall()
        loop.call_at(0.2, lambda: None, name="after")
        loop.drain()
        assert [r.name for r in tracer.records] == ["before"]

    def test_capacity_drops_are_counted_and_surfaced(self):
        loop = EventLoop()
        tracer = Tracer(loop, max_records=2).install()
        for i in range(5):
            loop.call_at(0.1 * (i + 1), lambda: None, name=f"e{i}")
        loop.drain()
        assert [r.name for r in tracer.records] == ["e0", "e1"]
        assert tracer.dropped_records == 3
        assert tracer.counts()["<dropped>"] == 3
        assert "3 record(s) dropped" in tracer.dump()

    def test_no_drops_no_sentinel(self):
        loop = EventLoop()
        tracer = Tracer(loop).install()
        loop.call_at(0.1, lambda: None, name="a")
        loop.drain()
        assert "<dropped>" not in tracer.counts()
        assert "dropped" not in tracer.dump()

    def test_out_of_order_uninstall_keeps_later_tracer(self):
        """Uninstalling the first-installed tracer must not disconnect a
        tracer installed after it."""
        loop = EventLoop()
        first = Tracer(loop).install()
        second = Tracer(loop).install()
        loop.call_at(0.1, lambda: None, name="both")
        loop.drain()
        first.uninstall()  # out of order: second is still installed
        loop.call_at(0.2, lambda: None, name="second-only")
        loop.drain()
        assert [r.name for r in first.records] == ["both"]
        assert [r.name for r in second.records] == ["both", "second-only"]
        second.uninstall()
        assert loop.observers == []  # no observers left

    def test_out_of_order_uninstall_three_deep(self):
        loop = EventLoop()
        a = Tracer(loop).install()
        b = Tracer(loop).install()
        c = Tracer(loop).install()
        b.uninstall()  # splice out the middle
        loop.call_at(0.1, lambda: None, name="x")
        loop.drain()
        assert [r.name for r in a.records] == ["x"]
        assert b.records == []
        assert [r.name for r in c.records] == ["x"]
        a.uninstall()
        c.uninstall()
        assert loop.observers == []  # no observers left

    def test_annotations_and_queries(self):
        loop = EventLoop()
        tracer = Tracer(loop).install()
        loop.call_at(0.1, lambda: tracer.annotate("mid-run"), name="work")
        loop.drain()
        names = tracer.counts()
        assert names["work"] == 1
        assert names["annotation"] == 1
        assert len(tracer.between(0.05, 0.15)) == 2

    def test_traces_a_real_session(self):
        trace = BandwidthTrace.constant(15e6, duration=10.0)
        session = build_session(
            "cbr", trace, SessionConfig(duration=2.0, seed=2,
                                        initial_bwe_bps=8e6))
        tracer = Tracer(session.loop,
                        name_filter=lambda n: n == "sender.capture").install()
        session.run()
        assert 55 <= len(tracer.records) <= 70  # one per frame interval

    def test_dump_truncates(self):
        loop = EventLoop()
        tracer = Tracer(loop).install()
        for i in range(100):
            loop.call_at(i * 0.01, lambda: None, name="tick")
        loop.drain()
        text = tracer.dump(limit=10)
        assert "more" in text


class TestTimeline:
    @pytest.fixture(scope="class")
    def metrics(self):
        trace = BandwidthTrace.constant(15e6, duration=12.0)
        session = build_session(
            "webrtc-star", trace, SessionConfig(duration=3.0, seed=2,
                                                initial_bwe_bps=8e6))
        return session.run()

    def test_rows_cover_all_frames(self, metrics):
        rows = frame_rows(metrics)
        assert len(rows) == len(metrics.frames)
        assert rows[0]["frame_id"] == 0
        assert rows[-1]["e2e_latency"] is None or rows[-1]["e2e_latency"] > 0

    def test_csv_roundtrip(self, metrics, tmp_path):
        path = tmp_path / "timeline.csv"
        text = to_csv(metrics, path)
        assert text.startswith("frame_id,")
        loaded = load_csv(path)
        assert len(loaded) == len(metrics.frames)
        assert loaded[0]["frame_id"] == "0"
        assert float(loaded[5]["capture_time"]) == pytest.approx(5 / 30.0)

    def test_csv_write_is_atomic(self, metrics, tmp_path):
        path = tmp_path / "timeline.csv"
        to_csv(metrics, path)
        # Same-dir tmp file from the atomic write must be gone.
        assert [p.name for p in tmp_path.iterdir()] == ["timeline.csv"]


class TestTimelineBlame:
    """The blame_* columns: pacer-residence attribution per frame."""

    @pytest.fixture(scope="class")
    def session_run(self):
        trace = BandwidthTrace.constant(15e6, duration=12.0)
        session = build_session(
            "ace", trace, SessionConfig(duration=3.0, seed=2,
                                        initial_bwe_bps=8e6))
        metrics = session.run()
        return session, metrics

    def test_rows_carry_blame_breakdown(self, session_run):
        from repro.obs.attrib import BLAME_CATEGORIES

        session, metrics = session_run
        attribution = session.attribution()
        rows = frame_rows(metrics, attribution)
        assert len(rows) == len(metrics.frames)
        attributed = [r for r in rows if r["blame_dominant"]]
        assert attributed, "no frame got a dominant blame category"
        assert all(r["blame_dominant"] in BLAME_CATEGORIES
                   for r in attributed)
        for row in rows:
            for cat in BLAME_CATEGORIES:
                assert row["blame_" + cat.replace("-", "_")] >= 0.0

    def test_csv_gains_blame_columns_only_with_attribution(
            self, session_run, tmp_path):
        from repro.analysis.timeline import BLAME_COLUMNS, COLUMNS

        session, metrics = session_run
        plain = to_csv(metrics)
        assert plain.splitlines()[0] == ",".join(COLUMNS)
        path = tmp_path / "blame.csv"
        blamed = to_csv(metrics, path, session.attribution())
        header = blamed.splitlines()[0]
        assert header == ",".join(COLUMNS + BLAME_COLUMNS)
        loaded = load_csv(path)
        assert len(loaded) == len(metrics.frames)
        # Per-category residence seconds parse back as floats.
        for cat_col in BLAME_COLUMNS[1:]:
            float(loaded[0][cat_col])
