"""Unit tests for the observability toolkit (repro.obs)."""

import json
import logging

import pytest

from repro.obs import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Telemetry,
    Tracer,
    chrome_trace_events,
    configure_logging,
    get_logger,
    verbosity_to_level,
)


class TestHistogram:
    def test_bucket_assignment_upper_inclusive(self):
        h = Histogram([10.0, 20.0])
        for v in (5.0, 10.0, 15.0, 20.0, 25.0):
            h.record(v)
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.sum == 75.0
        assert h.mean == 15.0

    def test_percentiles(self):
        h = Histogram([1.0, 2.0, 4.0])
        for v in [0.5] * 50 + [1.5] * 40 + [3.0] * 9 + [100.0]:
            h.record(v)
        assert h.percentile(50) == 1.0
        assert h.percentile(90) == 2.0
        assert h.percentile(99) == 4.0
        assert h.percentile(100) == 4.0  # overflow clamps to last edge

    def test_empty_and_validation(self):
        h = Histogram([1.0])
        assert h.percentile(99) == 0.0 and h.mean == 0.0
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])
        with pytest.raises(ValueError):
            h.percentile(0)

    def test_to_dict_roundtrips_through_json(self):
        h = Histogram([1.0, 10.0])
        h.record(5.0)
        data = json.loads(json.dumps(h.to_dict()))
        assert data["counts"] == [0, 1, 0]
        assert data["count"] == 1


class TestMetricsRegistry:
    def test_instruments_are_idempotent(self):
        m = MetricsRegistry()
        c = m.counter("a")
        c.inc()
        c.inc(2)
        assert m.counter("a") is c and c.value == 3
        g = m.gauge("b")
        g.set(1.5)
        assert m.gauge("b").value == 1.5
        h = m.histogram("c", [1.0, 2.0])
        assert m.histogram("c") is h

    def test_kind_conflicts_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ValueError):
            m.gauge("x")
        with pytest.raises(ValueError):
            m.histogram("x", [1.0])
        with pytest.raises(ValueError):
            m.histogram("fresh")  # first use needs boundaries

    def test_to_dict_and_dump(self, tmp_path):
        m = MetricsRegistry()
        m.counter("n").inc(7)
        m.histogram("lat", [1.0]).record(0.5)
        path = tmp_path / "m.json"
        m.dump_json(path)
        data = json.loads(path.read_text())
        assert data["counters"]["n"] == 7
        assert data["histograms"]["lat"]["counts"] == [1, 0]

    def test_null_registry_is_free_and_silent(self):
        n = NullRegistry()
        n.counter("a").inc(5)
        n.gauge("b").set(9)
        n.histogram("c").record(1.0)
        assert n.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert not n.enabled and not NULL_REGISTRY.enabled


class TestTracer:
    def test_emit_and_cap(self):
        t = Tracer(max_events=2)
        for i in range(5):
            t.emit({"kind": "x", "i": i})
        assert len(t) == 2 and t.dropped == 3

    def test_null_tracer_discards(self):
        t = NullTracer()
        t.emit({"kind": "x"})
        assert len(t) == 0 and not t.enabled

    def test_jsonl_export(self, tmp_path):
        t = Tracer()
        t.emit({"kind": "read", "b": 1})
        t.emit({"kind": "scrub", "a": 2})
        path = tmp_path / "t.jsonl"
        t.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["read", "scrub"]

    def test_write_dispatches_on_extension(self, tmp_path):
        t = Tracer()
        t.emit({"kind": "misc", "time_ns": 5.0})
        t.write(tmp_path / "a.jsonl")
        t.write(tmp_path / "a.json")
        assert json.loads((tmp_path / "a.jsonl").read_text())["kind"] == "misc"
        chrome = json.loads((tmp_path / "a.json").read_text())
        assert "traceEvents" in chrome

    def test_chrome_conversion_known_kinds(self):
        records = [
            {"kind": "read", "core": 0, "bank": 3, "line": 9, "mode": "R",
             "queue_depth": 2, "issue_ns": 100.0, "start_ns": 120.0,
             "complete_ns": 300.0},
            {"kind": "write", "cause": "demand", "bank": 1, "line": 4,
             "start_ns": 0.0, "complete_ns": 250.0},
            {"kind": "write_cancel", "bank": 1, "line": 4, "progress": 0.1,
             "time_ns": 50.0},
            {"kind": "scrub", "time_ns": 10.0, "lines": 4, "rewrites": 1,
             "duration_ns": 600.0, "skipped": False},
            {"kind": "scrub", "time_ns": 20.0, "lines": 4, "rewrites": 0,
             "duration_ns": 0.0, "skipped": True},
            {"kind": "pool_broken", "requeued": 1, "time_s": 0.5},
        ]
        events = chrome_trace_events(records)
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        read = next(e for e in events if e.get("cat") == "read")
        assert read["ts"] == pytest.approx(0.1) and read["dur"] == pytest.approx(0.2)
        assert read["args"]["queue_depth"] == 2
        # The whole thing must be JSON-serializable (Chrome requirement).
        json.dumps(events)


class TestTelemetry:
    def test_enabled_logic(self):
        assert not Telemetry().enabled
        assert not Telemetry(tracer=NullTracer(), metrics=NullRegistry()).enabled
        assert Telemetry(tracer=Tracer()).enabled
        assert Telemetry(metrics=MetricsRegistry()).enabled


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(9) == logging.DEBUG

    def test_configure_is_idempotent(self):
        logger = configure_logging(verbosity=1)
        configure_logging(verbosity=1)
        names = [h.get_name() for h in logger.handlers]
        assert names.count("repro-cli") == 1
        assert logger.level == logging.INFO

    def test_explicit_level_and_namespace(self):
        logger = configure_logging(level="debug")
        assert logger.level == logging.DEBUG
        assert get_logger("x").name == "repro.x"
        assert get_logger().name == "repro"
        with pytest.raises(ValueError):
            configure_logging(level="nope")


class TestProgressLine:
    def _tty(self):
        import io

        class Tty(io.StringIO):
            def isatty(self):
                return True

        return Tty()

    def test_disabled_without_app_opt_in_even_on_tty(self):
        from repro.obs.progress import ProgressLine, set_progress_allowed

        previous = set_progress_allowed(False)
        try:
            line = ProgressLine(10, stream=self._tty())
            assert not line.enabled
        finally:
            set_progress_allowed(previous)

    def test_opt_in_plus_tty_enables(self):
        from repro.obs.progress import ProgressLine, set_progress_allowed

        previous = set_progress_allowed(True)
        try:
            import io

            assert ProgressLine(10, stream=self._tty()).enabled
            # Non-TTY stderr (CI logs, redirects) still suppresses.
            assert not ProgressLine(10, stream=io.StringIO()).enabled
        finally:
            set_progress_allowed(previous)

    def test_line_format_and_finish(self):
        from repro.obs.progress import ProgressLine

        stream = self._tty()
        line = ProgressLine(4, label="run units", stream=stream, enabled=True)
        line.update(1, detail="gcc/Ideal")
        text = stream.getvalue()
        assert "\r[1/4] 25% run units" in text
        assert "eta" in text and "gcc/Ideal" in text
        line.update(4)
        assert " in " in stream.getvalue()
        line.close()
        assert stream.getvalue().endswith("\n")

    def test_disabled_line_writes_nothing(self):
        import io

        from repro.obs.progress import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(4, stream=stream, enabled=False)
        line.update(2)
        line.close()
        assert stream.getvalue() == ""

    def test_set_progress_allowed_returns_previous(self):
        from repro.obs.progress import progress_allowed, set_progress_allowed

        original = progress_allowed()
        try:
            assert set_progress_allowed(True) == original
            assert set_progress_allowed(False) is True
        finally:
            set_progress_allowed(original)
