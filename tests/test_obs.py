"""Tests for :mod:`repro.obs` -- tracing, metrics and run telemetry.

The acceptance surface of the observability layer:

* hierarchical spans with parentage, attributes and JSONL round-trip;
* a disabled NullTracer default that records nothing and costs one
  attribute check on hot paths;
* one MetricsRegistry schema unifying the pre-existing ad-hoc stat
  surfaces (caches, incremental STA, serve);
* optimizer telemetry riding the RunRecord envelope without touching
  any byte-stability contract (traced == untraced payloads);
* the ``pops trace`` renderers.
"""

import json

import pytest

from repro.api import Job, RunRecord, Session
from repro.obs import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    OptimizerTelemetry,
    PassTelemetry,
    Stopwatch,
    Tracer,
    hit_rate,
    load_trace_jsonl,
    render_record_telemetry,
    render_spans,
    serve_metrics,
    session_metrics,
)


class TestTracer:
    def test_spans_nest_and_carry_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", circuit="fpd") as outer:
            with tracer.span("inner") as inner:
                inner.set(gates=3)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.attrs == {"gates": 3}
        assert outer.attrs == {"circuit": "fpd"}
        assert inner.duration_s >= 0.0
        assert outer.end_s >= inner.end_s

    def test_event_is_instantaneous_and_parented(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            mark = tracer.event("tick", n=1)
        assert mark.parent_id == span.span_id
        assert mark.duration_s == 0.0
        assert mark.attrs == {"n": 1}

    def test_traced_decorator(self):
        tracer = Tracer()

        @tracer.traced("compute", kind="unit")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        names = [s.name for s in tracer.spans]
        assert names == ["compute"]
        assert tracer.spans[0].attrs == {"kind": "unit"}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", x=1.5):
            tracer.event("b")
        path = str(tmp_path / "trace.jsonl")
        count = tracer.export_jsonl(path)
        assert count == 2
        spans = load_trace_jsonl(path)
        assert [s["name"] for s in spans] == ["a", "b"]
        assert spans[1]["parent"] == spans[0]["id"]
        assert spans[0]["attrs"] == {"x": 1.5}
        # The header line is real JSON carrying the epoch.
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["trace"]["spans"] == 2

    def test_load_rejects_garbage_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "id": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace_jsonl(str(path))

    def test_null_tracer_records_nothing(self, tmp_path):
        tracer = NullTracer()
        assert tracer.enabled is False
        with tracer.span("a") as span:
            span.set(ignored=1)
        tracer.event("b")
        assert tracer.to_dicts() == []
        assert tracer.export_jsonl(str(tmp_path / "x.jsonl")) == 0
        assert NULL_TRACER.enabled is False

    def test_stopwatch(self):
        sw = Stopwatch()
        first = sw.elapsed_s
        assert first >= 0.0
        assert sw.elapsed_s >= first
        sw.restart()
        assert sw.elapsed_s < 10.0


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("jobs", 2)
        registry.inc("jobs")
        registry.set_gauge("depth", 4.0)
        for value in (1.0, 2.0, 3.0):
            registry.observe("wait_s", value)
        snap = registry.snapshot()
        assert snap["counters"] == {"jobs": 3}
        assert snap["gauges"] == {"depth": 4.0}
        wait = snap["histograms"]["wait_s"]
        assert wait["count"] == 3
        assert wait["total"] == 6.0
        assert wait["min"] == 1.0 and wait["max"] == 3.0
        assert wait["mean"] == 2.0
        assert wait["p50"] == 2.0

    def test_name_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_empty_histogram_summary(self):
        h = Histogram()
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["p99"] is None

    def test_hit_rate(self):
        assert hit_rate(0, 0) is None
        assert hit_rate(3, 1) == 0.75


class TestTelemetry:
    def _sample(self):
        telemetry = OptimizerTelemetry(tc_ps=900.0, initial_delay_ps=1200.0)
        telemetry.passes.append(
            PassTelemetry(
                index=0,
                critical_delay_ps=1000.0,
                paths_extracted=4,
                proposed=4,
                applied_sizing=3,
                applied_structural=1,
                skipped=0,
                elapsed_s=0.25,
            )
        )
        telemetry.passes.append(
            PassTelemetry(
                index=1,
                critical_delay_ps=950.0,
                paths_extracted=4,
                proposed=4,
                applied_sizing=2,
                skipped=2,
                elapsed_s=0.20,
            )
        )
        telemetry.final_delay_ps = 950.0
        telemetry.rollback = "sizing"
        telemetry.rolled_back_passes = 1
        return telemetry

    def test_derived_fields(self):
        telemetry = self._sample()
        assert telemetry.delay_trajectory_ps == [1000.0, 950.0]
        assert telemetry.accepted == 6
        assert telemetry.rejected == 2

    def test_round_trip(self):
        telemetry = self._sample()
        data = telemetry.as_dict()
        back = OptimizerTelemetry.from_dict(data)
        assert back.as_dict() == data
        # Derived fields are serialized for consumers but recomputed.
        assert data["delay_trajectory_ps"] == [1000.0, 950.0]
        assert back.accepted == telemetry.accepted


@pytest.fixture(scope="module")
def traced_run():
    """One traced circuit-scope optimize run shared by the tests below."""
    tracer = Tracer()
    session = Session(tracer=tracer)
    job = Job(benchmark="fpd", tc_ratio=1.4, scope="circuit")
    record = session.optimize(job)
    return session, tracer, job, record


class TestSessionIntegration:
    def test_span_taxonomy(self, traced_run):
        _, tracer, _, _ = traced_run
        names = {s.name for s in tracer.spans}
        assert "session.optimize" in names
        assert "optimize.pass" in names
        assert "optimize.path" in names

    def test_telemetry_on_record(self, traced_run):
        _, _, _, record = traced_run
        telemetry = record.telemetry
        assert telemetry is not None
        assert telemetry["passes"], "expected per-pass telemetry"
        assert len(telemetry["delay_trajectory_ps"]) == len(telemetry["passes"])
        assert telemetry["accepted"] >= 1
        assert telemetry["rollback"] in ("none", "sizing", "structural")

    def test_telemetry_rides_timing_block_only(self, traced_run):
        _, _, _, record = traced_run
        assert "telemetry" in record.to_dict(with_timing=True)
        assert "telemetry" not in record.to_dict(with_timing=False)

    def test_traced_equals_untraced_payload(self, traced_run):
        _, _, job, record = traced_run
        plain = Session().optimize(job)
        assert plain.to_json(with_timing=False) == record.to_json(
            with_timing=False
        )

    def test_record_round_trip_and_old_schema(self, traced_run):
        session, _, _, record = traced_run
        data = record.to_dict(with_timing=True)
        back = RunRecord.from_dict(data, library=session.library)
        assert back.telemetry == record.telemetry
        # An old reader's record (no telemetry key) still parses.
        legacy = dict(data)
        del legacy["telemetry"]
        old = RunRecord.from_dict(legacy, library=session.library)
        assert old.telemetry is None

    def test_cache_stats_hit_rates_and_evictions(self, traced_run):
        session, _, job, _ = traced_run
        session.optimize(job)  # warm repeat: guaranteed hits
        stats = session.cache_stats()
        assert set(stats["hit_rates"]) == set(stats["caches"])
        rate = stats["hit_rates"]["benchmarks"]
        assert rate is not None and 0.0 < rate <= 1.0
        for name, cache in stats["caches"].items():
            assert cache["hit_rate"] == stats["hit_rates"][name]
        assert stats["evictions"] == sum(
            c["evictions"] for c in stats["caches"].values()
        )

    def test_session_metrics_schema(self, traced_run):
        session, _, _, _ = traced_run
        snap = session_metrics(session)
        assert snap["schema"] == 1
        assert snap["sta"]["engines"] >= 1
        assert snap["sta"]["full_builds"] >= 1
        assert "benchmarks" in snap["session"]["caches"]
        json.dumps(snap)  # JSON-native end to end


class TestRenderers:
    def test_render_spans(self, traced_run):
        _, tracer, _, _ = traced_run
        text = render_spans(tracer.to_dicts())
        assert "session.optimize" in text
        assert "cumulative by name" in text
        assert "ms" in text

    def test_render_spans_elides(self):
        tracer = Tracer()
        for i in range(10):
            with tracer.span("s", i=i):
                pass
        text = render_spans(tracer.to_dicts(), max_rows=3)
        assert "7 more spans elided" in text

    def test_render_empty_trace(self):
        assert "empty trace" in render_spans([])

    def test_render_record_telemetry(self, traced_run):
        _, _, _, record = traced_run
        text = render_record_telemetry(record.to_dict(with_timing=True))
        assert "delay    :" in text
        assert "pass   delay_ps" in text

    def test_render_record_without_telemetry(self, traced_run):
        _, _, _, record = traced_run
        data = record.to_dict(with_timing=False)
        assert "telemetry: none recorded" in render_record_telemetry(data)


class TestServeMetrics:
    def test_metrics_op_and_snapshot(self, tmp_path):
        from repro.serve import ServeClient, ServeConfig, start_server_thread

        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"),
            threads=2,
            heavy_threads=1,
            store_dir=str(tmp_path / "store"),
            cache_limit=64,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        try:
            client.submit_record("bounds", Job(benchmark="fpd"))
            snap = client.metrics()
            assert snap["serve"]["executed"] == 1
            assert snap["serve"]["queue_depth"] == 0
            assert snap["serve"]["inflight"] == 0
            assert snap["serve"]["pools"]["threads"] == 2
            assert snap["store"]["writes"] == 1
            exec_hist = snap["timings"]["serve.exec_s"]
            assert exec_hist["count"] == 1
            wire = serve_metrics(server)
            assert wire["serve"]["executed"] == 1
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_serve_logging_emits_job_lifecycle(self, tmp_path, caplog):
        import logging

        from repro.serve import ServeClient, ServeConfig, start_server_thread

        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"),
            threads=2,
            heavy_threads=1,
            cache_limit=64,
        )
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            server, thread = start_server_thread(config)
            client = ServeClient(socket_path=config.socket_path)
            try:
                client.submit_record("bounds", Job(benchmark="fpd"))
            finally:
                server.request_shutdown(drain=True)
                thread.join(timeout=60)
        text = caplog.text
        assert "serving on" in text
        assert "accepted" in text
        assert "done in" in text
        assert "shutdown complete" in text
