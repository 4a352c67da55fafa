"""Tests for the hierarchical tracer."""

import json
import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    Tracer,
    current_span,
    get_tracer,
    render_tree,
    set_tracer,
    span,
    stage_breakdown,
    use,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestSpanTree:
    def test_nesting_follows_thread_context(self):
        tracer = Tracer()
        with tracer.trace("query") as root:
            with tracer.span("plan") as plan:
                assert plan.parent_id == root.span_id
                with tracer.span("route") as route:
                    assert route.parent_id == plan.span_id
            with tracer.span("execute") as execute:
                assert execute.parent_id == root.span_id
        trace = tracer.last()
        assert [s.name for s in trace.spans] == [
            "query", "plan", "route", "execute"]
        assert trace.root.name == "query"
        assert [s.name for s in trace.children_of(root.span_id)] == [
            "plan", "execute"]

    def test_durations_use_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.trace("query"):
            with tracer.span("stage"):
                clock.advance(0.25)
            clock.advance(0.75)
        trace = tracer.last()
        assert trace.duration_seconds == pytest.approx(1.0)
        assert trace.find("stage").duration_seconds == pytest.approx(0.25)

    def test_attributes_set_and_add(self):
        tracer = Tracer()
        with tracer.trace("query") as root:
            root.set(algorithm="exact", k=10)
            root.add("items_scanned", 3)
            root.add("items_scanned", 4)
        trace = tracer.last()
        assert trace.root.attributes == {
            "algorithm": "exact", "k": 10, "items_scanned": 7}

    def test_exception_marks_error_and_finishes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("query"):
                raise RuntimeError("boom")
        trace = tracer.last()
        assert trace.root.attributes["error"] == "RuntimeError"
        assert trace.root.ended is not None

    def test_orphan_span_starts_its_own_trace(self):
        tracer = Tracer()
        with tracer.span("standalone"):
            pass
        assert tracer.last().root.name == "standalone"

    def test_context_does_not_cross_threads(self):
        """Span context is thread-local: another thread's span never nests
        under this thread's open root, it roots a trace of its own."""
        tracer = Tracer()
        results = {}

        with tracer.trace("query") as root:
            def other_thread():
                with tracer.span("elsewhere") as elsewhere:
                    results["parent_id"] = elsewhere.parent_id
                    results["trace"] = elsewhere.trace

            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            with tracer.span("here") as here:
                assert here.parent_id == root.span_id
        assert results["parent_id"] is None
        assert results["trace"] is not root.trace
        assert root.trace.find("elsewhere") is None

    def test_span_under_unsampled_root_is_null(self):
        tracer = Tracer(sample_rate=0.0, seed=1)
        with tracer.trace("query") as root:
            assert not root
            assert tracer.span("child") is NULL_SPAN
        # Suppression ends with the root: the next orphan span is a root
        # of its own again (and takes its own sampling coin flip).
        assert tracer.span("orphan") is not NULL_SPAN
        assert tracer.roots_started == 2


class TestSampling:
    def test_zero_rate_records_nothing(self):
        tracer = Tracer(sample_rate=0.0, seed=1)
        for _ in range(10):
            with tracer.trace("query"):
                with tracer.span("stage"):
                    pass
        assert tracer.roots_started == 10
        assert tracer.roots_sampled == 0
        assert tracer.last() is None

    def test_partial_rate_is_deterministic_with_seed(self):
        tracer = Tracer(sample_rate=0.5, seed=42)
        for _ in range(100):
            with tracer.trace("query"):
                pass
        assert tracer.roots_sampled == tracer.capacity or \
            0 < tracer.roots_sampled < 100

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestRingBuffer:
    def test_capacity_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        ids = []
        for _ in range(3):
            with tracer.trace("query") as root:
                pass
            ids.append(root.trace.trace_id)
        assert tracer.get(ids[0]) is None
        assert tracer.get(ids[1]) is not None
        assert tracer.get(ids[2]) is not None
        assert [t.trace_id for t in tracer.recent()] == [ids[2], ids[1]]

    def test_external_trace_id_is_honoured(self):
        tracer = Tracer()
        with tracer.trace("query", trace_id="req-abc123"):
            pass
        assert tracer.get("req-abc123").trace_id == "req-abc123"

    def test_clear(self):
        tracer = Tracer()
        with tracer.trace("query"):
            pass
        tracer.clear()
        assert tracer.last() is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestGlobalTracer:
    def test_disabled_call_sites_return_null_span(self):
        assert get_tracer() is None
        assert span("anything") is NULL_SPAN
        assert current_span() is None
        with span("anything") as s:
            s.set(ignored=True).add("count")
        assert not s

    def test_use_installs_and_restores(self):
        tracer = Tracer()
        with use(tracer):
            assert get_tracer() is tracer
            with span("query"):
                pass
        assert get_tracer() is None
        assert tracer.last().root.name == "query"

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        assert set_tracer(tracer) is None
        assert set_tracer(None) is tracer


class TestExport:
    def _sample_trace(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.trace("query", algorithm="exact"):
            with tracer.span("plan"):
                clock.advance(0.010)
            with tracer.span("execute") as ex:
                ex.add("items_scanned", 12)
                clock.advance(0.030)
        return tracer.last()

    def test_jsonl_round_trips(self):
        trace = self._sample_trace()
        rows = [json.loads(line)
                for line in trace.to_jsonl().strip().splitlines()]
        assert len(rows) == 3
        assert rows[0]["name"] == "query"
        assert rows[0]["parent_id"] is None
        assert rows[2]["attributes"]["items_scanned"] == 12

    def test_chrome_export_shape(self):
        trace = self._sample_trace()
        payload = json.loads(trace.to_chrome())
        events = payload["traceEvents"]
        assert len(events) == 3
        assert all(event["ph"] == "X" for event in events)
        root = next(e for e in events if e["name"] == "query")
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(40_000.0)  # 40 ms in us

    def test_to_dict_payload(self):
        trace = self._sample_trace()
        payload = trace.to_dict()
        assert payload["trace_id"] == trace.trace_id
        assert payload["duration_ms"] == pytest.approx(40.0)
        assert len(payload["spans"]) == 3


class TestRendering:
    def test_render_tree_shows_shares_and_coverage(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.trace("query"):
            with tracer.span("plan"):
                clock.advance(0.025)
            with tracer.span("execute"):
                clock.advance(0.075)
        text = render_tree(tracer.last())
        assert "plan" in text and "execute" in text
        assert "25.0%" in text
        assert "75.0%" in text
        assert "stage coverage: 100.0%" in text

    def test_stage_breakdown_aggregates_across_traces(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for _ in range(2):
            with tracer.trace("query"):
                with tracer.span("execute"):
                    clock.advance(0.010)
        breakdown = stage_breakdown(tracer.recent())
        assert breakdown["execute"]["count"] == 2
        assert breakdown["execute"]["total_ms"] == pytest.approx(20.0)
        assert breakdown["execute"]["mean_ms"] == pytest.approx(10.0)
