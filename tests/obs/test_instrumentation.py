"""Acceptance tests for the hot-path instrumentation.

Two contracts the observability layer must keep:

* **Zero interference** — running a query with the tracer installed must
  return bit-identical rankings, scores and access accounting to the
  untraced run.
* **Honest timings** — the recorded span tree must actually tile the
  query's wall time: the root's direct children cover >= 95% of the root
  span and every child fits inside its parent.
"""

import time

import pytest

from repro.config import EngineConfig, ProximityConfig, ScoringConfig, WorkloadConfig
from repro.core.engine import SocialSearchEngine
from repro.obs.trace import Tracer, use
from repro.workload.datasets import scaled_dataset
from repro.workload.queries import generate_workload


@pytest.fixture(scope="module")
def corpus():
    dataset = scaled_dataset(120, seed=11, homophily=0.6)
    queries = generate_workload(
        dataset, WorkloadConfig(num_queries=12, k=10, seed=5))
    return dataset, queries


def exact_engine(dataset):
    """The exact scan over uncached PPR: every query computes its proximity
    row inside ``algorithm.search``, so a span tree times real work (a
    ~0.1 ms shard-served scan is short enough that span bookkeeping alone
    is ~5 % of the root)."""
    return SocialSearchEngine(dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(vectorized=True),
        proximity=ProximityConfig(measure="ppr", cache_size=0),
    ))


def signature(result):
    return ([(item.item_id, item.score) for item in result.items],
            result.accounting.to_dict())


class TestTracedEquivalence:
    def test_traced_run_is_bit_identical(self, corpus):
        dataset, queries = corpus
        untraced_engine = exact_engine(dataset)
        traced_engine = exact_engine(dataset)
        expected = [signature(untraced_engine.run(query)) for query in queries]
        with use(Tracer(sample_rate=1.0, capacity=len(queries))):
            observed = [signature(traced_engine.run(query))
                        for query in queries]
        assert observed == expected

    def test_partial_sampling_is_bit_identical(self, corpus):
        dataset, queries = corpus
        untraced_engine = exact_engine(dataset)
        sampled_engine = exact_engine(dataset)
        expected = [signature(untraced_engine.run(query)) for query in queries]
        with use(Tracer(sample_rate=0.5, seed=3)) as tracer:
            observed = [signature(sampled_engine.run(query))
                        for query in queries]
            assert 0 < tracer.roots_sampled < tracer.roots_started
        assert observed == expected


class TestSpanTreeHonesty:
    def test_stage_coverage_and_nesting(self, corpus):
        dataset, queries = corpus
        engine = exact_engine(dataset)
        for query in queries:  # warm-up pass: numpy buffers, algorithm instance
            engine.run(query)
        with use(Tracer(sample_rate=1.0, capacity=len(queries))) as tracer:
            walls = []
            for query in queries:
                started = time.perf_counter()
                engine.run(query)
                walls.append(time.perf_counter() - started)
            traces = tracer.recent(limit=len(queries))
        assert len(traces) == len(queries)

        covered_total = 0.0
        wall_total = sum(walls)
        for trace in traces:
            root = trace.root
            assert root.name == "engine.run"
            # Every span nests inside its parent's interval.
            by_id = {span.span_id: span for span in trace.spans}
            for span in trace.spans:
                if span.parent_id is None:
                    continue
                parent = by_id[span.parent_id]
                assert parent.started <= span.started
                assert span.ended <= parent.ended + 1e-9
            covered_total += sum(
                child.duration_seconds
                for child in trace.children_of(root.span_id))
        # The root's direct children (plan.route + algorithm.search) tile
        # >= 95% of the recorded root spans in aggregate.
        root_total = sum(trace.root.duration_seconds for trace in traces)
        assert covered_total / root_total >= 0.95
        # ... and the recorded roots account for >= 90% of the measured
        # wall time (the remainder is the tracer's own bookkeeping).
        assert root_total / wall_total >= 0.90


class TestServedRequestTrace:
    """A served request is one thread, hence one trace or none at all."""

    def test_sampled_serve_is_one_trace(self, corpus):
        from repro.service import QueryService

        dataset, queries = corpus
        with QueryService(exact_engine(dataset)) as service, \
                use(Tracer(sample_rate=1.0)) as tracer:
            served = service.serve(queries[0], request_id="req-1")
            assert served.outcome == "computed"
            assert tracer.retained() == 1
            trace = tracer.get("req-1")
        root = trace.root
        assert root.name == "request"
        assert root.attributes["outcome"] == "computed"
        execute = trace.find("service.execute")
        assert execute.parent_id == root.span_id
        assert trace.find("engine.run").parent_id == execute.span_id
        assert {span.thread for span in trace.spans} == {root.thread}

    def test_unsampled_serve_retains_no_fragment(self, corpus):
        from repro.service import QueryService

        dataset, queries = corpus
        with QueryService(exact_engine(dataset)) as service, \
                use(Tracer(sample_rate=0.0, seed=1)) as tracer:
            for query in queries:
                assert service.serve(query).outcome == "computed"
            assert tracer.roots_started == len(queries)
            assert tracer.roots_sampled == 0
            assert tracer.retained() == 0
