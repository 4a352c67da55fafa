"""Experiment F10 (serving): throughput and tail latency of the query service.

Not a figure from the paper — this measures the online-serving scenario the
ROADMAP's north star asks for.  A Zipf-skewed request stream (hot queries
repeat, mirroring real traffic) is replayed by closed-loop client threads
against :class:`QueryService`, once with the result cache off and once
with it on.  Every request runs on the client thread that made it, and
identical in-flight requests coalesce in both arms, so the arms differ
only by the result cache.

Expected shape: the cached arm reports a high hit rate and a much lower
median request latency, because the hot head of the Zipf distribution is
served from memory instead of recomputed.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro import Query, QueryService, ServiceConfig
from repro.eval import format_table
from repro.service import percentile
from repro.workload.distributions import ZipfSampler

from conftest import BENCH_SEED, make_engine, make_workload, write_result

CLIENT_THREADS = 8
NUM_REQUESTS = 200
POOL_SIZE = 24
ZIPF_EXPONENT = 1.1


def make_request_stream(dataset, num_requests=NUM_REQUESTS, pool_size=POOL_SIZE,
                        seed=BENCH_SEED):
    """A Zipf-skewed stream over a fixed pool of distinct queries."""
    pool = [Query(seeker=query.seeker, tags=query.tags, k=query.k)
            for query in make_workload(dataset, num_queries=pool_size, k=10,
                                       seed=seed)]
    sampler = ZipfSampler(len(pool), ZIPF_EXPONENT, seed=seed)
    return [pool[index] for index in sampler.sample_many(num_requests)]


def serve_stream(dataset, stream, cached):
    """Replay ``stream`` with closed-loop clients; return one result row."""
    engine = make_engine(dataset)
    config = ServiceConfig(cache_capacity=1024 if cached else 0,
                           cache_ttl_seconds=0.0)
    with QueryService(engine, config) as service:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as clients:
            served = list(clients.map(service.serve, stream))
        elapsed = time.perf_counter() - started
        latencies = [result.latency_seconds for result in served]
        snapshot = service.metrics.to_dict()
        return {
            "result_cache": "on" if cached else "off",
            "throughput_qps": len(stream) / elapsed,
            "p50_ms": percentile(latencies, 0.50) * 1000.0,
            "p99_ms": percentile(latencies, 0.99) * 1000.0,
            "hit_rate": snapshot["cache_hit_rate"],
            "coalesced": snapshot["coalesced"],
            "computed": snapshot["computed"],
        }


def test_fig10_serving_throughput(benchmark, delicious_dataset):
    """Result cache off vs on under a Zipf-skewed stream."""
    stream = make_request_stream(delicious_dataset)

    def run():
        return [serve_stream(delicious_dataset, stream, cached)
                for cached in (False, True)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        rows,
        columns=["result_cache", "throughput_qps", "p50_ms", "p99_ms",
                 "hit_rate", "coalesced", "computed"],
        title=(f"Figure 10 — served-query throughput and request latency "
               f"(Zipf {ZIPF_EXPONENT} stream, {NUM_REQUESTS} requests over "
               f"{POOL_SIZE} distinct queries, {CLIENT_THREADS} clients)"),
    )
    write_result("fig10_serving", table)

    uncached, cached = rows
    # The warmed cache must serve the hot head of the Zipf stream...
    assert cached["hit_rate"] > 0.3
    # ...and repeat requests must not recompute: at most one computation
    # per distinct query in the pool (coalescing absorbs concurrent repeats).
    assert cached["computed"] <= POOL_SIZE
    # Without the cache every request is computed or joins one in flight.
    assert uncached["hit_rate"] == 0.0
    assert uncached["computed"] + uncached["coalesced"] == NUM_REQUESTS
    # The result cache must not hurt throughput.
    assert cached["throughput_qps"] >= 0.8 * uncached["throughput_qps"]
