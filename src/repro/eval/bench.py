"""Headless benchmark suites (``repro bench --suite ...``).

Runs the same shapes as the ``benchmarks/bench_fig*`` harness without
pytest and emits machine-readable JSON documents so the performance
trajectory of the engine can be tracked commit over commit
(``benchmarks/results/BENCH_*.json`` in this repo).

This module holds the ``topk`` suite: per-query latency and throughput of
each algorithm on the Figure-6 medium corpus, plus the tracing
instrumentation A/B.  The ``scale`` suite lives in :mod:`repro.eval.scale`.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Sequence, Union

from ..config import EngineConfig, ProximityConfig, ScoringConfig
from ..core.engine import SocialSearchEngine
from ..core.query import Query
from ..storage.dataset import Dataset
from ..workload.datasets import scaled_dataset
from ..workload.sampler import dataset_workload
from .timing import memory_summary, percentile

PathLike = Union[str, Path]

#: Figure-6 user counts; the suite benchmarks the "medium" point.
MEDIUM_USERS = 200

DEFAULT_ALGORITHMS = ("exact", "ta", "nra", "social-first", "hybrid")


def _time_queries(engine: SocialSearchEngine, queries: Sequence[Query],
                  algorithm: str, rounds: int) -> List[float]:
    """Per-query wall-clock latencies (seconds) over ``rounds`` passes."""
    # Warm-up pass: fills the proximity cache and JIT-warms numpy buffers so
    # the measured rounds reflect steady-state serving, as in PR 1's service.
    for query in queries:
        engine.run(query, algorithm=algorithm)
    samples: List[float] = []
    for _ in range(rounds):
        for query in queries:
            started = time.perf_counter()
            engine.run(query, algorithm=algorithm)
            samples.append(time.perf_counter() - started)
    return samples


def _summarise(samples: List[float]) -> Dict[str, float]:
    total = sum(samples)
    return {
        "queries": len(samples),
        "p50_ms": percentile(samples, 0.5) * 1000.0,
        "p95_ms": percentile(samples, 0.95) * 1000.0,
        "mean_ms": (total / len(samples)) * 1000.0 if samples else 0.0,
        "qps": len(samples) / total if total > 0 else 0.0,
    }


def _engine(dataset: Dataset, alpha: float, measure: str) -> SocialSearchEngine:
    config = EngineConfig(
        scoring=ScoringConfig(alpha=alpha),
        proximity=ProximityConfig(measure=measure, cache_size=256),
    )
    return SocialSearchEngine(dataset, config)


def run_topk_suite(num_users: int = MEDIUM_USERS, num_queries: int = 20,
                   k: int = 10, rounds: int = 3, alpha: float = 0.5,
                   measure: str = "shortest-path",
                   algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
                   seed: int = 23, instrumentation: bool = False,
                   trace_jsonl: PathLike = None) -> Dict[str, object]:
    """Run the suite and return the JSON-serialisable report.

    With ``instrumentation=True`` the report gains an ``instrumentation``
    block: an A/B/C of the exact path with the tracer off,
    installed-but-unsampled and fully sampled (the disabled-path overhead
    gate), plus the per-stage time breakdown aggregated over the traced
    round.  ``trace_jsonl`` additionally writes one fully-traced query's
    spans as JSON lines (the CI artifact).
    """
    dataset = scaled_dataset(num_users, seed=seed, homophily=0.5)
    queries = dataset_workload(dataset, num_queries=num_queries, k=k, seed=3)

    report: Dict[str, object] = {
        "suite": "topk",
        "dataset": {
            "name": dataset.name,
            "num_users": dataset.num_users,
            "num_items": dataset.num_items,
            "num_tags": dataset.num_tags,
            "num_actions": dataset.num_actions,
        },
        "workload": {"num_queries": len(queries), "k": k, "rounds": rounds,
                     "alpha": alpha, "proximity": measure},
        "platform": {"python": platform.python_version(),
                     "machine": platform.machine()},
        "entries": [],
    }

    entries: List[Dict[str, object]] = report["entries"]  # type: ignore[assignment]
    serving_engine = _engine(dataset, alpha=alpha, measure=measure)
    for algorithm in algorithms:
        samples = _time_queries(serving_engine, queries, algorithm, rounds)
        entries.append(dict(_summarise(samples), algorithm=algorithm))

    if instrumentation:
        report["instrumentation"] = _measure_instrumentation(
            _engine(dataset, alpha=alpha, measure=measure),
            queries, rounds, trace_jsonl=trace_jsonl)
    report["memory"] = memory_summary()
    return report


def _measure_instrumentation(engine: SocialSearchEngine,
                             queries: Sequence[Query], rounds: int,
                             trace_jsonl: PathLike = None) -> Dict[str, object]:
    """A/B/C the tracer's cost on the exact path.

    Four measurements, interleaved round by round on ONE engine so cache
    state and allocator drift hit all modes equally, each query keeping
    its minimum across rounds (scheduler noise stripped):

    * ``off`` — no tracer installed (the production default; the call
      sites take their ``tracer is None`` seed branch);
    * ``unsampled`` — tracer installed with ``sample_rate=0.0``: call
      sites build span attributes that are then thrown away.  Reported,
      not gated — this is the cost of *turning tracing on* at rate 0;
    * ``traced`` — ``sample_rate=1.0``, every span recorded and retained;
    * ``disabled_check`` — no tracer again, AFTER tracers were installed
      and removed.  ``overhead_disabled`` (the CI gate) is
      ``disabled_check / off``: the disabled path must cost the same
      whether or not tracing was ever enabled in the process.  A leaked
      global tracer, or disabled-path state that does not reset, fires
      this gate immediately.
    """
    from ..obs.trace import Tracer, stage_breakdown, use

    capacity = max(1, len(queries)) * max(1, rounds)
    unsampled_tracer = Tracer(sample_rate=0.0)
    traced_tracer = Tracer(sample_rate=1.0, capacity=capacity)

    for query in queries:  # warm-up: proximity cache, numpy buffers
        engine.run(query, algorithm="exact")

    best: Dict[str, List[float]] = {
        mode: [float("inf")] * len(queries)
        for mode in ("off", "unsampled", "traced", "disabled_check")}

    def measure_pass(mode: str) -> None:
        minima = best[mode]
        for position, query in enumerate(queries):
            started = time.perf_counter()
            engine.run(query, algorithm="exact")
            elapsed = time.perf_counter() - started
            if elapsed < minima[position]:
                minima[position] = elapsed

    for _ in range(max(1, rounds)):
        measure_pass("off")
        with use(unsampled_tracer):
            measure_pass("unsampled")
        with use(traced_tracer):
            measure_pass("traced")
        measure_pass("disabled_check")

    p50 = {mode: percentile(samples, 0.5) * 1000.0
           for mode, samples in best.items()}
    traces = traced_tracer.recent(limit=capacity)
    block: Dict[str, object] = {
        "p50_off_ms": p50["off"],
        "p50_unsampled_ms": p50["unsampled"],
        "p50_traced_ms": p50["traced"],
        "p50_disabled_check_ms": p50["disabled_check"],
        "overhead_disabled": (p50["disabled_check"] / p50["off"]
                              if p50["off"] else 0.0),
        "overhead_unsampled": (p50["unsampled"] / p50["off"]
                               if p50["off"] else 0.0),
        "overhead_traced": (p50["traced"] / p50["off"]
                            if p50["off"] else 0.0),
        "traces_recorded": len(traces),
        "stage_breakdown": stage_breakdown(traces),
    }
    if trace_jsonl:
        sample = traced_tracer.last()
        if sample is not None:
            path = Path(trace_jsonl)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(sample.to_jsonl(), encoding="utf-8")
            block["trace_jsonl"] = str(path)
    return block


def write_report(report: Dict[str, object], output: PathLike) -> Path:
    """Persist the report as pretty-printed JSON; returns the path."""
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def format_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a top-k suite report."""
    lines = [
        "top-k benchmark suite "
        f"({report['dataset']['num_users']} users, "  # type: ignore[index]
        f"{report['workload']['num_queries']} queries x "  # type: ignore[index]
        f"{report['workload']['rounds']} rounds)",  # type: ignore[index]
        f"{'algorithm':<14} {'p50 ms':>8} {'p95 ms':>8} {'qps':>9}",
    ]
    for entry in report["entries"]:  # type: ignore[union-attr]
        lines.append(
            f"{entry['algorithm']:<14} "
            f"{entry['p50_ms']:>8.3f} {entry['p95_ms']:>8.3f} {entry['qps']:>9.1f}"
        )
    instrumentation = report.get("instrumentation")
    if instrumentation:
        lines.append(
            "tracing overhead (exact): "
            f"off {instrumentation['p50_off_ms']:.3f} ms"  # type: ignore[index]
            f" | disabled-after "
            f"{instrumentation['p50_disabled_check_ms']:.3f} ms"  # type: ignore[index]
            f" ({instrumentation['overhead_disabled']:.3f}x)"  # type: ignore[index]
            f" | unsampled {instrumentation['p50_unsampled_ms']:.3f} ms"  # type: ignore[index]
            f" ({instrumentation['overhead_unsampled']:.3f}x)"  # type: ignore[index]
            f" | traced {instrumentation['p50_traced_ms']:.3f} ms"  # type: ignore[index]
            f" ({instrumentation['overhead_traced']:.3f}x)")  # type: ignore[index]
        breakdown = instrumentation["stage_breakdown"]  # type: ignore[index]
        for name in sorted(breakdown,  # type: ignore[arg-type]
                           key=lambda entry: -breakdown[entry]["total_ms"]):  # type: ignore[index]
            stage = breakdown[name]  # type: ignore[index]
            lines.append(f"  stage {name:<22} {stage['count']:>6.0f} spans "
                         f"{stage['total_ms']:>10.3f} ms total "
                         f"{stage['mean_ms']:>8.4f} ms mean")
    memory = report.get("memory")
    if memory:
        lines.append(
            f"memory        peak rss {memory['peak_rss_mb']:.1f} MB"  # type: ignore[index]
            f" | current rss {memory['current_rss_mb']:.1f} MB")  # type: ignore[index]
    return "\n".join(lines)
