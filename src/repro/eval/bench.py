"""Headless benchmark suites (``repro bench --suite ...``).

Runs the same shapes as the ``benchmarks/bench_fig*`` harness without
pytest and emits machine-readable JSON documents so the performance
trajectory of the engine can be tracked commit over commit
(``benchmarks/results/BENCH_*.json`` in this repo).

Three suites (``scale`` lives in :mod:`repro.eval.scale`):

* ``topk`` — per-query latency and throughput of each algorithm on the
  Figure-6 medium corpus;
* ``updates`` — the live-update write path: an interleaved query/update
  trace over an arena-backed dataset served through a proximity cache,
  reporting post-update vs pre-update query p50 (the delta overlays +
  selective cache invalidation must keep the fast path) and gating on
  exact equivalence with a dataset rebuilt from scratch after the same
  updates, for the online and cached proximity paths;
* ``durability`` — the crash-safety story: a chaos sweep that kills the
  durable write path at every named fault-injection point (plus a torn
  final WAL record), recovers each directory, and gates on **zero
  acknowledged updates lost** and bit-identical recovered reads vs a
  from-scratch rebuild; also measures WAL fsync-policy overhead, replay latency, and that
  concurrent queries see no downtime during a generation swap.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..config import EngineConfig, ProximityConfig, ScoringConfig
from ..core.engine import SocialSearchEngine
from ..core.query import Query
from ..storage.dataset import Dataset
from ..storage.tagging import TaggingAction
from ..workload.datasets import scaled_dataset
from ..workload.sampler import dataset_workload
from .quality import result_signature
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


# Re-exported for the scale suite: rankings, scores and access accounting
# in one comparable value.
_result_signature = result_signature


def run_updates_suite(num_users: int = MEDIUM_USERS, num_queries: int = 20,
                      k: int = 10, rounds: int = 3, alpha: float = 0.5,
                      measure: str = "katz", seed: int = 23,
                      update_batches: int = 6, actions_per_batch: int = 50,
                      friendships_per_batch: int = 3,
                      algorithms: Sequence[str] = ("exact", "social-first"),
                      ) -> Dict[str, object]:
    """Run the live-update suite; returns the JSON-serialisable report.

    The scenario is the paper's serving story under churn: an arena-backed
    dataset with cached proximity rows keeps answering top-k queries while
    tagging actions and friendships stream in through
    :class:`~repro.storage.updates.DatasetUpdater` (watched by a
    :class:`~repro.service.QueryService`, which drives selective
    invalidation of the cached rows).  Headline numbers:

    * ``p50_ratio`` — post-update over pre-update query p50, both read with
      warm proximity rows.  Before the delta-overlay write path, the first
      mutation collapsed every array-backed structure to the scalar
      fallback; the ratio is the regression gate for that cliff.
    * ``first_read_ratio`` — the same for the first read of each query
      after a batch, which recomputes the rows the batch invalidated.
    * ``equivalent`` — post-update rankings, scores and access accounting
      must be identical to a dataset rebuilt from scratch from the merged
      action/edge log, for the online and cached proximity paths.
    * ``proximity_cache`` — the cached engine's row ``misses`` and
      ``invalidations`` after the trace: exact counts that move only when
      the invalidation logic does, unlike the timing ratios.

    Mid-trace the delta overlays are compacted once (the epoch swap), so
    both the merged and the freshly-folded read paths are measured.
    """
    import numpy as np

    from ..storage.arena import build_arena
    from ..storage.updates import DatasetUpdater
    from ..graph import SocialGraphBuilder

    base = scaled_dataset(num_users, seed=seed, homophily=0.5)
    base_actions = list(base.tagging.actions())
    base_edges = list(base.graph.iter_edges())
    base_items = [item.item_id for item in base.items]
    queries = dataset_workload(base, num_queries=num_queries, k=k, seed=3)

    report: Dict[str, object] = {
        "suite": "updates",
        "dataset": {
            "name": base.name,
            "num_users": base.num_users,
            "num_items": base.num_items,
            "num_tags": base.num_tags,
            "num_actions": base.num_actions,
        },
        "workload": {"num_queries": len(queries), "k": k, "rounds": rounds,
                     "alpha": alpha, "proximity": measure,
                     "update_batches": update_batches,
                     "actions_per_batch": actions_per_batch,
                     "friendships_per_batch": friendships_per_batch},
        "platform": {"python": platform.python_version(),
                     "machine": platform.machine()},
    }

    from ..config import ServiceConfig
    from ..service import QueryService

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        arena_path = Path(scratch) / "dataset.arena"
        build_arena(base, arena_path)
        live = Dataset.from_arena(arena_path)
        engine = _engine_with(live, ProximityConfig(measure=measure), alpha)
        updater = DatasetUpdater(live)
        service = QueryService(engine, ServiceConfig(
            cache_capacity=0, cache_ttl_seconds=0.0), updater=updater)

        pre_samples = _best_of_rounds(engine, queries, rounds)

        # Interleave update batches with full query passes.  Tagging
        # actions dominate (the common live update); every batch also adds
        # a few friendships, exercising the selective row invalidation.
        rng = np.random.default_rng(seed)
        tags = live.tags()
        added_actions = []
        added_edges = []
        next_item = max(base_items) + 1
        timestamp = 1_000_000
        best_first = [float("inf")] * len(queries)
        best_post = [float("inf")] * len(queries)
        update_seconds = 0.0
        compaction_seconds = 0.0
        for batch_index in range(update_batches):
            actions = []
            for _ in range(actions_per_batch):
                user = int(rng.integers(0, num_users))
                tag = str(tags[int(rng.integers(0, len(tags)))]) \
                    if rng.random() < 0.95 else f"live-tag-{batch_index}"
                if rng.random() < 0.7:
                    item = int(base_items[int(rng.integers(0, len(base_items)))])
                else:
                    item = next_item
                    next_item += 1
                timestamp += 1
                actions.append(TaggingAction(user_id=user, item_id=item,
                                             tag=tag, timestamp=timestamp))
            edges = [(int(rng.integers(0, num_users)),
                      int(rng.integers(0, num_users)), 0.5)
                     for _ in range(friendships_per_batch)]
            edges = [(u, v, w) for u, v, w in edges if u != v]
            started = time.perf_counter()
            updater.add_actions(actions)
            if edges:
                updater.add_friendships(edges)
            update_seconds += time.perf_counter() - started
            added_actions.extend(actions)
            added_edges.extend(edges)
            if batch_index == update_batches // 2:
                # Mid-trace epoch swap: fold the delta overlays once, so the
                # second half measures freshly compacted arrays.
                started = time.perf_counter()
                updater.compact()
                compaction_seconds = time.perf_counter() - started
            # The first pass recomputes the rows the batch invalidated; the
            # second reads them warm, as the pre-update passes do.
            for best in (best_first, best_post):
                for position, query in enumerate(queries):
                    started = time.perf_counter()
                    engine.run(query, algorithm="exact")
                    elapsed = time.perf_counter() - started
                    if elapsed < best[position]:
                        best[position] = elapsed

        # Exact counts of the trace (the timings above are noisy; these are
        # not): rows the cached engine computed, and rows the service's
        # selective invalidation dropped.
        cache = engine.proximity.statistics  # type: ignore[attr-defined]
        report["proximity_cache"] = {"misses": cache.misses,
                                     "invalidations": cache.invalidations}
        report["pre_update"] = _summarise(pre_samples)
        report["post_update"] = _summarise(best_post)
        report["first_read_after_update"] = _summarise(best_first)
        pre_p50 = float(report["pre_update"]["p50_ms"])  # type: ignore[index]
        report["p50_ratio"] = (
            float(report["post_update"]["p50_ms"]) / pre_p50  # type: ignore[index]
            if pre_p50 else 0.0)
        report["first_read_ratio"] = (
            float(report["first_read_after_update"]["p50_ms"]) / pre_p50  # type: ignore[index]
            if pre_p50 else 0.0)
        report["updates"] = {
            "batches": update_batches,
            "actions_added": len(added_actions),
            "edges_added": len(added_edges),
            "update_ms": update_seconds * 1000.0,
            "compaction_ms": compaction_seconds * 1000.0,
            "epoch": updater.epoch,
            "pending_delta": updater.pending_delta(),
        }
        service.close()

        # Equivalence gate: the live (updated in place) dataset must answer
        # exactly like a dataset rebuilt from scratch from the merged logs,
        # with proximity computed online and served from the cache the
        # service invalidated.
        builder = SocialGraphBuilder(live.num_users)
        for u, v, w in base_edges:
            builder.add_edge(u, v, w)
        for u, v, w in added_edges:
            builder.add_edge(u, v, w)
        fresh = Dataset.build(builder.build(), base_actions + added_actions,
                              name=base.name)
        fresh_online = _engine_with(
            fresh, ProximityConfig(measure=measure, cache_size=0), alpha)
        live_online = _engine_with(
            live, ProximityConfig(measure=measure, cache_size=0), alpha)
        mismatches = _path_mismatches(
            fresh_online, {"online": live_online, "cached": engine},
            queries, algorithms)
    report["equivalence"] = {
        "algorithms": list(algorithms),
        "paths": ["online", "cached"],
        "queries_checked": len(queries) * len(algorithms) * 2,
        "mismatches": mismatches[:10],
        "num_mismatches": len(mismatches),
    }
    report["equivalent"] = not mismatches
    report["memory"] = memory_summary()
    return report


def format_updates_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of an updates-suite report."""
    updates = report["updates"]
    lines = [
        "live-update write-path suite "
        f"({report['dataset']['num_users']} users, "  # type: ignore[index]
        f"{report['workload']['num_queries']} queries, "  # type: ignore[index]
        f"{updates['batches']} update batches, "  # type: ignore[index]
        f"measure={report['workload']['proximity']})",  # type: ignore[index]
        f"query p50      pre-update {report['pre_update']['p50_ms']:.3f} ms"  # type: ignore[index]
        f" | post-update {report['post_update']['p50_ms']:.3f} ms"  # type: ignore[index]
        f" | ratio {report['p50_ratio']:.2f}x",
        f"first read     after each batch "
        f"{report['first_read_after_update']['p50_ms']:.3f} ms"  # type: ignore[index]
        f" | ratio {report['first_read_ratio']:.2f}x (recomputes invalidated rows)",
        f"updates        {updates['actions_added']} actions + "  # type: ignore[index]
        f"{updates['edges_added']} edges in {updates['update_ms']:.1f} ms"  # type: ignore[index]
        f" | compaction {updates['compaction_ms']:.1f} ms"  # type: ignore[index]
        f" (epoch {updates['epoch']}, {updates['pending_delta']} pending)",  # type: ignore[index]
        f"proximity rows {report['proximity_cache']['misses']} computed, "  # type: ignore[index]
        f"{report['proximity_cache']['invalidations']} invalidated",  # type: ignore[index]
        f"equivalence    {'OK' if report['equivalent'] else 'FAILED'} "
        f"({report['equivalence']['queries_checked']} checks vs fresh "  # type: ignore[index]
        f"rebuild, {report['equivalence']['num_mismatches']} mismatches)",  # type: ignore[index]
    ]
    lines.extend(_memory_line(report))
    return "\n".join(lines)


#: Crash scenarios of the durability chaos sweep.  ``write`` scenarios arm
#: the point and stream update batches until the kill fires mid-append;
#: ``checkpoint`` scenarios ack every batch first and kill inside the
#: generation publish; ``torn`` writes one unacknowledged record and tears
#: it the way a mid-write power cut does.
_DURABILITY_SCENARIOS = (
    ("wal.before_append", "write"),
    ("wal.after_append", "write"),
    ("wal.fsync", "write"),
    ("compact.stage", "checkpoint"),
    ("compact.commit", "checkpoint"),
    ("publish.after_arena", "checkpoint"),
    ("publish.before_manifest", "checkpoint"),
    ("arena.before_replace", "checkpoint"),
    ("torn-final-record", "torn"),
)


def run_durability_suite(num_users: int = MEDIUM_USERS, num_queries: int = 10,
                         k: int = 10, rounds: int = 2, alpha: float = 0.5,
                         measure: str = "katz", seed: int = 23,
                         update_batches: int = 5, actions_per_batch: int = 40,
                         friendships_per_batch: int = 2,
                         algorithms: Sequence[str] = ("exact",),
                         ) -> Dict[str, object]:
    """Run the durability chaos sweep; returns the JSON-serialisable report.

    For every named injection point on the durable write path the suite
    initialises a fresh :class:`~repro.storage.durable.DurableStore`,
    drives acknowledged update batches through its WAL-attached updater,
    kills the process (simulated: an :class:`InjectedCrash` unwinds and
    every in-memory object is discarded) at that point, and re-opens the
    directory the way a restarted process would.  Two hard verdicts:

    * ``acked_updates_lost`` — every update whose call returned before the
      kill must be found again.  The check is deliberately *independent of
      the recovery code*: the raw WAL segment named by the surviving
      manifest is scanned directly, and every acknowledged action/edge
      must appear in it (or in the base arena).  Under the ``always``
      fsync policy this count must be exactly 0.
    * ``equivalent`` — the recovered store must answer queries
      bit-identically (rankings, scores, access accounting) to a dataset
      rebuilt from scratch from base + the durable log; and the
      concurrent-query thread of the generation-swap check must complete
      with zero errors (no downtime during a checkpoint).

    Also measured: WAL fsync-policy overhead (``always`` / ``interval`` /
    ``off`` vs a no-WAL updater on the same arena), and replay latency on
    a clean re-open.
    """
    import threading

    import numpy as np

    from ..config import DurabilityConfig
    from ..graph import SocialGraphBuilder
    from ..obs.faults import InjectedCrash, faults, tear_final_record
    from ..storage.durable import DurableStore, read_manifest
    from ..storage.updates import DatasetUpdater
    from ..storage.wal import FSYNC_POLICIES, scan_wal
    from ..storage.arena import build_arena

    base = scaled_dataset(num_users, seed=seed, homophily=0.5)
    base_actions = list(base.tagging.actions())
    base_edges = list(base.graph.iter_edges())
    base_action_keys = {(a.user_id, a.item_id, a.tag) for a in base_actions}
    base_edge_keys = {(min(u, v), max(u, v)) for u, v, _ in base_edges}
    base_items = [item.item_id for item in base.items]
    tags = base.tags()
    queries = dataset_workload(base, num_queries=num_queries, k=k, seed=3)

    def make_batches(rng) -> List[Tuple[List[TaggingAction],
                                        List[Tuple[int, int, float]]]]:
        """Deterministic update stream: mostly actions, a few friendships."""
        batches = []
        timestamp = 5_000_000
        for _ in range(update_batches):
            actions = []
            for _ in range(actions_per_batch):
                timestamp += 1
                actions.append(TaggingAction(
                    user_id=int(rng.integers(0, num_users)),
                    item_id=int(base_items[int(rng.integers(0, len(base_items)))]),
                    tag=str(tags[int(rng.integers(0, len(tags)))]),
                    timestamp=timestamp))
            edges = [(int(rng.integers(0, num_users)),
                      int(rng.integers(0, num_users)), 0.5)
                     for _ in range(friendships_per_batch)]
            batches.append((actions, [(u, v, w) for u, v, w in edges
                                      if u != v]))
        return batches

    report: Dict[str, object] = {
        "suite": "durability",
        "dataset": {
            "name": base.name,
            "num_users": base.num_users,
            "num_items": base.num_items,
            "num_tags": base.num_tags,
            "num_actions": base.num_actions,
        },
        "workload": {"num_queries": len(queries), "k": k, "rounds": rounds,
                     "alpha": alpha, "proximity": measure,
                     "update_batches": update_batches,
                     "actions_per_batch": actions_per_batch,
                     "friendships_per_batch": friendships_per_batch,
                     "wal_fsync": "always"},
        "platform": {"python": platform.python_version(),
                     "machine": platform.machine()},
    }

    scenario_rows: List[Dict[str, object]] = []
    all_mismatches: List[Dict[str, object]] = []
    total_lost = 0

    with tempfile.TemporaryDirectory(prefix="repro-durability-") as scratch:
        scratch_dir = Path(scratch)

        # ------------------------------------------------------------- #
        # 1. The kill matrix: one fresh store per injection point.
        # ------------------------------------------------------------- #
        for index, (point, mode) in enumerate(_DURABILITY_SCENARIOS):
            directory = scratch_dir / f"crash-{index}-{mode}"
            faults.reset()
            store = DurableStore.initialise(base, directory)
            batches = make_batches(np.random.default_rng(seed + 7))
            acked_actions: List[TaggingAction] = []
            acked_edges: List[Tuple[int, int, float]] = []
            crash: Optional[str] = None
            try:
                if mode == "write":
                    # Skip the first two records so the kill lands
                    # mid-stream, between acknowledged batches.
                    exc = OSError("injected fsync failure") \
                        if point == "wal.fsync" else None
                    faults.arm(point, exc=exc, after=2)
                    for actions, edges in batches:
                        store.updater.add_actions(actions)
                        acked_actions.extend(actions)
                        if edges:
                            store.updater.add_friendships(edges)
                            acked_edges.extend(edges)
                elif mode == "checkpoint":
                    for actions, edges in batches:
                        store.updater.add_actions(actions)
                        acked_actions.extend(actions)
                        if edges:
                            store.updater.add_friendships(edges)
                            acked_edges.extend(edges)
                    faults.arm(point)
                    store.checkpoint(force=True)
                else:  # torn final record
                    for actions, edges in batches:
                        store.updater.add_actions(actions)
                        acked_actions.extend(actions)
                        if edges:
                            store.updater.add_friendships(edges)
                            acked_edges.extend(edges)
                    # One more record reaches the disk, but the process
                    # dies mid-write: the caller never saw the ack, and
                    # only a prefix of the record's bytes survives.
                    store.wal.append_actions([TaggingAction(
                        user_id=0, item_id=int(base_items[0]),
                        tag="torn-tag", timestamp=9_999_999)])
                    tear_final_record(store.wal.path, keep_bytes=5)
                    crash = "torn final record"
            except (InjectedCrash, OSError) as exc:
                crash = repr(exc)
            finally:
                faults.reset()
            # Simulated kill: the store object (open WAL handle included)
            # is simply abandoned, never closed.
            del store

            # Ack gate, independent of recovery: every acknowledged
            # update must be in the surviving manifest's raw WAL segment
            # (or already in the base arena).
            manifest = read_manifest(directory)
            scan = scan_wal(directory / str(manifest["wal"]))
            durable_actions: List[TaggingAction] = []
            durable_edges: List[Tuple[int, int, float]] = []
            for record in scan.records:
                if record.kind == "actions":
                    durable_actions.extend(record.actions())
                elif record.kind == "friendships":
                    durable_edges.extend(record.friendships())
            durable_action_keys = {(a.user_id, a.item_id, a.tag)
                                   for a in durable_actions}
            durable_edge_keys = {(min(u, v), max(u, v))
                                 for u, v, _ in durable_edges}
            lost = [a for a in acked_actions
                    if (a.user_id, a.item_id, a.tag) not in base_action_keys
                    and (a.user_id, a.item_id, a.tag) not in durable_action_keys]
            lost += [e for e in acked_edges  # type: ignore[list-item]
                     if (min(e[0], e[1]), max(e[0], e[1])) not in base_edge_keys
                     and (min(e[0], e[1]), max(e[0], e[1])) not in durable_edge_keys]
            total_lost += len(lost)

            # Recover the directory the way a restarted process would.
            recovered = DurableStore.open(directory)
            recovery = recovered.recovery

            # Equivalence gate: the recovered store must answer exactly
            # like a dataset rebuilt from scratch from base + durable log.
            builder = SocialGraphBuilder(base.num_users)
            for u, v, w in base_edges:
                builder.add_edge(u, v, w)
            for u, v, w in durable_edges:
                builder.add_edge(u, v, w)
            fresh = Dataset.build(builder.build(),
                                  base_actions + durable_actions,
                                  name=base.name)
            fresh_online = _engine_with(
                fresh, ProximityConfig(measure=measure, cache_size=0), alpha)
            live_online = _engine_with(
                recovered.dataset,
                ProximityConfig(measure=measure, cache_size=0), alpha)
            scenario_mismatches = _path_mismatches(
                fresh_online, {"online": live_online},
                queries, algorithms, point=point)
            all_mismatches.extend(scenario_mismatches)
            recovered.close()
            scenario_rows.append({
                "point": point,
                "mode": mode,
                "crash": crash,
                "fired": crash is not None,
                "acked_actions": len(acked_actions),
                "acked_edges": len(acked_edges),
                "acked_lost": len(lost),
                "durable_records": len(scan.records),
                "records_replayed": recovery.records_replayed,
                "replay_ms": recovery.duration_seconds * 1000.0,
                "torn_tail_bytes": recovery.torn_tail_bytes,
                "strays_removed": len(recovery.strays_removed),
                "generation": recovered.generation,
                "epoch": recovery.epoch,
                "mismatches": len(scenario_mismatches),
            })

        # ------------------------------------------------------------- #
        # 2. Zero-downtime generation swap: queries keep answering while
        #    checkpoints fold, publish and rotate underneath them.
        # ------------------------------------------------------------- #
        swap_dir = scratch_dir / "swap"
        store = DurableStore.initialise(base, swap_dir)
        swap_engine = _engine_with(
            store.dataset, ProximityConfig(measure=measure, cache_size=0),
            alpha)
        swap_errors: List[str] = []
        swap_served = [0]
        stop = threading.Event()

        def _query_loop() -> None:
            while not stop.is_set():
                for query in queries:
                    try:
                        swap_engine.run(query, algorithm="exact")
                    except Exception as exc:  # noqa: BLE001 - verdict data
                        swap_errors.append(repr(exc))
                        return
                    swap_served[0] += 1

        query_thread = threading.Thread(target=_query_loop, daemon=True)
        query_thread.start()
        checkpoint_seconds = 0.0
        swap_checkpoints = 0
        for actions, edges in make_batches(np.random.default_rng(seed + 11)):
            store.updater.add_actions(actions)
            if edges:
                store.updater.add_friendships(edges)
            started = time.perf_counter()
            summary = store.checkpoint(force=True)
            checkpoint_seconds += time.perf_counter() - started
            swap_checkpoints += 1 if summary["published"] else 0
        stop.set()
        query_thread.join(timeout=30.0)
        swap = {
            "checkpoints": swap_checkpoints,
            "final_generation": store.generation,
            "checkpoint_ms": checkpoint_seconds * 1000.0,
            "queries_served": swap_served[0],
            "num_errors": len(swap_errors),
            "errors": swap_errors[:5],
        }
        store.close()

        # ------------------------------------------------------------- #
        # 3. Fsync-policy overhead vs a no-WAL updater on the same arena.
        # ------------------------------------------------------------- #
        baseline_arena = scratch_dir / "fsync-baseline.arena"
        build_arena(base, baseline_arena)
        plain_updater = DatasetUpdater(Dataset.from_arena(baseline_arena))
        baseline_seconds = 0.0
        for actions, edges in make_batches(np.random.default_rng(seed + 13)):
            started = time.perf_counter()
            plain_updater.add_actions(actions)
            if edges:
                plain_updater.add_friendships(edges)
            baseline_seconds += time.perf_counter() - started
        fsync_overhead: Dict[str, object] = {
            "no_wal_ms": baseline_seconds * 1000.0}
        always_dir = None
        for policy in FSYNC_POLICIES:
            directory = scratch_dir / f"fsync-{policy}"
            policy_store = DurableStore.initialise(
                base, directory,
                config=DurabilityConfig(directory=str(directory),
                                        wal_fsync=policy))
            policy_seconds = 0.0
            for actions, edges in make_batches(
                    np.random.default_rng(seed + 13)):
                started = time.perf_counter()
                policy_store.updater.add_actions(actions)
                if edges:
                    policy_store.updater.add_friendships(edges)
                policy_seconds += time.perf_counter() - started
            fsync_overhead[policy] = {
                "total_ms": policy_seconds * 1000.0,
                "overhead_vs_no_wal": (policy_seconds / baseline_seconds
                                       if baseline_seconds else 0.0),
                "fsyncs": policy_store.wal.stats()["fsyncs"],
                "records": policy_store.wal.stats()["records_appended"],
            }
            policy_store.close()
            if policy == "always":
                always_dir = directory

        # ------------------------------------------------------------- #
        # 4. Replay latency on a clean re-open of the "always" store.
        # ------------------------------------------------------------- #
        reopened = DurableStore.open(always_dir)
        replay = {
            "records_replayed": reopened.recovery.records_replayed,
            "replay_ms": reopened.recovery.duration_seconds * 1000.0,
            "actions_replayed": reopened.recovery.actions_replayed,
            "edges_replayed": reopened.recovery.edges_replayed,
        }
        reopened.close()

    all_fired = all(row["fired"] for row in scenario_rows)
    report["scenarios"] = scenario_rows
    report["acked_updates_lost"] = total_lost
    report["swap"] = swap
    report["fsync_overhead"] = fsync_overhead
    report["replay"] = replay
    report["equivalence"] = {
        "algorithms": list(algorithms),
        "paths": ["online"],
        "queries_checked": len(queries) * len(algorithms)
        * len(scenario_rows),
        "mismatches": all_mismatches[:10],
        "num_mismatches": len(all_mismatches),
        "all_faults_fired": all_fired,
        "swap_errors": len(swap_errors),
    }
    report["equivalent"] = (not all_mismatches and all_fired
                            and not swap_errors)
    report["memory"] = memory_summary()
    return report


def format_durability_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a durability-suite report."""
    lines = [
        "durability chaos suite "
        f"({report['dataset']['num_users']} users, "  # type: ignore[index]
        f"{report['workload']['num_queries']} queries, "  # type: ignore[index]
        f"{len(report['scenarios'])} crash scenarios, "  # type: ignore[arg-type]
        f"fsync={report['workload']['wal_fsync']})",  # type: ignore[index]
    ]
    for row in report["scenarios"]:  # type: ignore[union-attr]
        verdict = "OK" if (row["fired"] and not row["acked_lost"]
                           and not row["mismatches"]) else "FAILED"
        lines.append(
            f"{row['point']:<24} acked {row['acked_actions']:>3}+"
            f"{row['acked_edges']:<2} lost {row['acked_lost']}"
            f" | replayed {row['records_replayed']:>2} rec"
            f" in {row['replay_ms']:.2f} ms"
            f" | gen {row['generation']} epoch {row['epoch']}"
            f" | {verdict}")
    swap = report["swap"]
    lines.append(
        f"generation swap   {swap['checkpoints']} checkpoints "  # type: ignore[index]
        f"in {swap['checkpoint_ms']:.1f} ms"  # type: ignore[index]
        f" | {swap['queries_served']} queries served concurrently, "  # type: ignore[index]
        f"{swap['num_errors']} errors")  # type: ignore[index]
    overhead = report["fsync_overhead"]
    lines.append(
        "fsync overhead    " + " | ".join(
            f"{policy} {overhead[policy]['overhead_vs_no_wal']:.2f}x"  # type: ignore[index]
            f" ({int(overhead[policy]['fsyncs'])} fsyncs)"  # type: ignore[index]
            for policy in ("off", "interval", "always"))
        + f" vs no-WAL {overhead['no_wal_ms']:.1f} ms")  # type: ignore[index]
    replay = report["replay"]
    lines.append(
        f"clean reopen      {replay['records_replayed']} records "  # type: ignore[index]
        f"({replay['actions_replayed']} actions, "  # type: ignore[index]
        f"{replay['edges_replayed']} edges) "  # type: ignore[index]
        f"replayed in {replay['replay_ms']:.2f} ms")  # type: ignore[index]
    lines.append(
        f"acked-update loss {report['acked_updates_lost']} across "
        f"{len(report['scenarios'])} scenarios")  # type: ignore[arg-type]
    lines.append(
        f"equivalence       {'OK' if report['equivalent'] else 'FAILED'} "
        f"({report['equivalence']['queries_checked']} checks vs fresh "  # type: ignore[index]
        f"rebuild, {report['equivalence']['num_mismatches']} mismatches)")  # type: ignore[index]
    lines.extend(_memory_line(report))
    return "\n".join(lines)


def _best_of_rounds(engine: SocialSearchEngine, queries: Sequence[Query],
                    rounds: int, algorithm: str = "exact") -> List[float]:
    """Per-query minimum latency (seconds) across ``rounds`` passes."""
    best = [float("inf")] * len(queries)
    for _ in range(max(1, rounds)):
        for position, query in enumerate(queries):
            started = time.perf_counter()
            engine.run(query, algorithm=algorithm)
            elapsed = time.perf_counter() - started
            if elapsed < best[position]:
                best[position] = elapsed
    return best


def _path_mismatches(baseline: SocialSearchEngine,
                     paths: Mapping[str, SocialSearchEngine],
                     queries: Sequence[Query], algorithms: Sequence[str],
                     **labels: object) -> List[Dict[str, object]]:
    """Every answer of a ``{path name: engine}`` that differs from ``baseline``'s.

    The equivalence gate of the updates and durability suites:
    each engine answers each query with each algorithm through
    ``engine.run``, and the result signatures (rankings, scores, access
    accounting) must equal the baseline engine's.  ``labels`` (the fault
    point) are copied into every mismatch record.
    """
    mismatches: List[Dict[str, object]] = []
    for algorithm in algorithms:
        wanted = [_result_signature(baseline.run(query, algorithm=algorithm))
                  for query in queries]
        for path_name, engine in paths.items():
            for query, want in zip(queries, wanted):
                got = _result_signature(engine.run(query, algorithm=algorithm))
                if got != want:
                    mismatches.append({
                        **labels,
                        "algorithm": algorithm,
                        "path": path_name,
                        "query": query.to_dict(),
                        "expected": want,
                        "got": got,
                    })
    return mismatches


def _engine_with(dataset: Dataset, proximity: ProximityConfig,
                 alpha: float) -> SocialSearchEngine:
    return SocialSearchEngine(dataset, EngineConfig(
        algorithm="exact",
        scoring=ScoringConfig(alpha=alpha),
        proximity=proximity,
    ))


def _memory_line(report: Dict[str, object]) -> List[str]:
    """The peak-memory footer every suite formatter appends."""
    memory = report.get("memory")
    if not memory:
        return []
    return [
        f"memory        peak rss {memory['peak_rss_mb']:.1f} MB"  # type: ignore[index]
        f" | current rss {memory['current_rss_mb']:.1f} MB"  # type: ignore[index]
    ]


def write_report(report: Dict[str, object], output: PathLike) -> Path:
    """Persist the report as pretty-printed JSON; returns the path."""
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def format_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a suite report."""
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
    lines.extend(_memory_line(report))
    return "\n".join(lines)
