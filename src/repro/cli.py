"""Command-line interface.

``python -m repro`` (or the ``repro`` console script) exposes the library's
main flows without writing any Python:

* ``repro demo`` — build a small synthetic corpus and answer one query with
  every algorithm, printing the comparison table.
* ``repro generate`` — build a synthetic dataset and write it as an arena.
* ``repro query`` — open an arena and answer an ad-hoc query.
* ``repro explain`` — print the planner's execution plan for a query
  (pending delta, proximity path, executor, frontier bound) without
  executing it.
* ``repro bench`` — run a small latency/quality comparison over a workload,
  or the headless suites (``--suite topk`` / ``updates`` / ``durability`` /
  ``scale``).
* ``repro build-arena`` — serialise a dataset into the memory-mapped index
  arena.
* ``repro serve`` — expose a dataset behind the concurrent JSON HTTP API
  (``--arena`` for mmap cold start, ``--warmup N`` for cache pre-population).
* ``repro profile`` — cProfile the per-query path (``engine.run_many``, what
  the server runs) over a query trace and print the top cumulative hotspots.
* ``repro lint`` — run the repo's static-analysis rules (lock discipline,
  byte-identity, durability ordering, RNG determinism, hot-path
  materialisation) and gate against the committed baseline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .config import (
    DatasetConfig,
    EngineConfig,
    ProximityConfig,
    ScoringConfig,
    ServiceConfig,
    WorkloadConfig,
)
from .core.engine import SocialSearchEngine
from .core.topk.base import available_algorithms
from .errors import ReproError
from .eval.runner import ExperimentRunner
from .eval.tables import format_table
from .storage.dataset import Dataset
from .workload.datasets import build_dataset, delicious_like
from .workload.queries import generate_workload


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        algorithm=args.algorithm,
        scoring=ScoringConfig(alpha=args.alpha),
        proximity=ProximityConfig(measure=args.proximity),
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="textual weight in [0, 1] (default: 0.5)")
    parser.add_argument("--algorithm", default="social-first",
                        help="default top-k algorithm (default: social-first)")
    parser.add_argument("--proximity", default="shortest-path",
                        help="proximity measure (default: shortest-path)")


def _command_demo(args: argparse.Namespace) -> int:
    dataset = delicious_like(scale=args.scale, seed=args.seed)
    engine = SocialSearchEngine(dataset, _engine_config(args))
    print(dataset.describe())
    queries = generate_workload(dataset, WorkloadConfig(num_queries=1, k=args.k,
                                                        seed=args.seed))
    query = queries[0]
    print(f"\nquery: seeker={query.seeker} tags={list(query.tags)} k={query.k}\n")
    rows = []
    for algorithm in sorted(available_algorithms()):
        result = engine.run(query, algorithm=algorithm)
        row = {"algorithm": algorithm,
               "latency_ms": result.latency_seconds * 1000.0,
               "early_stop": result.terminated_early}
        row.update(result.accounting.to_dict())
        rows.append(row)
    print(format_table(rows, columns=["algorithm", "latency_ms", "early_stop",
                                      "sequential_accesses", "random_accesses",
                                      "social_accesses", "users_visited"]))
    print("\n" + engine.explain(engine.run(query)))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from .storage.arena import build_arena

    config = DatasetConfig(
        name=args.name,
        num_users=args.users,
        num_items=args.items,
        num_tags=args.tags,
        num_actions=args.actions,
        homophily=args.homophily,
        seed=args.seed,
    )
    dataset = build_dataset(config)
    path = build_arena(dataset, args.output)
    print(f"wrote arena {path} ({path.stat().st_size} bytes): "
          f"{dataset.describe()}")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    dataset = Dataset.from_arena(args.arena)
    engine = SocialSearchEngine(dataset, _engine_config(args))
    result = engine.search(args.seeker, args.tags, k=args.k, algorithm=args.algorithm)
    print(engine.explain(result))
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    """Print the planner's execution plan for a query without running it.

    With ``--analyze`` the query is *executed* under a fresh tracer and the
    plan is followed by the recorded span tree — per-stage wall-clock
    timings and the share of the wall time each stage covers (EXPLAIN
    ANALYZE).
    """
    from .core.query import Query

    dataset = _load_serving_dataset(args)
    engine = SocialSearchEngine(dataset, _engine_config(args))
    query = Query(seeker=args.seeker, tags=tuple(args.tags), k=args.k)
    plan = engine.explain_plan(query, algorithm=args.algorithm)
    print(plan.describe())
    if not args.analyze:
        return 0

    import time as _time

    from .obs.trace import Tracer, render_tree, use

    with use(Tracer(sample_rate=1.0)) as tracer:
        started = _time.perf_counter()
        result = engine.run(query, algorithm=args.algorithm)
        wall = _time.perf_counter() - started
    trace = tracer.last()
    if trace is None:
        print("\nno trace recorded (instrumentation disabled?)")
        return 1
    print(f"\nEXPLAIN ANALYZE  wall={wall * 1000.0:.3f} ms  "
          f"algorithm={result.algorithm}  results={len(result.items)}")
    print(render_tree(trace, wall_seconds=wall))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(trace.to_jsonl())
        print(f"wrote span JSONL to {args.trace_out}")
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as handle:
            handle.write(trace.to_chrome())
        print(f"wrote Chrome trace_event file to {args.chrome_trace} "
              "(load via chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    if args.suite:
        return _run_bench_suite(args)
    dataset = delicious_like(scale=args.scale, seed=args.seed,
                             holdout_fraction=args.holdout)
    engine = SocialSearchEngine(dataset, _engine_config(args))
    queries = generate_workload(dataset, WorkloadConfig(num_queries=args.queries,
                                                        k=args.k, seed=args.seed))
    algorithms = args.algorithms or ["exact", "ta", "nra", "social-first", "global"]
    runner = ExperimentRunner(engine)
    report = runner.run(queries, algorithms)
    print(dataset.describe())
    print()
    print(format_table(report.rows()))
    return 0


def _run_bench_suite(args: argparse.Namespace) -> int:
    """Headless ``bench_fig*``-style suites with machine-readable output."""
    from .eval.bench import DEFAULT_ALGORITHMS, format_report, run_topk_suite, write_report

    if args.suite == "updates":
        return _run_updates_suite(args)
    if args.suite == "durability":
        return _run_durability_suite(args)
    if args.suite == "scale":
        return _run_scale_suite(args)
    report = run_topk_suite(
        num_users=args.users,
        num_queries=args.queries,
        k=args.k,
        rounds=args.rounds,
        alpha=args.alpha,
        measure=args.proximity,
        algorithms=tuple(args.algorithms) if args.algorithms else DEFAULT_ALGORITHMS,
        seed=args.seed,
        instrumentation=(args.max_trace_overhead > 0.0
                         or bool(args.trace_jsonl)),
        trace_jsonl=args.trace_jsonl,
    )
    print(format_report(report))
    if args.trace_jsonl:
        written = report.get("instrumentation", {}).get("trace_jsonl")
        if written:
            print(f"wrote sample trace to {written}")
    if args.json:
        path = write_report(report, args.json)
        print(f"wrote {path}")
    if args.max_trace_overhead > 0.0:
        overhead = float(report["instrumentation"]["overhead_disabled"])  # type: ignore[index]
        if overhead > args.max_trace_overhead:
            print(f"FAIL: disabled-tracer p50 is {overhead:.3f}x the "
                  f"never-traced p50, above the allowed "
                  f"{args.max_trace_overhead:.3f}x instrumentation budget "
                  "(tracer state leaking into the disabled path?)")
            return 1
    return 0


def _run_updates_suite(args: argparse.Namespace) -> int:
    """Live-update suite: interleaved query/update trace + rebuild gate."""
    from .eval.bench import format_updates_report, run_updates_suite, write_report

    measure = args.proximity
    if measure not in ("katz", "common-neighbours", "adamic-adar", "jaccard"):
        # The suite exercises the *incremental* friendship path, which
        # exists for hop-bounded measures with a real per-seeker vector
        # cost; global measures fall back to a full invalidation, and the
        # committed report tracks katz, so the shortest-path argparse
        # default maps to it silently.
        measure = "katz"
        if args.proximity != "shortest-path":
            print("updates suite: using measure 'katz' (the incremental "
                  "friendship-repair path needs a hop-bounded measure)")
    report = run_updates_suite(
        num_users=args.users,
        num_queries=args.queries,
        k=args.k,
        rounds=args.rounds,
        alpha=args.alpha,
        measure=measure,
        seed=args.seed,
    )
    print(format_updates_report(report))
    if args.json:
        path = write_report(report, args.json)
        print(f"wrote {path}")
    if not report["equivalent"]:
        print("FAIL: post-update rankings diverge from a fresh rebuild")
        return 1
    ratio = float(report["p50_ratio"])
    if args.max_p50_ratio > 0.0 and ratio > args.max_p50_ratio:
        print(f"FAIL: post-update p50 is {ratio:.2f}x the pre-update p50, "
              f"above the allowed {args.max_p50_ratio:.2f}x")
        return 1
    return 0


def _run_durability_suite(args: argparse.Namespace) -> int:
    """Chaos sweep: kill at every injection point, recover, verify, time."""
    from .eval.bench import format_durability_report, run_durability_suite, write_report

    report = run_durability_suite(
        num_users=args.users,
        num_queries=args.queries,
        k=args.k,
        rounds=args.rounds,
        alpha=args.alpha,
        seed=args.seed,
    )
    print(format_durability_report(report))
    if args.json:
        path = write_report(report, args.json)
        print(f"wrote {path}")
    lost = int(report["acked_updates_lost"])
    if lost:
        print(f"FAIL: {lost} acknowledged update(s) lost across the crash "
              "matrix — the WAL contract is broken")
        return 1
    if not report["equivalent"]:
        print("FAIL: a recovered dataset diverged from its pre-crash "
              "merged reads")
        return 1
    return 0


def _run_scale_suite(args: argparse.Namespace) -> int:
    """Out-of-core corpus sweep: streaming builds, RSS, operating point."""
    from .eval.bench import write_report
    from .eval.scale import DEFAULT_SIZES, format_scale_report, run_scale_suite

    sizes = DEFAULT_SIZES
    if args.scale_sizes:
        sizes = tuple(int(part) for part in args.scale_sizes.split(",")
                      if part.strip())
    report = run_scale_suite(
        sizes=sizes,
        num_queries=args.queries,
        k=args.k,
        rounds=args.rounds,
        chunk_size=args.chunk_size,
        seed=args.seed,
        compare_users=args.scale_compare_users,
        target_p50_ms=args.target_p50_ms,
        rss_ceiling_mb=args.rss_ceiling_mb,
    )
    print(format_scale_report(report))
    if args.json:
        path = write_report(report, args.json)
        print(f"wrote {path}")
    if not report["equivalent"]:
        print("FAIL: the streaming build diverges from the in-memory "
              "builder (arena bytes or query answers differ)")
        return 1
    ratio = float(report["memory_comparison"]["rss_ratio"])  # type: ignore[index]
    if args.min_rss_ratio > 0.0 and ratio < args.min_rss_ratio:
        print(f"FAIL: in-memory/streaming build peak-RSS ratio "
              f"{ratio:.2f}x is below the required "
              f"{args.min_rss_ratio:.2f}x")
        return 1
    return 0


def _load_serving_dataset(args: argparse.Namespace) -> Dataset:
    if args.arena:
        return Dataset.from_arena(args.arena)
    return delicious_like(scale=args.scale, seed=args.seed)


def _warmup_seekers(dataset, queries, limit: int) -> List[int]:
    """The ``limit`` most frequent valid seekers of a workload trace, hot first.

    Out-of-range ids (a trace recorded against a different corpus) are
    dropped *before* ranking so they never consume warm-up slots.
    """
    counts: dict = {}
    for query in queries:
        if 0 <= query.seeker < dataset.num_users:
            counts[query.seeker] = counts.get(query.seeker, 0) + 1
    ranked = sorted(counts, key=lambda seeker: (-counts[seeker], seeker))
    return ranked[:limit]


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so the plain library commands never pay for the service
    # package.
    import time as _time

    from .service import QueryService
    from .service.http_api import serve_forever

    durable = None
    if args.durable_dir:
        durable, dataset = _open_durable(args)
    else:
        dataset = _load_serving_dataset(args)
    engine = SocialSearchEngine(dataset, _engine_config(args))
    config = ServiceConfig(
        cache_capacity=args.cache_capacity,
        cache_ttl_seconds=args.ttl,
        compact_threshold=args.compact_threshold,
        host=args.host,
        port=args.port,
    )
    service = QueryService(engine, config, durable=durable)
    if args.trace_sample_rate is not None:
        from .obs.trace import Tracer, set_tracer

        set_tracer(Tracer(sample_rate=args.trace_sample_rate,
                          capacity=args.trace_capacity))
        print(f"tracing enabled: sampling {args.trace_sample_rate:.0%} of "
              f"requests, retaining the last {args.trace_capacity} traces "
              "(GET /trace/<X-Request-Id>)")
    if args.warmup > 0:
        # Pre-populate the proximity cache for the hottest seekers of
        # the workload trace before accepting traffic.
        if args.trace:
            from .workload.trace import load_queries

            trace = load_queries(args.trace)
        else:
            trace = generate_workload(
                dataset, WorkloadConfig(num_queries=max(args.warmup * 5, 100),
                                        seed=args.seed))
        started = _time.perf_counter()
        warmed = service.warm_proximity(_warmup_seekers(dataset, trace, args.warmup))
        print(f"warmed proximity for {warmed} seekers in "
              f"{(_time.perf_counter() - started) * 1000.0:.1f} ms")
    print(dataset.describe())
    serve_forever(service, host=config.host, port=config.port,
                  updater=durable.updater if durable is not None else None)
    return 0


def _open_durable(args: argparse.Namespace):
    """Open (crash-recovering) or bootstrap the ``--durable-dir`` store.

    Returns ``(store, dataset)``; the served dataset is always the store's
    own memory-mapped generation, so recovery and normal startup are the
    same code path.
    """
    from pathlib import Path as _Path

    from .config import DurabilityConfig
    from .storage.durable import MANIFEST_NAME, DurableStore

    dconfig = DurabilityConfig(directory=args.durable_dir,
                               wal_fsync=args.wal_fsync)
    if (_Path(args.durable_dir) / MANIFEST_NAME).exists():
        store = DurableStore.open(args.durable_dir, config=dconfig)
        report = store.recovery
        print(f"recovered durable store {args.durable_dir}: generation "
              f"{store.generation}, {report.records_replayed} WAL records "
              f"replayed ({report.torn_tail_bytes} torn bytes dropped) in "
              f"{report.duration_seconds * 1000.0:.1f} ms")
    else:
        dataset = _load_serving_dataset(args)
        store = DurableStore.initialise(dataset, args.durable_dir,
                                        config=dconfig)
        print(f"initialised durable store {args.durable_dir} (generation 0, "
              f"wal fsync={dconfig.wal_fsync})")
    return store, store.dataset


def _command_recover(args: argparse.Namespace) -> int:
    """Recover a durable store and report what the replay did.

    This is the same code path ``repro serve --durable-dir`` runs on
    startup, exposed standalone so an operator can inspect (and with
    ``--checkpoint`` collapse) a crashed store without serving traffic.
    """
    import json as _json

    from .config import DurabilityConfig
    from .storage.durable import DurableStore

    config = DurabilityConfig(directory=args.directory,
                              wal_fsync=args.wal_fsync)
    store = DurableStore.open(args.directory, config=config)
    report = store.recovery.to_dict()
    print(_json.dumps(report, indent=2))
    print(store.dataset.describe())
    if args.checkpoint:
        result = store.checkpoint(force=True)
        print(f"checkpointed: generation {result['generation']}, "
              f"{result['folded']} delta actions folded, removed "
              f"{result.get('gc_removed', [])}")
    store.close()
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis rules and gate against the baseline.

    Exit codes: 0 clean (or every finding grandfathered with a
    justification), 1 when new or unjustified findings fire, 2 when a
    scanned file cannot be parsed.
    """
    import json as _json
    from pathlib import Path

    from .analysis import (all_rules, diff_against_baseline, get_rule,
                           lint_paths, load_baseline, write_baseline)

    if args.rules:
        try:
            rules = [get_rule(rule_id.strip())
                     for rule_id in args.rules.split(",") if rule_id.strip()]
        except KeyError as exc:
            known = ", ".join(sorted(rule.rule_id for rule in all_rules()))
            print(f"unknown rule {exc.args[0]!r}; known rules: {known}",
                  file=sys.stderr)
            return 2
    else:
        rules = None
    report = lint_paths(args.paths, rules=rules)
    baseline_path = Path(args.baseline_file)

    if args.baseline == "write":
        existing = load_baseline(baseline_path)
        written = write_baseline(baseline_path, report.findings, existing)
        print(f"{baseline_path}: wrote {written} finding(s); fill in every "
              f"empty \"justification\" or the gate still fails")
        return 0

    baseline = load_baseline(baseline_path)
    diff = diff_against_baseline(report.findings, baseline)

    if args.format == "json":
        payload = dict(report.to_dict(),
                       baseline_file=str(baseline_path),
                       new=[f.to_dict() for f in diff.new],
                       grandfathered=[f.to_dict() for f in diff.grandfathered],
                       unjustified=[f.to_dict() for f in diff.unjustified],
                       stale=list(diff.stale),
                       failing=len(diff.failing))
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in diff.failing:
            print(finding.format())
        for finding in diff.grandfathered:
            print(f"{finding.format()} (baselined)")
        for entry in diff.stale:
            print(f"stale baseline entry: [{entry.get('rule')}] "
                  f"{entry.get('file')}: {entry.get('message')}")
        for error in report.errors:
            print(f"parse error: {error}")
        summary = (f"{report.files_scanned} file(s) scanned, "
                   f"{len(diff.failing)} failing, "
                   f"{len(diff.grandfathered)} baselined, "
                   f"{len(diff.stale)} stale, "
                   f"{report.suppressed} suppressed inline")
        print(summary)
    if report.errors:
        return 2
    return 1 if diff.failing else 0


def _command_build_arena(args: argparse.Namespace) -> int:
    import time as _time

    from .storage.arena import build_arena

    if args.stream:
        # Out-of-core path: the corpus is generated chunk-at-a-time and the
        # index sections are assembled through scratch memmaps, so the
        # whole dataset never exists as Python objects.
        from .storage.arena_stream import build_arena_streaming
        from .workload.datasets import scaled_config

        config = scaled_config(args.users, seed=args.seed)
        started = _time.perf_counter()
        path = build_arena_streaming(config, args.output,
                                     chunk_size=args.chunk_size)
        elapsed = (_time.perf_counter() - started) * 1000.0
        size = path.stat().st_size
        print(f"wrote arena {path} ({size} bytes) in {elapsed:.1f} ms: "
              f"streamed {config.name!r} ({config.num_users} users, "
              f"{config.num_actions} actions, chunk {args.chunk_size})")
        return 0

    dataset = delicious_like(scale=args.scale, seed=args.seed)
    started = _time.perf_counter()
    path = build_arena(dataset, args.output)
    elapsed = (_time.perf_counter() - started) * 1000.0
    size = path.stat().st_size
    print(f"wrote arena {path} ({size} bytes) in {elapsed:.1f} ms: "
          f"{dataset.describe()}")
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    """cProfile the per-query path over a trace (hotspot regression guard)."""
    import cProfile
    import io
    import pstats

    from .workload.trace import load_queries

    queries = load_queries(args.queries_file)
    if not queries:
        print(f"no queries in {args.queries_file}")
        return 1
    dataset = _load_serving_dataset(args)
    engine = SocialSearchEngine(dataset, _engine_config(args))
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(args.rounds):
        engine.run_many(queries)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"profiled {len(queries)} queries x {args.rounds} rounds "
          f"({engine.config.algorithm}, {engine.config.proximity.measure}) "
          f"on {dataset.name}")
    print(buffer.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Social-aware top-k search (reproduction of 'With a little "
                    "help from my friends', ICDE 2013)",
    )
    subparsers = parser.add_subparsers(dest="command")

    demo = subparsers.add_parser("demo", help="run an end-to-end demo on synthetic data")
    demo.add_argument("--scale", type=float, default=0.3, help="dataset scale factor")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--k", type=int, default=10)
    _add_engine_arguments(demo)
    demo.set_defaults(handler=_command_demo)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset "
                                                      "and write it as an arena")
    generate.add_argument("output", help="arena file to create")
    generate.add_argument("--name", default="synthetic")
    generate.add_argument("--users", type=int, default=400)
    generate.add_argument("--items", type=int, default=1500)
    generate.add_argument("--tags", type=int, default=120)
    generate.add_argument("--actions", type=int, default=12000)
    generate.add_argument("--homophily", type=float, default=0.5)
    generate.add_argument("--seed", type=int, default=7)
    generate.set_defaults(handler=_command_generate)

    query = subparsers.add_parser("query", help="answer one query over an arena file")
    query.add_argument("arena", help="arena file written by 'repro generate' or "
                                     "'repro build-arena'")
    query.add_argument("seeker", type=int, help="seeker user id")
    query.add_argument("tags", nargs="+", help="query tags")
    query.add_argument("--k", type=int, default=10)
    _add_engine_arguments(query)
    query.set_defaults(handler=_command_query)

    bench = subparsers.add_parser(
        "bench", help="run a small algorithm comparison, or the headless "
                      "benchmark suite with --suite")
    bench.add_argument("--scale", type=float, default=0.3,
                       help="comparison-mode dataset scale (the suite sizes "
                            "its corpus with --users instead)")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--queries", type=int, default=20)
    bench.add_argument("--k", type=int, default=10)
    bench.add_argument("--holdout", type=float, default=0.2,
                       help="comparison-mode holdout fraction (unused by --suite)")
    bench.add_argument("--algorithms", nargs="*", default=None,
                       help="algorithms to measure (both modes)")
    bench.add_argument("--suite", nargs="?", const="topk", default=None,
                       choices=("topk", "updates", "durability", "scale"),
                       help="run a headless bench_fig*-style suite: 'topk' "
                            "(per-algorithm p50/p95/qps; the default when "
                            "no value is given), 'updates' "
                            "(interleaved query/update trace over an "
                            "arena-backed dataset: post- vs pre-update p50 "
                            "plus a fresh-rebuild equivalence gate) or "
                            "'durability' "
                            "(chaos sweep killing the write path at every "
                            "fault-injection point, with an acked-update-"
                            "loss gate, recovery equivalence gate, replay "
                            "timing and WAL fsync-policy overhead) or "
                            "'scale' (out-of-core corpus sweep: streaming "
                            "arena builds vs the in-memory builder with "
                            "per-size peak RSS, cold start and serving "
                            "p50/p95, a byte-identity equivalence gate and "
                            "an optional operating-point binary search)")
    bench.add_argument("--users", type=int, default=200,
                       help="suite dataset size in users (default: 200, the "
                            "Figure-6 medium point)")
    bench.add_argument("--rounds", type=int, default=3,
                       help="suite timing passes over the workload (default: 3)")
    bench.add_argument("--json", default=None, metavar="PATH",
                       help="suite: write the machine-readable report here "
                            "(e.g. benchmarks/results/BENCH_topk.json)")
    bench.add_argument("--max-p50-ratio", type=float, default=0.0,
                       help="updates suite: exit non-zero when the "
                            "post-update query p50 exceeds this multiple "
                            "of the pre-update p50 (0 = report only)")
    bench.add_argument("--max-trace-overhead", type=float, default=0.0,
                       help="topk suite: also measure the tracing "
                            "instrumentation A/B (tracer off / unsampled "
                            "/ fully sampled / off-again) and exit "
                            "non-zero when the disabled-tracer p50 after "
                            "tracers were installed and removed exceeds "
                            "this multiple of the never-traced p50 "
                            "(e.g. 1.02 = 2%% budget; 0 = skip)")
    bench.add_argument("--trace-jsonl", default=None, metavar="PATH",
                       help="topk suite: write one fully-traced query's "
                            "spans as JSON lines to PATH (CI artifact)")
    bench.add_argument("--scale-sizes", default=None, metavar="N,N,...",
                       help="scale suite: comma-separated corpus sizes in "
                            "users (default: 2500,10000,25000,50000,100000)")
    bench.add_argument("--chunk-size", type=int, default=100000,
                       help="scale suite: streaming generator batch size in "
                            "actions (default: 100000)")
    bench.add_argument("--scale-compare-users", type=int, default=None,
                       help="scale suite: corpus size for the in-memory vs "
                            "streaming peak-RSS comparison (default: the "
                            "largest sweep size)")
    bench.add_argument("--target-p50-ms", type=float, default=None,
                       help="scale suite: serving-latency target; enables "
                            "the operating-point binary search for the "
                            "largest corpus meeting it")
    bench.add_argument("--rss-ceiling-mb", type=float, default=None,
                       help="scale suite: peak-RSS ceiling (build and "
                            "serve) for the operating-point search")
    bench.add_argument("--min-rss-ratio", type=float, default=0.0,
                       help="scale suite: exit non-zero when the in-memory/"
                            "streaming build peak-RSS ratio falls below "
                            "this factor (0 = report only)")
    _add_engine_arguments(bench)
    bench.set_defaults(handler=_command_bench)

    build_arena = subparsers.add_parser(
        "build-arena", help="serialise a dataset into the memory-mapped "
                            "index arena")
    build_arena.add_argument("output", help="arena file to create")
    build_arena.add_argument("--scale", type=float, default=0.3,
                             help="synthetic delicious-like dataset scale "
                                  "(default: 0.3)")
    build_arena.add_argument("--seed", type=int, default=7)
    build_arena.add_argument("--stream", action="store_true",
                             help="build out-of-core: generate a scaled "
                                  "synthetic corpus (--users) chunk-at-a-"
                                  "time and assemble the arena through "
                                  "scratch memmaps; byte-identical to the "
                                  "in-memory build at the same seed")
    build_arena.add_argument("--users", type=int, default=2500,
                             help="with --stream: corpus size in users "
                                  "(default: 2500)")
    build_arena.add_argument("--chunk-size", type=int, default=100000,
                             help="with --stream: generator batch size in "
                                  "actions (default: 100000)")
    build_arena.set_defaults(handler=_command_build_arena)

    explain = subparsers.add_parser(
        "explain", help="print the planner's execution plan for a query "
                        "(pending delta, proximity path, executor, frontier "
                        "bound) without executing it")
    explain.add_argument("seeker", type=int, help="seeker user id")
    explain.add_argument("tags", nargs="+", help="query tags")
    explain.add_argument("--k", type=int, default=10)
    explain.add_argument("--arena", default=None,
                         help="arena file written by 'repro generate' or "
                              "'repro build-arena' (default: synthetic "
                              "delicious-like corpus)")
    explain.add_argument("--scale", type=float, default=0.3,
                         help="synthetic dataset scale when no arena is "
                              "given")
    explain.add_argument("--seed", type=int, default=7)
    explain.add_argument("--analyze", action="store_true",
                         help="execute the query under a tracer and print "
                              "the recorded span tree — per-stage timings "
                              "and stage coverage of the wall time "
                              "(EXPLAIN ANALYZE)")
    explain.add_argument("--trace-out", default=None, metavar="PATH",
                         help="with --analyze: write the recorded spans as "
                              "JSON lines to PATH")
    explain.add_argument("--chrome-trace", default=None, metavar="PATH",
                         help="with --analyze: write a Chrome trace_event "
                              "file to PATH (chrome://tracing / Perfetto)")
    _add_engine_arguments(explain)
    explain.set_defaults(handler=_command_explain)

    serve = subparsers.add_parser(
        "serve", help="serve queries over a JSON HTTP API with caching")
    serve.add_argument("--arena", default=None,
                       help="arena file written by 'repro generate' or "
                            "'repro build-arena' (memory-mapped cold start; "
                            "default: synthetic delicious-like corpus)")
    serve.add_argument("--scale", type=float, default=0.3,
                       help="synthetic dataset scale when no arena is given")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--cache-capacity", type=int, default=1024,
                       help="result cache entries, 0 disables (default: 1024)")
    serve.add_argument("--ttl", type=float, default=300.0,
                       help="result cache TTL in seconds, 0 = no expiry")
    serve.add_argument("--compact-threshold", type=int, default=2048,
                       metavar="N",
                       help="fold live-update delta overlays back into "
                            "fresh index arrays on a background thread "
                            "once N delta actions are pending (0 disables "
                            "background compaction; default: 2048)")
    serve.add_argument("--warmup", type=int, default=0, metavar="N",
                       help="pre-populate the proximity cache for the "
                            "N most frequent seekers of the workload trace "
                            "before accepting traffic (default: 0 = off)")
    serve.add_argument("--trace", default=None,
                       help="query trace (JSON lines) supplying the --warmup "
                            "seeker frequencies; defaults to a synthetic "
                            "workload over the served dataset")
    serve.add_argument("--trace-sample-rate", type=float, default=None,
                       metavar="RATE",
                       help="enable end-to-end query tracing, sampling this "
                            "fraction of requests in [0, 1]; traces are "
                            "served back on GET /trace/<X-Request-Id> "
                            "(default: tracing disabled, zero overhead)")
    serve.add_argument("--trace-capacity", type=int, default=256,
                       help="completed traces retained in the ring buffer "
                            "(default: 256)")
    serve.add_argument("--durable-dir", default=None, metavar="DIR",
                       help="serve from a durable store rooted at DIR: "
                            "updates are WAL-logged before they are "
                            "acknowledged, compaction publishes atomic "
                            "arena generations, and startup crash-recovers "
                            "automatically (bootstrapped from the served "
                            "dataset when DIR holds no store yet)")
    serve.add_argument("--wal-fsync", default="always",
                       choices=("always", "interval", "off"),
                       help="WAL fsync policy with --durable-dir: 'always' "
                            "syncs every append before acking (survives "
                            "power loss), 'interval' amortises syncs, "
                            "'off' leaves it to the OS page cache "
                            "(default: always)")
    _add_engine_arguments(serve)
    serve.set_defaults(handler=_command_serve)

    recover = subparsers.add_parser(
        "recover", help="crash-recover a durable store (arena generation + "
                        "WAL replay) and print the recovery report")
    recover.add_argument("directory",
                         help="durable store directory (MANIFEST.json + "
                              "gen-<n>.arena + wal-<n>.log)")
    recover.add_argument("--wal-fsync", default="always",
                         choices=("always", "interval", "off"),
                         help="fsync policy for the re-opened WAL "
                              "(default: always)")
    recover.add_argument("--checkpoint", action="store_true",
                         help="after recovery, fold the replayed records "
                              "and publish a fresh generation so the next "
                              "startup replays nothing")
    recover.set_defaults(handler=_command_recover)

    profile = subparsers.add_parser(
        "profile", help="cProfile the per-query path over a query trace "
                        "and print the top cumulative hotspots")
    profile.add_argument("queries_file",
                         help="query trace (JSON lines, see "
                              "repro.workload.trace.save_queries)")
    profile.add_argument("--arena", default=None,
                         help="arena file to query (default: synthetic "
                              "corpus)")
    profile.add_argument("--scale", type=float, default=0.3,
                         help="synthetic dataset scale when no arena is "
                              "given")
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--rounds", type=int, default=3,
                         help="passes over the trace (default: 3)")
    profile.add_argument("--top", type=int, default=20,
                         help="number of cumulative hotspots to print "
                              "(default: 20)")
    _add_engine_arguments(profile)
    profile.set_defaults(handler=_command_profile)

    lint = subparsers.add_parser(
        "lint", help="run the repo's static-analysis rules and gate "
                     "against the committed baseline")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", default="text", choices=("text", "json"),
                      help="report format (default: text)")
    lint.add_argument("--baseline", default="check",
                      choices=("check", "write"),
                      help="'check' gates findings against the baseline "
                           "file; 'write' rewrites it from the current "
                           "findings, keeping existing justifications")
    lint.add_argument("--baseline-file", default="lint-baseline.json",
                      help="baseline path (default: lint-baseline.json)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.set_defaults(handler=_command_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
