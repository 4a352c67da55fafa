"""Corpus-scale sweep: out-of-core builds, RSS ceilings, operating points.

The paper's scalability story is a curve, not a number: how large a corpus
can one box build and serve before latency or memory gives out?  This suite
measures exactly that:

* for each corpus size it **builds the arena out-of-core** (streaming
  generator + chunked writer, :mod:`repro.storage.arena_stream`) in a forked
  child so the build's peak RSS is measured in isolation, then **serves** a
  query workload from the memory-mapped arena in a second child (cold-start
  time, p50/p95, serving peak RSS);
* at one comparison size it builds the same corpus with the classic
  in-memory :func:`build_dataset` + :func:`build_arena` path and reports the
  peak-RSS ratio between the two builders — the headline out-of-core win;
* at a small size it runs the **equivalence gate**: the streaming arena must
  be byte-identical to the in-memory one and both engines must answer the
  same queries identically;
* when a latency target (and optionally an RSS ceiling) is given, it
  **binary-searches the largest corpus** that still meets the target,
  bracketed by the sweep measurements — the operating point of this box.

Queries are sampled directly from the arena's action arrays
(activity-weighted seekers, popularity-weighted tags) instead of going
through :class:`QueryWorkloadGenerator`, whose per-user profile scans would
materialise the whole corpus in Python dicts and defeat the measurement.
"""

from __future__ import annotations

import hashlib
import platform
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EngineConfig, ProximityConfig, ScoringConfig
from ..core.engine import SocialSearchEngine
from ..core.query import Query
from ..storage.arena import Arena, build_arena
from ..storage.arena_stream import DEFAULT_CHUNK_SIZE, build_arena_streaming
from ..storage.dataset import Dataset
from ..workload.datasets import build_dataset, scaled_config
from ..workload.sampler import dataset_workload, sample_workload
from .quality import result_signature
from .timing import Timer, measure_in_subprocess, memory_summary, percentile

#: default sweep (the last entry is the headline out-of-core size).
DEFAULT_SIZES = (2500, 10000, 25000, 50000, 100000)

_MB = 1024.0 * 1024.0


def _engine_for(dataset: Dataset) -> SocialSearchEngine:
    return SocialSearchEngine(dataset, EngineConfig(
        algorithm="social-first",
        scoring=ScoringConfig(alpha=0.5),
        proximity=ProximityConfig(measure="shortest-path", cache_size=256),
    ))


def arena_workload(arena: Arena, num_queries: int, k: int,
                   seed: int = 3, tags_per_query: float = 2.0) -> List[Query]:
    """Sample a query workload straight from the arena's action arrays.

    Mirrors the default workload semantics — seekers drawn proportionally to
    their activity, tags proportionally to popularity, a Poisson number of
    distinct tags per query — using only ``np.bincount`` over the mapped
    action log, so generating queries for a 100k-user corpus touches no
    per-user Python structures.  The draw itself lives in
    :func:`~repro.workload.sampler.sample_workload`; this wrapper only
    computes the histograms from the mapped arrays.
    """
    num_users = int(arena.meta["num_users"])
    tag_table = [str(tag) for tag in arena.meta["tags"]]
    activity = np.bincount(np.asarray(arena.array("actions.user_ids")),
                           minlength=num_users).astype(np.float64)
    popularity = np.bincount(np.asarray(arena.array("actions.tag_ids")),
                             minlength=len(tag_table)).astype(np.float64)
    return sample_workload(tag_table, activity, popularity,
                           num_queries=num_queries, k=k, seed=seed,
                           tags_per_query=tags_per_query)


def _serve_from_arena(arena_path: Path, num_queries: int, k: int,
                      rounds: int) -> Dict[str, float]:
    """Cold-start + steady-state serving numbers for one arena (runs in a
    forked child so its RSS growth is attributable)."""
    with Timer() as cold:
        dataset = Dataset.from_arena(arena_path)
        engine = _engine_for(dataset)
    queries = arena_workload(Arena.open(arena_path), num_queries, k)
    for query in queries:  # warm-up: proximity cache, numpy buffers
        engine.run(query)
    samples: List[float] = []
    for _ in range(rounds):
        for query in queries:
            started = time.perf_counter()
            engine.run(query)
            samples.append(time.perf_counter() - started)
    return {
        "cold_start_ms": cold.elapsed_milliseconds,
        "p50_ms": percentile(samples, 0.5) * 1000.0,
        "p95_ms": percentile(samples, 0.95) * 1000.0,
        "mean_ms": sum(samples) / len(samples) * 1000.0,
        "queries": float(len(queries)),
        "rounds": float(rounds),
    }


def _measure_size(num_users: int, workdir: Path, chunk_size: int,
                  num_queries: int, k: int, rounds: int, seed: int
                  ) -> Dict[str, object]:
    """Streaming build + serve measurements for one corpus size."""
    config = scaled_config(num_users, seed=seed)
    arena_path = workdir / f"scaled-{num_users}.arena"
    _, build_peak, build_seconds = measure_in_subprocess(
        lambda: str(build_arena_streaming(config, arena_path,
                                          chunk_size=chunk_size)))
    arena = Arena.open(arena_path)
    stored_actions = int(arena.meta["num_actions"])
    serve, serve_peak, _ = measure_in_subprocess(
        lambda: _serve_from_arena(arena_path, num_queries, k, rounds))
    return {
        "num_users": num_users,
        "config": {
            "num_items": config.num_items,
            "num_tags": config.num_tags,
            "num_actions": config.num_actions,
        },
        "build": {
            "streaming_seconds": build_seconds,
            "streaming_peak_rss_mb": build_peak / _MB,
            "arena_mb": arena_path.stat().st_size / _MB,
            "actions_stored": stored_actions,
        },
        "serve": dict(serve, serve_peak_rss_mb=serve_peak / _MB),
    }


def _entry_passes(entry: Dict[str, object], target_p50_ms: Optional[float],
                  rss_ceiling_mb: Optional[float]) -> bool:
    serve = entry["serve"]  # type: ignore[index]
    build = entry["build"]  # type: ignore[index]
    if target_p50_ms is not None and serve["p50_ms"] > target_p50_ms:
        return False
    if rss_ceiling_mb is not None:
        peak = max(build["streaming_peak_rss_mb"], serve["serve_peak_rss_mb"])
        if peak > rss_ceiling_mb:
            return False
    return True


def _equivalence_gate(num_users: int, chunk_sizes: Sequence[int],
                      workdir: Path, num_queries: int, k: int,
                      seed: int) -> Dict[str, object]:
    """Byte-level and answer-level identity of streaming vs in-memory."""
    config = scaled_config(num_users, seed=seed)
    dataset = build_dataset(config)
    reference_path = workdir / "equivalence-reference.arena"
    build_arena(dataset, reference_path)
    reference_digest = hashlib.sha256(
        reference_path.read_bytes()).hexdigest()
    bytes_identical = True
    digests: Dict[str, str] = {"in_memory": reference_digest}
    last_stream_path = reference_path
    for chunk in chunk_sizes:
        stream_path = workdir / f"equivalence-stream-{chunk}.arena"
        build_arena_streaming(config, stream_path, chunk_size=chunk)
        digest = hashlib.sha256(stream_path.read_bytes()).hexdigest()
        digests[f"stream_chunk_{chunk}"] = digest
        if digest != reference_digest:
            bytes_identical = False
        last_stream_path = stream_path

    queries = dataset_workload(dataset, num_queries=num_queries, k=k, seed=3)
    memory_engine = _engine_for(dataset)
    arena_engine = _engine_for(Dataset.from_arena(last_stream_path))
    mismatches = 0
    for query in queries:
        expected = result_signature(memory_engine.run(query))
        got = result_signature(arena_engine.run(query))
        if expected != got:
            mismatches += 1
    return {
        "num_users": num_users,
        "chunk_sizes": list(chunk_sizes),
        "digests": digests,
        "arena_bytes_identical": bytes_identical,
        "queries_checked": len(queries),
        "query_mismatches": mismatches,
        "query_results_identical": mismatches == 0,
    }


def _operating_point(entries: List[Dict[str, object]], workdir: Path,
                     chunk_size: int, num_queries: int, k: int, rounds: int,
                     seed: int, target_p50_ms: Optional[float],
                     rss_ceiling_mb: Optional[float],
                     max_probes: int) -> Dict[str, object]:
    """Binary-search the largest corpus meeting the latency/RSS targets.

    The sweep entries bracket the answer; each probe is a full streaming
    build + serve measurement at the midpoint size.
    """
    passing = [entry for entry in entries
               if _entry_passes(entry, target_p50_ms, rss_ceiling_mb)]
    failing = [entry for entry in entries
               if not _entry_passes(entry, target_p50_ms, rss_ceiling_mb)]
    result: Dict[str, object] = {
        "target_p50_ms": target_p50_ms,
        "rss_ceiling_mb": rss_ceiling_mb,
        "probes": [],
    }
    if not passing:
        result["max_users"] = 0
        result["note"] = "no sweep size met the targets"
        return result
    low = max(int(entry["num_users"]) for entry in passing)  # type: ignore[arg-type]
    failing_above = [int(entry["num_users"]) for entry in failing  # type: ignore[arg-type]
                     if int(entry["num_users"]) > low]  # type: ignore[arg-type]
    if not failing_above:
        result["max_users"] = low
        result["note"] = ("largest sweep size met the targets; "
                          "the true limit lies beyond the sweep")
        return result
    high = min(failing_above)
    probes: List[Dict[str, object]] = []
    for _ in range(max_probes):
        if high - low <= max(low // 10, 1):
            break
        mid = (low + high) // 2
        entry = _measure_size(mid, workdir, chunk_size, num_queries, k,
                              rounds, seed)
        passed = _entry_passes(entry, target_p50_ms, rss_ceiling_mb)
        probes.append({
            "num_users": mid,
            "p50_ms": entry["serve"]["p50_ms"],  # type: ignore[index]
            "build_peak_rss_mb":
                entry["build"]["streaming_peak_rss_mb"],  # type: ignore[index]
            "serve_peak_rss_mb":
                entry["serve"]["serve_peak_rss_mb"],  # type: ignore[index]
            "passed": passed,
        })
        if passed:
            low = mid
        else:
            high = mid
    result["max_users"] = low
    result["bracket"] = [low, high]
    result["probes"] = probes
    return result


def run_scale_suite(sizes: Sequence[int] = DEFAULT_SIZES,
                    num_queries: int = 25, k: int = 10, rounds: int = 3,
                    chunk_size: int = DEFAULT_CHUNK_SIZE, seed: int = 23,
                    equivalence_users: int = 2500,
                    equivalence_chunk_sizes: Sequence[int] = (7, 4096),
                    compare_users: Optional[int] = None,
                    target_p50_ms: Optional[float] = None,
                    rss_ceiling_mb: Optional[float] = None,
                    max_probes: int = 4,
                    workdir: Optional[Path] = None) -> Dict[str, object]:
    """Run the corpus-scale suite; returns the JSON report.

    ``compare_users`` (default: the largest sweep size) selects where the
    in-memory builder is run for the peak-RSS comparison; ``target_p50_ms``
    / ``rss_ceiling_mb`` enable the operating-point binary search.
    """
    sizes = sorted(set(int(size) for size in sizes))
    if not sizes:
        raise ValueError("sizes must not be empty")
    if compare_users is None:
        compare_users = sizes[-1]
    # The gate needs a corpus small enough to build in memory twice; never
    # exceed the sweep itself.
    equivalence_users = min(equivalence_users, sizes[-1])

    scratch: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-scale-")
        workdir = Path(scratch.name)
    else:
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
    try:
        report: Dict[str, object] = {
            "suite": "scale",
            "workload": {
                "sizes": list(sizes),
                "num_queries": num_queries,
                "k": k,
                "rounds": rounds,
                "chunk_size": chunk_size,
                "seed": seed,
            },
            "platform": {"python": platform.python_version(),
                         "machine": platform.machine()},
        }

        entries = [
            _measure_size(size, workdir, chunk_size, num_queries, k, rounds,
                          seed)
            for size in sizes
        ]
        report["entries"] = entries

        # In-memory comparison build at the chosen size: same corpus, the
        # classic build_dataset -> build_arena path, isolated fork.
        compare_config = scaled_config(compare_users, seed=seed)
        compare_path = workdir / f"inmemory-{compare_users}.arena"
        _, inmem_peak, inmem_seconds = measure_in_subprocess(
            lambda: str(build_arena(build_dataset(compare_config),
                                    compare_path)))
        stream_entry = next(
            (entry for entry in entries
             if int(entry["num_users"]) == compare_users), None)  # type: ignore[arg-type]
        if stream_entry is None:
            stream_entry = _measure_size(compare_users, workdir, chunk_size,
                                         num_queries, k, rounds, seed)
        stream_peak_mb = \
            stream_entry["build"]["streaming_peak_rss_mb"]  # type: ignore[index]
        report["memory_comparison"] = {
            "num_users": compare_users,
            "in_memory_build_peak_rss_mb": inmem_peak / _MB,
            "in_memory_build_seconds": inmem_seconds,
            "streaming_build_peak_rss_mb": stream_peak_mb,
            "streaming_build_seconds":
                stream_entry["build"]["streaming_seconds"],  # type: ignore[index]
            "rss_ratio": (inmem_peak / _MB) / max(stream_peak_mb, 1e-9),
        }

        gate = _equivalence_gate(equivalence_users, equivalence_chunk_sizes,
                                 workdir, num_queries, k, seed)
        report["equivalence"] = gate
        report["equivalent"] = bool(gate["arena_bytes_identical"]
                                    and gate["query_results_identical"])

        if target_p50_ms is not None or rss_ceiling_mb is not None:
            report["operating_point"] = _operating_point(
                entries, workdir, chunk_size, num_queries, k, rounds, seed,
                target_p50_ms, rss_ceiling_mb, max_probes)
        else:
            report["operating_point"] = None

        report["memory"] = memory_summary()
        return report
    finally:
        if scratch is not None:
            scratch.cleanup()


def format_scale_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a scale-suite report."""
    workload = report["workload"]
    lines = [
        "corpus scale suite "
        f"(sizes {', '.join(str(s) for s in workload['sizes'])}; "  # type: ignore[index]
        f"{workload['num_queries']} queries x "  # type: ignore[index]
        f"{workload['rounds']} rounds, "  # type: ignore[index]
        f"chunk {workload['chunk_size']})",  # type: ignore[index]
        f"{'users':>8} {'build s':>9} {'build MB':>9} {'arena MB':>9} "
        f"{'cold ms':>9} {'p50 ms':>8} {'p95 ms':>8} {'serve MB':>9}",
    ]
    for entry in report["entries"]:  # type: ignore[union-attr]
        build = entry["build"]
        serve = entry["serve"]
        lines.append(
            f"{entry['num_users']:>8} {build['streaming_seconds']:>9.1f} "
            f"{build['streaming_peak_rss_mb']:>9.1f} "
            f"{build['arena_mb']:>9.1f} {serve['cold_start_ms']:>9.1f} "
            f"{serve['p50_ms']:>8.3f} {serve['p95_ms']:>8.3f} "
            f"{serve['serve_peak_rss_mb']:>9.1f}")
    comparison = report["memory_comparison"]
    lines.append(
        f"memory        in-memory build "
        f"{comparison['in_memory_build_peak_rss_mb']:.1f} MB"  # type: ignore[index]
        f" vs streaming {comparison['streaming_build_peak_rss_mb']:.1f} MB"  # type: ignore[index]
        f" at {comparison['num_users']} users"  # type: ignore[index]
        f" -> {comparison['rss_ratio']:.1f}x less resident memory")  # type: ignore[index]
    gate = report["equivalence"]
    lines.append(
        f"equivalence   {'OK' if report['equivalent'] else 'FAILED'} "
        f"(bytes {'identical' if gate['arena_bytes_identical'] else 'DIFFER'}"  # type: ignore[index]
        f" across chunks {gate['chunk_sizes']}, "  # type: ignore[index]
        f"{gate['queries_checked']} queries, "  # type: ignore[index]
        f"{gate['query_mismatches']} mismatches)")  # type: ignore[index]
    point = report.get("operating_point")
    if point:
        ceiling = point.get("rss_ceiling_mb")  # type: ignore[union-attr]
        target = point.get("target_p50_ms")  # type: ignore[union-attr]
        constraints = " + ".join(
            part for part in (
                f"p50 <= {target:.1f} ms" if target is not None else None,
                f"rss <= {ceiling:.0f} MB" if ceiling is not None else None)
            if part)
        lines.append(
            f"operating pt  {point['max_users']} users under {constraints}"  # type: ignore[index]
            f" ({len(point['probes'])} probes)")  # type: ignore[index]
        if point.get("note"):  # type: ignore[union-attr]
            lines.append(f"              note: {point['note']}")  # type: ignore[index]
    memory = report.get("memory")
    if memory:
        lines.append(
            f"suite memory  peak rss {memory['peak_rss_mb']:.1f} MB"  # type: ignore[index]
            f" | current rss {memory['current_rss_mb']:.1f} MB")  # type: ignore[index]
    return "\n".join(lines)


__all__ = ["DEFAULT_SIZES", "arena_workload", "format_scale_report",
           "run_scale_suite"]
