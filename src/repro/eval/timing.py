"""Latency and memory measurement helpers.

All timings use ``time.perf_counter`` (monotonic, highest available
resolution).  :class:`LatencyRecorder` accumulates per-query latencies and
reports the usual distribution summary (mean / median / p95 / max), which is
what the latency figures plot.

Memory comes in three complementary views, all used by the scale sweep:

* :func:`peak_rss_bytes` — the OS high-water mark (``ru_maxrss``), which
  includes numpy buffers and mapped pages but never decreases;
* :func:`current_rss_bytes` — the instantaneous resident set, cheap enough
  to sample inside a benchmark loop;
* :func:`measure_in_subprocess` — run a build in a forked child so its
  ``ru_maxrss`` starts fresh, giving a *per-build* peak that is not
  polluted by whatever the parent already allocated.  This is the only way
  to compare the in-memory and streaming builders' footprints in one
  process run.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _ru_maxrss_bytes() -> int:
    """``ru_maxrss`` normalised to bytes (Linux reports KB, macOS bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def peak_rss_bytes() -> int:
    """High-water-mark resident set size of this process, in bytes.

    Monotone non-decreasing over the process lifetime; use
    :func:`measure_in_subprocess` when an isolated per-task peak is needed.
    """
    return _ru_maxrss_bytes()


def current_rss_bytes() -> int:
    """Instantaneous resident set size in bytes (0 when unavailable)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-linux
        return 0


def memory_summary() -> Dict[str, float]:
    """The memory block every benchmark report embeds (MB units)."""
    return {
        "peak_rss_mb": peak_rss_bytes() / (1024.0 * 1024.0),
        "current_rss_mb": current_rss_bytes() / (1024.0 * 1024.0),
    }


class MemoryMeter:
    """Context manager around :mod:`tracemalloc` for Python-heap peaks.

    Measures allocations made *inside* the block (numpy's heap buffers are
    tracked via PEP 445 hooks; memory-mapped pages are not, which is exactly
    the distinction the out-of-core builder exploits).  Nesting-safe: if
    tracemalloc is already running, the meter only resets the peak.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._started_here = False

    def __enter__(self) -> "MemoryMeter":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_here = True
        tracemalloc.reset_peak()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _current, peak = tracemalloc.get_traced_memory()
        self.peak_bytes = int(peak)
        if self._started_here:
            tracemalloc.stop()

    @property
    def peak_mb(self) -> float:
        """Peak traced Python-heap allocation inside the block, in MB."""
        return self.peak_bytes / (1024.0 * 1024.0)


def _subprocess_entry(func: Callable[[], Any], conn) -> None:
    baseline = _ru_maxrss_bytes()
    start = time.perf_counter()
    try:
        value = func()
    # lint: allow(durability-ordering) -- fork boundary: error is serialised to the parent, which re-raises it; nothing is swallowed
    except BaseException as exc:  # pragma: no cover - propagated to parent
        conn.send(("error", f"{type(exc).__name__}: {exc}", 0, 0.0))
        conn.close()
        return
    elapsed = time.perf_counter() - start
    peak_delta = max(0, _ru_maxrss_bytes() - baseline)
    conn.send(("ok", value, peak_delta, elapsed))
    conn.close()


def measure_in_subprocess(func: Callable[[], Any]
                          ) -> Tuple[Any, int, float]:
    """Run ``func`` in a forked child; return ``(value, peak_bytes, secs)``.

    ``peak_bytes`` is the child's ``ru_maxrss`` *growth* beyond what it
    inherited at fork time, i.e. the memory the measured work itself
    demanded.  Fork start is required (no pickling of ``func``: closures
    over configs are fine); on platforms without fork the function runs
    in-process and the peak is a best-effort delta.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix
        before = peak_rss_bytes()
        with Timer() as timer:
            value = func()
        return value, max(0, peak_rss_bytes() - before), timer.elapsed_seconds
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(target=_subprocess_entry,
                              args=(func, child_conn))
    process.start()
    child_conn.close()
    try:
        status, value, peak_bytes, elapsed = parent_conn.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"measured subprocess died (exit code {process.exitcode})")
    finally:
        parent_conn.close()
    process.join()
    if status == "error":
        raise RuntimeError(f"measured subprocess failed: {value}")
    return value, int(peak_bytes), float(elapsed)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 when empty.

    ``fraction`` is in ``[0, 1]`` (e.g. 0.99 for the p99).  Shared by the
    evaluation tables and the serving-layer metrics so both report the same
    quantile semantics.
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as timer:
    ...     do_work()
    >>> timer.elapsed_seconds
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed_seconds: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self._start is not None:
            self.elapsed_seconds = time.perf_counter() - self._start

    @property
    def elapsed_milliseconds(self) -> float:
        """Elapsed time in milliseconds."""
        return self.elapsed_seconds * 1000.0


@dataclass
class LatencyRecorder:
    """Accumulates per-query latencies (in seconds)."""

    samples: List[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        """Add one latency sample."""
        self.samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self.samples)

    def percentile(self, fraction: float) -> float:
        """Latency at the given quantile (nearest-rank, 0 when empty)."""
        return percentile(self.samples, fraction)

    @property
    def mean(self) -> float:
        """Mean latency in seconds."""
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def median(self) -> float:
        """Median latency in seconds."""
        return self.percentile(0.5)

    @property
    def p95(self) -> float:
        """95th-percentile latency in seconds."""
        return self.percentile(0.95)

    @property
    def maximum(self) -> float:
        """Maximum latency in seconds."""
        return max(self.samples) if self.samples else 0.0

    def summary(self) -> Dict[str, float]:
        """Distribution summary in milliseconds (plot-friendly units)."""
        return {
            "mean_ms": self.mean * 1000.0,
            "median_ms": self.median * 1000.0,
            "p95_ms": self.p95 * 1000.0,
            "max_ms": self.maximum * 1000.0,
            "count": float(len(self.samples)),
        }
