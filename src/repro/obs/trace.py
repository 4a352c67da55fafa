"""Hierarchical query tracing with a near-free disabled path.

A **trace** is the tree of timed **spans** one query (or update, or
compaction) produced: monotonic start/end timestamps, free-form attributes,
and parent links.  The design goals, in order:

1. **The disabled path must cost almost nothing.**  Production serving
   leaves instrumentation call sites compiled into the hot path; with no
   tracer installed, :func:`span` is one module-global read, a ``None``
   check and the shared :data:`NULL_SPAN` context manager.  The engine's
   per-query entry point additionally guards on :func:`get_tracer`
   returning ``None`` and skips even that.  CI gates the overhead at <= 2%
   of the top-k suite's p50.
2. **Context propagates implicitly within a thread.**  ``span()`` nests
   under the calling thread's active span through a ``threading.local``
   stack, so the storage layer does not need plumbing to end up under the
   service's request span.  A request runs on one thread from the HTTP
   handler down to the algorithm, so there is no cross-thread form.
3. **Completed traces are queryable.**  Each finished *root* span files its
   trace into a bounded ring buffer keyed by trace id, which backs
   ``GET /trace/<id>`` and ``repro explain --analyze``.  The buffer holds
   the most recent ``capacity`` traces at constant memory.

Export formats: :meth:`Trace.to_jsonl` (one JSON object per span, greppable
and diffable) and :meth:`Trace.to_chrome` (the Chrome ``trace_event``
format — load the file at ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional

__all__ = [
    "NULL_SPAN",
    "Span",
    "Trace",
    "Tracer",
    "current_span",
    "get_tracer",
    "set_tracer",
    "span",
    "use",
    "render_tree",
    "stage_breakdown",
]


class _NullSpan:
    """The do-nothing span returned whenever tracing is off or unsampled.

    A single shared instance: entering/exiting it allocates nothing, and it
    is falsy so call sites can guard optional work with ``if span:``.
    """

    __slots__ = ()

    recording = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    def add(self, key: str, amount: float = 1) -> "_NullSpan":
        return self


#: Shared no-op span; the entire cost of a disabled call site.
NULL_SPAN = _NullSpan()


class _UnsampledRoot(_NullSpan):
    """The span of a root that lost the sampling coin flip.

    While it is open it suppresses the thread's nested ``span()`` calls
    (they would otherwise find no active context and start fragment
    traces of their own), keeping unsampled requests NULL all the way
    down at the cost of one thread-local increment.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> "_UnsampledRoot":
        self._tracer._suppress(1)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._suppress(-1)
        return False


class Span:
    """One timed operation inside a trace (a context manager).

    Attributes are free-form ``str -> json-able`` pairs; :meth:`set`
    overwrites, :meth:`add` accumulates numeric values (handy for counters
    like ``items_pruned`` that grow across a loop).  Durations are
    monotonic (:func:`time.perf_counter`) seconds.
    """

    __slots__ = ("name", "span_id", "parent_id", "trace", "started", "ended",
                 "attributes", "thread")

    recording = True

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 trace: "Trace", started: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace = trace
        self.started = started
        self.ended: Optional[float] = None
        self.attributes: Dict[str, object] = {}
        self.thread = threading.get_ident()

    def __bool__(self) -> bool:
        return True

    @property
    def duration_seconds(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        if self.ended is None:
            return 0.0
        return self.ended - self.started

    def set(self, **attributes: object) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def add(self, key: str, amount: float = 1) -> "Span":
        """Accumulate a numeric attribute (missing keys start at 0)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount
        return self

    # -- context manager ------------------------------------------------ #

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.trace.tracer._finish(self)
        return False

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view of one span."""
        return {
            "trace_id": self.trace.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.started,
            "duration_ms": self.duration_seconds * 1000.0,
            "attributes": dict(self.attributes),
        }


class Trace:
    """The completed (or in-flight) span tree of one traced operation."""

    __slots__ = ("trace_id", "name", "tracer", "spans", "_ids")

    def __init__(self, trace_id: str, name: str, tracer: "Tracer") -> None:
        self.trace_id = trace_id
        self.name = name
        self.tracer = tracer
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    @property
    def root(self) -> Optional[Span]:
        """The trace's root span (the first one started)."""
        return self.spans[0] if self.spans else None

    @property
    def duration_seconds(self) -> float:
        """Duration of the root span."""
        root = self.root
        return root.duration_seconds if root is not None else 0.0

    def children_of(self, span_id: Optional[int]) -> List[Span]:
        """Direct children of ``span_id`` in start order."""
        return [entry for entry in self.spans if entry.parent_id == span_id]

    def find(self, name: str) -> Optional[Span]:
        """First span with the given name, or ``None``."""
        for entry in self.spans:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (the ``/trace/<id>`` payload)."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "duration_ms": self.duration_seconds * 1000.0,
            "spans": [entry.to_dict() for entry in self.spans],
        }

    def to_jsonl(self) -> str:
        """One JSON object per span, newline-delimited (greppable export)."""
        return "\n".join(json.dumps(entry.to_dict(), sort_keys=True)
                         for entry in self.spans) + "\n"

    def to_chrome(self) -> str:
        """Chrome ``trace_event`` JSON (load at ``chrome://tracing``).

        Timestamps are microseconds relative to the root span's start so
        the timeline starts at zero regardless of process uptime.
        """
        origin = self.root.started if self.root is not None else 0.0
        events = []
        for entry in self.spans:
            events.append({
                "name": entry.name,
                "ph": "X",  # complete event: begin + duration in one record
                "ts": (entry.started - origin) * 1e6,
                "dur": entry.duration_seconds * 1e6,
                "pid": 1,
                "tid": entry.thread,
                "args": {key: value for key, value in entry.attributes.items()},
            })
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ms",
                           "otherData": {"trace_id": self.trace_id,
                                         "name": self.name}},
                          sort_keys=True)


class Tracer:
    """Creates spans, propagates context per thread, retains recent traces.

    Parameters
    ----------
    sample_rate:
        Probability that a new *root* span starts a recorded trace; spans
        of unsampled roots are :data:`NULL_SPAN` all the way down, so an
        unsampled request pays only the root-level coin flip.
    capacity:
        Ring-buffer size: the number of most-recent completed traces kept
        for ``/trace/<id>`` lookups.
    clock:
        Monotonic time source (injectable for deterministic tests).
    seed:
        Seed of the sampling RNG (injectable for deterministic tests).
    """

    def __init__(self, sample_rate: float = 1.0, capacity: int = 256,
                 clock: Callable[[], float] = time.perf_counter,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sample_rate = sample_rate
        self.capacity = capacity
        self._clock = clock
        self._random = random.Random(seed)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()  # guarded-by: _lock
        self._ids = itertools.count(1)
        #: Root spans started / actually recorded (sampling visibility).
        self.roots_started = 0
        self.roots_sampled = 0

    # -- context -------------------------------------------------------- #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, or ``None``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _suppress(self, delta: int) -> None:
        self._local.suppressed = self._suppressed() + delta

    def _suppressed(self) -> int:
        return getattr(self._local, "suppressed", 0)

    # -- span creation -------------------------------------------------- #

    def trace(self, name: str, trace_id: Optional[str] = None,
              **attributes: object):
        """Start a new root span (a fresh trace), subject to sampling.

        ``trace_id`` lets callers bind an external identity — the HTTP
        layer passes the request id so ``/trace/<id>`` lookups work from
        the ``X-Request-Id`` response header.
        """
        self.roots_started += 1
        if self.sample_rate < 1.0 and self._random.random() >= self.sample_rate:
            return _UnsampledRoot(self)
        self.roots_sampled += 1
        if trace_id is None:
            trace_id = f"{next(self._ids):08x}"
        trace = Trace(trace_id, name, self)
        span = Span(name, next(trace._ids), None, trace, self._clock())
        span.attributes.update(attributes)
        trace.spans.append(span)
        self._stack().append(span)
        return span

    def span(self, name: str, **attributes: object):
        """Start a span under the calling thread's current span.

        With no active span, this starts a new sampled trace rooted here —
        so library code traces standalone (``engine.run`` from a script)
        and nests automatically when a service request span is already
        open.
        """
        parent = self.current()
        if parent is None:
            if self._suppressed():
                return NULL_SPAN
            return self.trace(name, **attributes)
        trace = parent.trace
        span = Span(name, next(trace._ids), parent.span_id, trace,
                    self._clock())
        span.attributes.update(attributes)
        with self._lock:
            trace.spans.append(span)
        self._stack().append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.ended = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exited out of order; drop it wherever it sits
            stack.remove(span)
        if span.parent_id is None:
            self._record(span.trace)

    def _record(self, trace: Trace) -> None:
        with self._lock:
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    # -- retrieval ------------------------------------------------------ #

    def get(self, trace_id: str) -> Optional[Trace]:
        """The completed trace with this id, if still in the ring buffer."""
        with self._lock:
            return self._traces.get(trace_id)

    def recent(self, limit: int = 20) -> List[Trace]:
        """The most recently completed traces, newest first."""
        with self._lock:
            traces = list(self._traces.values())
        return traces[::-1][:max(0, limit)]

    def retained(self) -> int:
        """Number of completed traces currently in the ring buffer."""
        with self._lock:
            return len(self._traces)

    def last(self) -> Optional[Trace]:
        """The most recently completed trace."""
        recent = self.recent(1)
        return recent[0] if recent else None

    def clear(self) -> None:
        """Drop all retained traces (the ring buffer only)."""
        with self._lock:
            self._traces.clear()


# --------------------------------------------------------------------- #
# Module-level tracer (the one instrumented call sites consult)
# --------------------------------------------------------------------- #

_TRACER: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None`` uninstall) the process-wide tracer."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def span(name: str, **attributes: object):
    """Start a span on the installed tracer; :data:`NULL_SPAN` when disabled.

    This is the default instrumentation call: one global read and a
    ``None`` check on the disabled path.
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def current_span() -> Optional[Span]:
    """The calling thread's active span on the installed tracer."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.current()


class use:
    """Context manager installing ``tracer`` for the ``with`` block.

    Restores whatever was installed before on exit, so tests and
    ``repro explain --analyze`` can trace without leaking global state.
    """

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_tracer(self._previous)
        return False


# --------------------------------------------------------------------- #
# Rendering and aggregation
# --------------------------------------------------------------------- #

def render_tree(trace: Trace, wall_seconds: Optional[float] = None) -> str:
    """EXPLAIN-ANALYZE-style rendering of one trace's span tree.

    Each line shows the span name, its duration, its share of the root
    span, and its attributes.  The footer reports **stage coverage**: the
    fraction of the measured wall time (``wall_seconds`` when given, the
    root span's duration otherwise) accounted for by the root's direct
    children — the acceptance bar is that instrumented stages tile the
    query, not sample it.
    """
    root = trace.root
    if root is None:
        return f"trace {trace.trace_id}: (no spans)"
    wall = wall_seconds if wall_seconds is not None else root.duration_seconds
    lines = [f"trace {trace.trace_id}  ({root.name}, "
             f"wall {wall * 1000.0:.3f} ms)"]

    def attr_text(span: Span) -> str:
        if not span.attributes:
            return ""
        parts = []
        for key in sorted(span.attributes):
            value = span.attributes[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:.6g}")
            else:
                parts.append(f"{key}={value}")
        return "  [" + " ".join(parts) + "]"

    def walk(span: Span, depth: int) -> None:
        share = (span.duration_seconds / wall * 100.0) if wall > 0 else 0.0
        lines.append(f"  {'  ' * depth}{span.name:<{max(30 - 2 * depth, 8)}} "
                     f"{span.duration_seconds * 1000.0:>9.3f} ms "
                     f"{share:>5.1f}%{attr_text(span)}")
        for child in trace.children_of(span.span_id):
            walk(child, depth + 1)

    walk(root, 0)
    covered = sum(child.duration_seconds
                  for child in trace.children_of(root.span_id))
    coverage = (covered / wall * 100.0) if wall > 0 else 0.0
    lines.append(f"  stage coverage: {coverage:.1f}% of wall time")
    return "\n".join(lines)


def stage_breakdown(traces: List[Trace]) -> Dict[str, Dict[str, float]]:
    """Aggregate span durations by name across traces (the bench block).

    Returns ``{span_name: {count, total_ms, mean_ms}}`` so BENCH_*.json
    records *where* time goes, not just totals.
    """
    totals: Dict[str, List[float]] = {}
    for trace in traces:
        for span in trace.spans:
            totals.setdefault(span.name, []).append(span.duration_seconds)
    return {
        name: {
            "count": len(samples),
            "total_ms": sum(samples) * 1000.0,
            "mean_ms": sum(samples) / len(samples) * 1000.0,
        }
        for name, samples in sorted(totals.items())
    }
