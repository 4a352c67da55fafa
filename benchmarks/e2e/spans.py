"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around its calls into
each layer of the program; nothing inside ``src/`` is touched.  They are
kept in memory and written out once, when the run ends.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover (children may overlap each other and may
outlive the parent; only the covered part of the parent counts).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Container, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call into a layer."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans; a disabled recorder runs the same code and keeps nothing.

    The span open on a thread is the parent of the next one opened there.
    ``adopt`` names a parent for spans opened on other threads (the service
    runs the engine on a worker thread).
    """

    def __init__(self, enabled: bool = True,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopted: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None,
             adopt: bool = False) -> Iterator[Optional[Span]]:
        """Time the body as a span named ``name``.

        With ``adopt`` the span is also the parent of spans that other
        threads open while it is running.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else self._adopted
        with self._lock:
            record = Span(len(self.spans), name, 0.0, 0.0,
                          parent.id if parent else None,
                          op_id if op_id is not None
                          else (parent.op_id if parent else None))
            self.spans.append(record)
        stack.append(record)
        if adopt:
            self._adopted = record
        record.start = self._clock()
        try:
            yield record
        finally:
            record.end = self._clock()
            stack.pop()
            if adopt:
                self._adopted = None

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, by span id."""
        children: Dict[int, List[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        result: Dict[int, float] = {}
        for record in self.spans:
            covered, reach = 0.0, record.start
            for child in sorted(children.get(record.id, ()),
                                key=lambda s: s.start):
                lo = max(child.start, reach)
                hi = min(child.end, record.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[record.id] = record.duration - covered
        return result

    def by_name(self, self_time: bool = False,
                op_ids: Optional[Container[int]] = None
                ) -> Dict[str, List[float]]:
        """Durations (or self times) in seconds, grouped by span name.

        ``op_ids`` keeps only the spans of those operations.
        """
        selfs = self.self_times() if self_time else None
        grouped: Dict[str, List[float]] = {}
        for record in self.spans:
            if op_ids is not None and record.op_id not in op_ids:
                continue
            grouped.setdefault(record.name, []).append(
                selfs[record.id] if selfs is not None else record.duration)
        return grouped

    def write_jsonl(self, path) -> None:
        """One ``{name, start, end, parent, op_id}`` object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "id": record.id, "name": record.name,
                    "start": record.start, "end": record.end,
                    "parent": record.parent, "op_id": record.op_id}) + "\n")
