"""Engine-wide observability: query tracing and the metrics registry.

Three small, dependency-free modules every layer of the stack reports into:

* :mod:`repro.obs.trace` — hierarchical spans with thread-local context
  propagation, a bounded ring buffer of recent traces, JSONL and Chrome
  ``trace_event`` export, and a no-op disabled path cheap enough to leave
  the instrumentation compiled into the hot path (gated in CI at <= 2%
  overhead on the top-k suite).
* :mod:`repro.obs.metrics` — a named registry of counters, gauges and
  log-bucketed histograms with pull-style collectors (existing accounting
  objects are *read* at exposition time, never double-counted on the hot
  path) and a Prometheus text exposition backing ``GET /metrics``.
* :mod:`repro.obs.faults` — named fault-injection points compiled into the
  durable write path, armed by the crash-recovery tests (near-free while
  disarmed, the same discipline as the disabled tracer).

The package deliberately imports nothing from the rest of :mod:`repro`, so
any module — storage, proximity, core, service — can instrument itself
without creating an import cycle.
"""

from .faults import (
    FaultRegistry,
    InjectedCrash,
    InjectedFault,
    armed,
    fault_point,
    faults,
    tear_final_record,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .trace import (
    NULL_SPAN,
    Span,
    Trace,
    Tracer,
    current_span,
    get_tracer,
    render_tree,
    set_tracer,
    span,
    stage_breakdown,
    use,
)

__all__ = [
    "FaultRegistry",
    "InjectedCrash",
    "InjectedFault",
    "armed",
    "fault_point",
    "faults",
    "tear_final_record",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "NULL_SPAN",
    "Span",
    "Trace",
    "Tracer",
    "current_span",
    "get_tracer",
    "render_tree",
    "set_tracer",
    "span",
    "stage_breakdown",
    "use",
]
