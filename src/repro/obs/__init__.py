"""Engine-wide observability plane: tracing spans, metrics, EXPLAIN ANALYZE.

Zero-dependency building blocks:

* :mod:`repro.obs.trace` — nested spans (monotonic durations, attributes,
  parent links; JSON + Chrome ``trace_event`` export) behind a near-free
  null tracer;
* :mod:`repro.obs.metrics` — counters/gauges/fixed-bucket histograms in a
  mergeable :class:`MetricsRegistry` with Prometheus-text and JSON export;
* :mod:`repro.obs.runtime` — the process-global active tracer/registry and
  the single-publication rule for per-query stats;
* :mod:`repro.obs.instrument` — operator span names and the annotated plan tree;
* :mod:`repro.obs.explain` — ``EXPLAIN ANALYZE`` rendering;
* :mod:`repro.obs.slowlog` — the warehouse slow-query ring buffer;
* :mod:`repro.obs.context` — W3C-traceparent-style context propagation;
* :mod:`repro.obs.httpd` — the ops endpoint, exactly ``/metrics`` ·
  ``/healthz`` · ``/trace/<id>``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS,
)
from repro.obs.context import TraceContext
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs import runtime
from repro.obs.slowlog import SlowQueryLog
from repro.obs.httpd import OpsServer

__all__ = [
    "TraceContext",
    "OpsServer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "runtime",
    "SlowQueryLog",
]
