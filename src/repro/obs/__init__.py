"""Observability: tracing spans, a metrics registry, and exporters.

Zero-overhead when off (the :mod:`repro.sanitize` arming pattern):
``REPRO_TRACE=1`` arms at import, :func:`enable` arms at runtime; while
disabled every instrumentation site costs one flag check and a shared
no-op handle. See ``trace.py`` for the span/propagation contract,
``metrics.py`` for the registry wiring, ``export.py`` for the Chrome
trace / Prometheus / explain views.
"""

from repro.obs.export import (
    chrome_trace,
    explain,
    prometheus_text,
    spans_by_trace,
    trace_roots,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_cache_stats,
    bind_engine_stats,
    bind_serve_stats,
    crosscheck_serve_identities,
)
from repro.obs.trace import (
    ENV_VAR,
    Span,
    SpanRecord,
    TraceCollector,
    absorb,
    collector,
    current,
    disable,
    drain,
    drain_payload,
    enable,
    new_span_id,
    record_span,
    reset_collector,
    span,
    trace,
    tracing_enabled,
    use_trace,
)

__all__ = [
    "ENV_VAR",
    "LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "TraceCollector",
    "absorb",
    "bind_cache_stats",
    "bind_engine_stats",
    "bind_serve_stats",
    "chrome_trace",
    "collector",
    "crosscheck_serve_identities",
    "current",
    "disable",
    "drain",
    "drain_payload",
    "enable",
    "explain",
    "new_span_id",
    "prometheus_text",
    "record_span",
    "reset_collector",
    "span",
    "spans_by_trace",
    "trace",
    "trace_roots",
    "tracing_enabled",
    "use_trace",
]
