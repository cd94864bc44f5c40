"""Observability: tracing spans and exporters over them.

The span log is the program's record of where time went; the counters
live in the stats objects (``ServeStats``, ``GIRCache.stats()``,
``GIREngine.stats()``, ``ShardedGIREngine.stats()``). Zero-overhead
when off: :func:`enable` arms tracing, and while disabled every
instrumentation site costs one flag check and a shared no-op handle.
See ``trace.py`` for the span/propagation contract and ``export.py``
for the Chrome trace / explain views.
"""

from repro.obs.export import (
    chrome_trace,
    explain,
    spans_by_trace,
    trace_roots,
)
from repro.obs.trace import (
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
    "Span",
    "SpanRecord",
    "TraceCollector",
    "absorb",
    "chrome_trace",
    "collector",
    "current",
    "disable",
    "drain",
    "drain_payload",
    "enable",
    "explain",
    "new_span_id",
    "record_span",
    "reset_collector",
    "span",
    "spans_by_trace",
    "trace",
    "trace_roots",
    "tracing_enabled",
    "use_trace",
]
