"""Exporters: Chrome trace-event JSON and explain trees.

Two views over the same :class:`~repro.obs.trace.SpanRecord` stream:

* :func:`chrome_trace` — Trace Event Format ``"X"`` (complete) events,
  loadable in Perfetto / ``chrome://tracing``. Router and worker spans
  keep their real pids/tids so a cluster run renders as one process
  lane per shard worker under a shared monotonic timeline.
* :func:`explain` — a per-request plain-text timeline: the span tree of
  one trace, indented by parentage, with durations and attributes.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = [
    "chrome_trace",
    "explain",
    "spans_by_trace",
    "trace_roots",
]


def chrome_trace(spans: Iterable[Any]) -> dict:
    """Chrome Trace Event Format document for a span stream.

    Timestamps/durations are microseconds on the shared monotonic
    clock; trace/span/parent ids travel in ``args`` so Perfetto's query
    layer can stitch and filter by trace id.
    """
    events = []
    for record in spans:
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": record.t0_us,
                "dur": record.dur_us,
                "pid": record.pid,
                "tid": record.tid,
                "args": {
                    "trace_id": record.trace_id,
                    "span_id": record.span_id,
                    "parent_id": record.parent_id,
                    **record.attrs,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_by_trace(spans: Iterable[Any]) -> dict:
    """Group span records by trace id (insertion order preserved)."""
    grouped: dict[str, list[Any]] = {}
    for record in spans:
        grouped.setdefault(record.trace_id, []).append(record)
    return grouped


def trace_roots(records: Sequence[Any]) -> list[Any]:
    """Roots of one trace's records: no parent, or the parent lives in
    another process's collector slice (cross-process stitch point)."""
    span_ids = {record.span_id for record in records}
    return [
        record
        for record in records
        if record.parent_id is None or record.parent_id not in span_ids
    ]


def _render(record: Any, children: dict, depth: int, lines: list[str]) -> None:
    attrs = ""
    if record.attrs:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(record.attrs.items()))
        attrs = f"  [{parts}]"
    lines.append(
        f"{'  ' * depth}{record.name}  {record.dur_us / 1000.0:.3f} ms"
        f"  (pid {record.pid}){attrs}"
    )
    for child in children.get(record.span_id, ()):
        _render(child, children, depth + 1, lines)


def explain(spans: Iterable[Any], trace_id: str | None = None) -> str:
    """Plain-text timeline of one trace (default: the trace of the
    earliest-starting span) — the per-request ``explain()`` view."""
    grouped = spans_by_trace(spans)
    if not grouped:
        return "(no spans collected)"
    if trace_id is None:
        earliest = min(
            grouped.items(), key=lambda item: min(r.t0_us for r in item[1])
        )
        trace_id = earliest[0]
    records = grouped.get(trace_id)
    if not records:
        return f"(no spans for trace {trace_id})"
    children: dict[str, list[Any]] = {}
    for record in records:
        if record.parent_id is not None:
            children.setdefault(record.parent_id, []).append(record)
    for sibling_list in children.values():
        sibling_list.sort(key=lambda r: r.t0_us)
    lines = [f"trace {trace_id}"]
    for root in sorted(trace_roots(records), key=lambda r: r.t0_us):
        _render(root, children, 1, lines)
    return "\n".join(lines)
