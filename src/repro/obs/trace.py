"""Request tracing: spans, trace contexts and a ring-buffer collector.

The arming contract mirrors :mod:`repro.sanitize`: production wiring is
**zero-overhead when off**. ``REPRO_TRACE=1`` in the environment arms
tracing at import; :func:`enable` arms it explicitly at runtime (the
ledger's traced pass and the tests use this — no environment edit
needed). While disabled, :func:`span` / :func:`trace` return one shared
no-op handle whose enter/exit/``set`` do nothing, so an instrumented hot
path costs a single global flag check per site; :func:`current` and
:func:`record_span` short-circuit the same way.

Primitives:

* :func:`span` — open a child span under the ambient context (a fresh
  trace is started when there is none). **Must** be used in
  ``with``-form (or via ``ExitStack.enter_context``); the
  ``span-discipline`` analysis rule checks every call site outside
  :mod:`repro.obs`, so each span enter is guaranteed its exit.
* :func:`trace` — like :func:`span` but always a new root (fresh trace
  id), for request entry points.
* :func:`use_trace` — adopt a remote parent context, e.g. one received
  over the shard wire, so worker-side spans stitch under the router's
  trace id.
* :func:`record_span` — record an already-measured interval as one
  atomic span (used for retroactive spans such as ingress-queue wait,
  where enter and exit happen on different tasks, and for the shard
  calls of one fan-out, whose intervals overlap on one thread).
* :class:`TraceCollector` — fixed-capacity ring buffer of finished
  spans, with enter/exit balance counters (``started == finished`` is
  what the tracing tests assert).

Ambient context rides a :class:`contextvars.ContextVar`, which crosses
``await`` boundaries for free; it does **not** cross into an executor
thread or another process, so those hops pass :func:`current`
explicitly and adopt it with :func:`use_trace` (the serve front's
executor bridge, the shard wire).

Timestamps are ``time.perf_counter`` microseconds: on Linux that is
``CLOCK_MONOTONIC``, shared by every process on the host, so worker
spans land on the router's timeline without clock translation.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Iterable, Mapping

__all__ = [
    "ENV_VAR",
    "SpanRecord",
    "TraceCollector",
    "Span",
    "tracing_enabled",
    "enable",
    "disable",
    "collector",
    "reset_collector",
    "current",
    "span",
    "trace",
    "use_trace",
    "record_span",
    "new_span_id",
    "absorb",
    "drain",
    "drain_payload",
]

#: Environment variable that arms tracing at import time.
ENV_VAR = "REPRO_TRACE"

_ENV_ENABLED = os.environ.get(ENV_VAR, "") == "1"

#: Default ring capacity: enough for every span of a smoke-scale run
#: with headroom; the ring drops *oldest* beyond it (and counts drops).
DEFAULT_CAPACITY = 65_536

#: Monotonic id source; combined with the pid so ids minted in a forked
#: worker can never collide with the router's.
_IDS = itertools.count(1)


def _new_trace_id() -> str:
    return f"t{os.getpid():x}-{next(_IDS):x}"


def new_span_id() -> str:
    """A fresh span id (see :func:`record_span`'s ``span_id``)."""
    return f"s{os.getpid():x}-{next(_IDS):x}"


class SpanRecord:
    """One finished span (immutable once collected; JSON-able)."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "t0_us",
        "dur_us",
        "pid",
        "tid",
        "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        t0_us: float,
        dur_us: float,
        pid: int,
        tid: int,
        attrs: dict,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t0_us = t0_us
        self.dur_us = dur_us
        self.pid = pid
        self.tid = tid
        self.attrs = attrs

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t0_us": self.t0_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None else str(data["parent_id"])
            ),
            name=str(data["name"]),
            t0_us=float(data["t0_us"]),
            dur_us=float(data["dur_us"]),
            pid=int(data["pid"]),
            tid=int(data["tid"]),
            attrs=dict(data.get("attrs", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id}, "
            f"dur={self.dur_us:.0f}us)"
        )


class TraceCollector:
    """Fixed-capacity ring buffer of finished spans + balance counters.

    ``started`` counts span enters, ``finished`` span exits (atomic
    :func:`record_span` records bump both); the two must agree after a
    drain — an imbalance means a span enter leaked without its exit.
    ``dropped`` counts records overwritten by the ring once full (the
    oldest go first); ``absorbed`` counts records merged in from another
    process's collector (they carry their own balance, shipped
    alongside the spans on the wire).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("collector capacity must be positive")
        self.capacity = int(capacity)
        self._guard = threading.Lock()
        self._buf: list[SpanRecord] = []
        self._head = 0
        self.started = 0
        self.finished = 0
        self.dropped = 0
        self.absorbed = 0

    def note_started(self) -> None:
        with self._guard:
            self.started += 1

    def add(self, record: SpanRecord) -> None:
        with self._guard:
            self.finished += 1
            self._store(record)

    def _store(self, record: SpanRecord) -> None:
        if len(self._buf) < self.capacity:
            self._buf.append(record)
        else:
            self._buf[self._head] = record
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def absorb(self, records: Iterable[SpanRecord]) -> int:
        """Merge finished records from another collector (no balance
        impact here — the source ships its own started/finished)."""
        n = 0
        with self._guard:
            for record in records:
                self._store(record)
                self.absorbed += 1
                n += 1
        return n

    @property
    def balanced(self) -> bool:
        """Every span entered so far has exited."""
        return self.started == self.finished

    def drain(self) -> list[SpanRecord]:
        """Return the buffered records and reset the buffer *and* the
        balance counters, so consecutive runs gate independently."""
        with self._guard:
            out = self._buf[self._head :] + self._buf[: self._head]
            self._buf = []
            self._head = 0
            self.started = 0
            self.finished = 0
            self.dropped = 0
            self.absorbed = 0
            return out

    def stats(self) -> dict:
        with self._guard:
            return {
                "started": self.started,
                "finished": self.finished,
                "dropped": self.dropped,
                "absorbed": self.absorbed,
                "buffered": len(self._buf),
                "capacity": self.capacity,
                "balanced": self.started == self.finished,
            }


class _State:
    __slots__ = ("enabled", "collector")

    def __init__(self) -> None:
        self.enabled = _ENV_ENABLED
        self.collector = TraceCollector()


_STATE = _State()

#: Ambient ``(trace_id, span_id)`` of the running task/thread.
_CURRENT: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro_obs_current", default=None
)


def tracing_enabled() -> bool:
    return _STATE.enabled


def enable(capacity: int | None = None) -> None:
    """Arm tracing at runtime (idempotent). ``capacity`` replaces the
    collector with a fresh one of that size."""
    if capacity is not None and capacity != _STATE.collector.capacity:
        _STATE.collector = TraceCollector(capacity)
    _STATE.enabled = True


def disable() -> None:
    """Disarm tracing; buffered spans stay drainable."""
    _STATE.enabled = False


def collector() -> TraceCollector:
    return _STATE.collector


def reset_collector() -> None:
    """Fresh, empty collector (same capacity). Called by shard workers
    at startup so fork-inherited parent spans never double-report."""
    _STATE.collector = TraceCollector(_STATE.collector.capacity)


def current() -> tuple[str, str] | None:
    """The ambient ``(trace_id, span_id)``, or ``None`` when tracing is
    off / no span is open — the value to propagate across an executor
    bridge or the shard wire."""
    if not _STATE.enabled:
        return None
    return _CURRENT.get()


class Span:
    """A live span; entered/exited by its ``with`` block."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs", "_t0", "_token")

    def __init__(
        self, name: str, trace_id: str, parent_id: str | None, attrs: dict
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = 0.0
        self._token: Any = None

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute (shows up in every exporter)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        _STATE.collector.note_started()
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        t1 = time.perf_counter()
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _STATE.collector.add(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                t0_us=self._t0 * 1e6,
                dur_us=(t1 - self._t0) * 1e6,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self.attrs,
            )
        )
        return False


class _NoopSpan:
    """Shared do-nothing handle returned while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP = _NoopSpan()


class _Adopt:
    """Context manager installing a remote parent context."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: tuple[str, str]) -> None:
        self._ctx = ctx
        self._token: Any = None

    def __enter__(self) -> "_Adopt":
        self._token = _CURRENT.set(self._ctx)
        return self

    def __exit__(self, *exc: Any) -> bool:
        _CURRENT.reset(self._token)
        return False


def span(name: str, **attrs: Any) -> Any:
    """Open a child span under the ambient context (``with``-form
    required — see the ``span-discipline`` rule). With no ambient
    context the span becomes the root of a fresh trace."""
    if not _STATE.enabled:
        return _NOOP
    parent = _CURRENT.get()
    if parent is None:
        return Span(name, _new_trace_id(), None, attrs)
    return Span(name, parent[0], parent[1], attrs)


def trace(name: str, **attrs: Any) -> Any:
    """Open a new *root* span (fresh trace id, ambient context ignored)
    — the entry-point form (``with``-form required)."""
    if not _STATE.enabled:
        return _NOOP
    return Span(name, _new_trace_id(), None, attrs)


def use_trace(ctx: tuple[str, str] | None) -> Any:
    """Adopt ``ctx``, a ``(trace_id, span_id)`` pair, as the ambient
    parent for the block's duration (``with``-form required) — the
    receiving half of cross-thread / cross-process propagation (no-op
    for ``None``)."""
    if not _STATE.enabled or ctx is None:
        return _NOOP
    return _Adopt((str(ctx[0]), str(ctx[1])))


def record_span(
    name: str,
    t0: float,
    t1: float,
    trace_ctx: tuple[str, str] | None = None,
    span_id: str | None = None,
    **attrs: Any,
) -> None:
    """Record an already-measured ``perf_counter`` interval as one
    atomic span (enter and exit counted together, so balance holds by
    construction). ``trace_ctx`` is a ``(trace_id, parent_span_id)``
    pair, defaulting to the ambient context; with neither, the record
    roots its own trace. ``span_id``, minted by :func:`new_span_id` when
    the interval began, lets spans opened meanwhile name it as parent."""
    if not _STATE.enabled:
        return
    if trace_ctx is None:
        trace_ctx = _CURRENT.get()
    if trace_ctx is None:
        trace_id: str = _new_trace_id()
        parent_id: str | None = None
    else:
        trace_id, parent_id = trace_ctx
    coll = _STATE.collector
    coll.note_started()
    coll.add(
        SpanRecord(
            trace_id=trace_id,
            span_id=span_id or new_span_id(),
            parent_id=parent_id,
            name=name,
            t0_us=t0 * 1e6,
            dur_us=max(t1 - t0, 0.0) * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=attrs,
        )
    )


def absorb(records: Iterable[Mapping[str, Any]]) -> int:
    """Merge span dicts shipped from another process's collector."""
    return _STATE.collector.absorb(
        SpanRecord.from_dict(r) for r in records
    )


def drain() -> list[SpanRecord]:
    return _STATE.collector.drain()


def drain_payload() -> dict:
    """Collector stats + drained span dicts, in one JSON-able payload —
    the ``MSG_TRACE`` reply body a shard worker ships to the router."""
    stats = _STATE.collector.stats()
    spans = [record.to_dict() for record in _STATE.collector.drain()]
    return {
        "spans": spans,
        "started": stats["started"],
        "finished": stats["finished"],
        "dropped": stats["dropped"],
    }

