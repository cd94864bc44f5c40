"""The shard wire format: versioned frames between router and workers.

The sharded serving tier's merge layer needs only a narrow, serializable
contract per shard — ``(ids, scores, tie_sums, points_g, region)`` plus
provenance/accounting — which is exactly the boundary this module encodes.
A :class:`~repro.cluster.backends.ProcessBackend` speaks these frames over
a ``multiprocessing`` pipe today; the same format is the intended payload
of the ROADMAP's socket/multi-host backend (nothing here assumes a pipe).

Framing follows the conventions of :mod:`repro.index.serde` (the byte-exact
page layout): a magic tag, an explicit little-endian format version that is
checked — not assumed — on every decode, and fixed ``struct`` headers in
front of raw ``<f8``/``<q`` array payloads. Every frame is::

    frame := magic b"GIRW" | version u16 | msg_type u16 | flags u16
             | [trace block if FLAG_TRACE] | payload

``flags`` (since version 2) carries optional per-frame context; unknown flag
bits are rejected, so older peers can never silently misparse a frame
that carries context they don't understand. The only flag today is
``FLAG_TRACE``: a request-tracing context — two length-prefixed UTF-8
strings ``(trace_id, parent_span_id)`` — inserted *before* the payload
so that worker-side spans stitch under the router's trace
(:mod:`repro.obs`). Tracing is observability, not semantics: a frame
with and without the trace block decodes to byte-identical payloads.

This is version 6: reply and update frames carry answers and their
accounting (page reads, cache entries, eviction and insert-screen
counts), and no latency.
A reply's region may be absent (a shard whose full cache answered a first
sighting without computing one); it crosses as an empty region payload.
Time is measured by :mod:`repro.obs` spans, whose worker-side records
cross as ``MSG_REPLY_TRACE``.

Float payloads round-trip bit-exactly (``<f8`` both ways), which is what
keeps a process-backed cluster's merged answers *byte-identical* to the
in-process backend: scores, tie-break sums, g-images and region rows cross
the process boundary unperturbed.

Message catalogue (requests flow router → worker, replies worker → router):

===================  =======================================================
``MSG_BUILD``        shard spec: config JSON + initial rows + pickled scorer
``MSG_READY``        worker acknowledgement (build / shutdown)
``MSG_TOPK_BATCH``   a batch of reads (one frame, one reply frame; a single
                     read is a batch of one)
``MSG_INSERT``       routed write: the record row
``MSG_DELETE``       routed write: the local rid
``MSG_STATS``        request the shard's counter snapshot
``MSG_SHUTDOWN``     orderly worker exit (acknowledged with ``MSG_READY``)
``MSG_TRACE``        drain the worker's span collector (empty payload)
``MSG_REPLY_BATCH``  a list of :class:`~repro.cluster.backends.ShardReply`
``MSG_REPLY_UPDATE`` one :class:`~repro.cluster.backends.ShardUpdate`
``MSG_REPLY_STATS``  stat-counter dict (JSON payload)
``MSG_REPLY_ERROR``  exception surrogate, re-raised router-side
``MSG_REPLY_TRACE``  span records + balance counters (JSON payload)
===================  =======================================================

Stats and build-config payloads are JSON (they are small, heterogeneous
dicts and self-describing beats a hand-rolled layout there); every array —
the hot path — is raw little-endian binary. Region polytopes cross as
:meth:`~repro.geometry.polytope.Polytope.to_bytes` payloads (an absent
region as an empty one; a present one is never empty), which makes
that layout part of this format: changing it requires a
``WIRE_VERSION`` bump. The scorer crosses the wire
pickled: scoring functions are code, not data, and the build frame is sent
once per worker lifetime (a non-picklable scorer fails the build with a
clear error instead of corrupting anything downstream).
"""

from __future__ import annotations

import json
import pickle
import struct
import traceback
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np
import numpy.typing as npt

from repro.geometry.polytope import Polytope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.backends.base import ShardReply, ShardSpec, ShardUpdate

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "FLAG_TRACE",
    "WireError",
    "WorkerFailure",
    "encode_frame",
    "decode_frame",
    "Reader",
    "MSG_BUILD",
    "MSG_READY",
    "MSG_TOPK_BATCH",
    "MSG_INSERT",
    "MSG_DELETE",
    "MSG_STATS",
    "MSG_SHUTDOWN",
    "MSG_TRACE",
    "MSG_REPLY_BATCH",
    "MSG_REPLY_UPDATE",
    "MSG_REPLY_STATS",
    "MSG_REPLY_ERROR",
    "MSG_REPLY_TRACE",
    "MSG_NAMES",
    "encode_trace_payload",
    "decode_trace_payload",
    "encode_build",
    "decode_build",
    "encode_topk_batch",
    "decode_topk_batch",
    "encode_insert",
    "decode_insert",
    "encode_delete",
    "decode_delete",
    "encode_batch_reply",
    "decode_batch_reply",
    "encode_update",
    "decode_update",
    "encode_stats",
    "decode_stats",
    "encode_error",
    "decode_error",
]

MAGIC = b"GIRW"
WIRE_VERSION = 6
_FRAME = struct.Struct("<4sHHH")  # magic, version, msg_type, flags

#: Frame flag: a trace-context block precedes the payload.
FLAG_TRACE = 1

_KNOWN_FLAGS = FLAG_TRACE

MSG_BUILD = 1
MSG_READY = 2
MSG_TOPK_BATCH = 3
MSG_INSERT = 4
MSG_DELETE = 5
MSG_STATS = 6
MSG_SHUTDOWN = 7
MSG_REPLY_BATCH = 8
MSG_REPLY_UPDATE = 9
MSG_REPLY_STATS = 10
MSG_REPLY_ERROR = 11
MSG_TRACE = 12
MSG_REPLY_TRACE = 13

#: Human-readable message-type names (for decode-error context and
#: worker span attributes).
MSG_NAMES = MappingProxyType(
    {
        MSG_BUILD: "BUILD",
        MSG_READY: "READY",
        MSG_TOPK_BATCH: "TOPK_BATCH",
        MSG_INSERT: "INSERT",
        MSG_DELETE: "DELETE",
        MSG_STATS: "STATS",
        MSG_SHUTDOWN: "SHUTDOWN",
        MSG_REPLY_BATCH: "REPLY_BATCH",
        MSG_REPLY_UPDATE: "REPLY_UPDATE",
        MSG_REPLY_STATS: "REPLY_STATS",
        MSG_REPLY_ERROR: "REPLY_ERROR",
        MSG_TRACE: "TRACE",
        MSG_REPLY_TRACE: "REPLY_TRACE",
    }
)

#: Array dtype tags on the wire.
_DTYPE_F8 = 0
_DTYPE_I8 = 1
_DTYPES = MappingProxyType({_DTYPE_F8: "<f8", _DTYPE_I8: "<q"})


class WireError(ValueError):
    """A frame failed to decode (bad magic, version, type or payload)."""


class WorkerFailure(RuntimeError):
    """An exception raised inside a shard worker, re-raised router-side.

    Carries the worker-side exception type name and traceback text so the
    failure is debuggable without attaching to the worker process, plus
    the ``dirty`` write-state flag of
    :class:`~repro.cluster.backends.base.ShardWriteError` (``True`` when
    a failed write mutated the shard before raising — the router must
    fail-stop instead of rolling back).
    """

    def __init__(
        self, exc_type: str, message: str, tb: str, dirty: bool = False
    ) -> None:
        super().__init__(f"shard worker raised {exc_type}: {message}")
        self.exc_type = exc_type
        self.worker_message = message
        self.worker_traceback = tb
        self.dirty = bool(dirty)


# -- framing ------------------------------------------------------------------


def encode_frame(
    msg_type: int, payload: bytes = b"", trace: tuple[str, str] | None = None
) -> bytes:
    """Wrap a payload in the versioned frame header. ``trace`` is an
    optional ``(trace_id, parent_span_id)`` context; when given, the
    frame carries ``FLAG_TRACE`` and a trace block ahead of the
    payload."""
    flags = 0 if trace is None else FLAG_TRACE
    out = bytearray(_FRAME.pack(MAGIC, WIRE_VERSION, msg_type, flags))
    if trace is not None:
        _put_trace(out, trace)
    out += payload
    return bytes(out)


def decode_frame(frame: bytes) -> tuple[int, "Reader"]:
    """Validate the header; returns ``(msg_type, payload reader)``. The
    reader's ``trace`` attribute holds the frame's trace context (or
    ``None``), already consumed from the byte stream."""
    if len(frame) < _FRAME.size:
        raise WireError(
            f"truncated frame of {len(frame)} bytes "
            f"(header alone is {_FRAME.size})"
        )
    magic, version, msg_type, flags = _FRAME.unpack_from(frame, 0)
    if magic != MAGIC:
        raise WireError(f"not a GIR wire frame (magic {magic!r})")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (speaking {WIRE_VERSION})"
        )
    if msg_type not in MSG_NAMES:
        raise WireError(f"unknown message type {msg_type}")
    if flags & ~_KNOWN_FLAGS:
        raise WireError(
            f"unknown frame flags 0x{flags & ~_KNOWN_FLAGS:x} on "
            f"{MSG_NAMES[msg_type]} frame"
        )
    reader = Reader(frame, _FRAME.size, label=MSG_NAMES[msg_type])
    if flags & FLAG_TRACE:
        reader.trace = _get_trace(reader)
    return msg_type, reader


class Reader:
    """Cursor over a frame payload (validates it is fully consumed).

    ``label`` names the message type for error context; ``trace`` is
    the frame's trace block, populated by :func:`decode_frame`.
    """

    def __init__(self, buf: bytes, offset: int = 0, label: str = "") -> None:
        self.buf = buf
        self.off = offset
        self.label = label
        self.trace: tuple[str, str] | None = None

    def _where(self) -> str:
        return f"{self.label or 'frame'} payload"

    def unpack(self, fmt: str) -> tuple[Any, ...]:
        st = struct.Struct(fmt)
        have = len(self.buf) - self.off
        if st.size > have:
            raise WireError(
                f"{self._where()} truncated at offset {self.off}: "
                f"field {fmt!r} needs {st.size} bytes, {have} remain"
            )
        values = st.unpack_from(self.buf, self.off)
        self.off += st.size
        return values

    def take(self, n: int) -> bytes:
        have = len(self.buf) - self.off
        if n > have:
            raise WireError(
                f"{self._where()} truncated at offset {self.off}: "
                f"need {n} bytes, {have} remain"
            )
        chunk = self.buf[self.off : self.off + n]
        self.off += n
        return chunk

    def done(self) -> None:
        if self.off != len(self.buf):
            raise WireError(
                f"{len(self.buf) - self.off} trailing bytes after "
                f"{self._where()} (consumed {self.off} of {len(self.buf)})"
            )


# -- primitive payload pieces -------------------------------------------------


def _put_array(
    out: bytearray, arr: npt.NDArray[Any], dtype_tag: int = _DTYPE_F8
) -> None:
    arr = np.ascontiguousarray(arr, dtype=_DTYPES[dtype_tag])
    out += struct.pack("<BB", dtype_tag, arr.ndim)
    out += struct.pack(f"<{arr.ndim}q", *arr.shape)
    out += arr.tobytes()


def _get_array(reader: Reader) -> npt.NDArray[Any]:
    dtype_tag, ndim = reader.unpack("<BB")
    if dtype_tag not in _DTYPES:
        raise WireError(f"unknown array dtype tag {dtype_tag}")
    shape = reader.unpack(f"<{ndim}q")
    if any(n < 0 for n in shape):
        raise WireError(f"negative array dimension in {shape}")
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = reader.take(8 * count)
    return (
        np.frombuffer(raw, dtype=_DTYPES[dtype_tag], count=count)
        .reshape(shape)
        .copy()
    )


def _put_bytes(out: bytearray, payload: bytes) -> None:
    out += struct.pack("<I", len(payload))
    out += payload


def _get_bytes(reader: Reader) -> bytes:
    (n,) = reader.unpack("<I")
    return reader.take(n)


def _put_json(out: bytearray, obj: object) -> None:
    _put_bytes(out, json.dumps(obj).encode("utf-8"))


def _get_json(reader: Reader) -> Any:
    return json.loads(_get_bytes(reader).decode("utf-8"))


def _put_trace(out: bytearray, trace: tuple[str, str]) -> None:
    trace_id, span_id = trace
    _put_bytes(out, trace_id.encode("utf-8"))
    _put_bytes(out, span_id.encode("utf-8"))


def _get_trace(reader: Reader) -> tuple[str, str]:
    trace_id = _get_bytes(reader).decode("utf-8")
    span_id = _get_bytes(reader).decode("utf-8")
    return trace_id, span_id


# -- build --------------------------------------------------------------------


def encode_build(spec: "ShardSpec") -> bytes:
    """Serialise a shard build spec (config JSON + rows + pickled scorer)."""
    out = bytearray()
    _put_json(
        out,
        {
            "shard": spec.shard,
            "name": spec.name,
            "method": spec.method,
            "cache_capacity": spec.cache_capacity,
            "page_sleep_ms": spec.page_sleep_ms,
        },
    )
    _put_array(out, spec.points)
    try:
        scorer_bytes = pickle.dumps(spec.scorer)
    except Exception as exc:
        raise ValueError(
            f"scorer {spec.scorer!r} is not picklable and cannot cross the "
            f"shard wire; use the in-process backend for closure-based "
            f"scorers ({exc})"
        ) from exc
    _put_bytes(out, scorer_bytes)
    return bytes(out)


def decode_build(reader: Reader) -> "ShardSpec":
    from repro.cluster.backends.base import ShardSpec

    config: dict[str, Any] = _get_json(reader)
    points = _get_array(reader)
    scorer = pickle.loads(_get_bytes(reader))
    reader.done()
    return ShardSpec(
        shard=int(config["shard"]),
        name=str(config["name"]),
        points=points,
        method=str(config["method"]),
        cache_capacity=int(config["cache_capacity"]),
        page_sleep_ms=float(config["page_sleep_ms"]),
        scorer=scorer,
    )


# -- reads --------------------------------------------------------------------


def encode_topk_batch(
    requests: Sequence[tuple[npt.NDArray[np.float64], int]]
) -> bytes:
    out = bytearray(struct.pack("<q", len(requests)))
    for weights, k in requests:
        _put_array(out, np.asarray(weights, dtype=np.float64))
        out += struct.pack("<q", k)
    return bytes(out)


def decode_topk_batch(
    reader: Reader,
) -> list[tuple[npt.NDArray[np.float64], int]]:
    (count,) = reader.unpack("<q")
    requests: list[tuple[npt.NDArray[np.float64], int]] = []
    for _ in range(count):
        weights = _get_array(reader)
        (k,) = reader.unpack("<q")
        requests.append((weights, int(k)))
    reader.done()
    return requests


# -- writes -------------------------------------------------------------------


def encode_insert(point: npt.NDArray[np.float64]) -> bytes:
    out = bytearray()
    _put_array(out, np.asarray(point, dtype=np.float64))
    return bytes(out)


def decode_insert(reader: Reader) -> npt.NDArray[np.float64]:
    point = _get_array(reader)
    reader.done()
    return point


def encode_delete(rid: int) -> bytes:
    return struct.pack("<q", rid)


def decode_delete(reader: Reader) -> int:
    (rid,) = reader.unpack("<q")
    reader.done()
    return int(rid)


# -- replies ------------------------------------------------------------------


def _put_reply(out: bytearray, reply: "ShardReply") -> None:
    _put_array(out, np.asarray(reply.ids, dtype=np.int64), _DTYPE_I8)
    _put_array(out, np.asarray(reply.scores, dtype=np.float64))
    _put_array(out, np.asarray(reply.tie_sums, dtype=np.float64))
    _put_array(out, reply.points_g)
    _put_bytes(out, reply.region.to_bytes() if reply.region is not None else b"")
    _put_bytes(out, reply.source.encode("utf-8"))
    out += struct.pack("<qq", reply.pages_read, reply.cache_entries)


def _get_reply(reader: Reader) -> "ShardReply":
    from repro.cluster.backends.base import ShardReply

    ids = _get_array(reader)
    scores = _get_array(reader)
    tie_sums = _get_array(reader)
    points_g = _get_array(reader)
    payload = _get_bytes(reader)
    region = Polytope.from_bytes(payload) if payload else None
    source = _get_bytes(reader).decode("utf-8")
    pages_read, cache_entries = reader.unpack("<qq")
    return ShardReply(
        ids=tuple(int(i) for i in ids),
        scores=tuple(float(s) for s in scores),
        tie_sums=tuple(float(s) for s in tie_sums),
        points_g=points_g,
        region=region,
        source=source,
        pages_read=int(pages_read),
        cache_entries=int(cache_entries),
    )


def encode_batch_reply(replies: Iterable["ShardReply"]) -> bytes:
    replies = list(replies)
    out = bytearray(struct.pack("<q", len(replies)))
    for reply in replies:
        _put_reply(out, reply)
    return bytes(out)


def decode_batch_reply(reader: Reader) -> list["ShardReply"]:
    (count,) = reader.unpack("<q")
    replies = [_get_reply(reader) for _ in range(count)]
    reader.done()
    return replies


def encode_update(update: "ShardUpdate") -> bytes:
    return struct.pack(
        "<qqqq",
        update.rid,
        update.evicted,
        update.screened,
        update.cache_entries,
    )


def decode_update(reader: Reader) -> "ShardUpdate":
    from repro.cluster.backends.base import ShardUpdate

    rid, evicted, screened, cache_entries = reader.unpack("<qqqq")
    reader.done()
    return ShardUpdate(
        rid=int(rid),
        evicted=int(evicted),
        screened=int(screened),
        cache_entries=int(cache_entries),
    )


# -- stats / errors -----------------------------------------------------------


def encode_stats(stats: dict[str, Any]) -> bytes:
    out = bytearray()
    _put_json(out, stats)
    return bytes(out)


def decode_stats(reader: Reader) -> dict[str, Any]:
    stats: dict[str, Any] = _get_json(reader)
    reader.done()
    return stats


def encode_trace_payload(payload: dict[str, Any]) -> bytes:
    """Serialise a worker span drain (``MSG_REPLY_TRACE`` body): the
    JSON payload of :func:`repro.obs.drain_payload` — span dicts plus
    the worker collector's balance counters."""
    out = bytearray()
    _put_json(out, payload)
    return bytes(out)


def decode_trace_payload(reader: Reader) -> dict[str, Any]:
    payload: dict[str, Any] = _get_json(reader)
    reader.done()
    return payload


def encode_error(exc: BaseException) -> bytes:
    out = bytearray()
    _put_json(
        out,
        {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(traceback.format_exception(exc)),
            # ShardWriteError's write-state classification; False for
            # every other exception (reads never mutate shard structure).
            "dirty": bool(getattr(exc, "dirty", False)),
        },
    )
    return bytes(out)


def decode_error(reader: Reader) -> WorkerFailure:
    info: dict[str, Any] = _get_json(reader)
    reader.done()
    return WorkerFailure(
        exc_type=str(info.get("type", "Exception")),
        message=str(info.get("message", "")),
        tb=str(info.get("traceback", "")),
        dirty=bool(info.get("dirty", False)),
    )
