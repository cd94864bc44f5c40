"""`ProcessBackend` — one long-lived worker process per shard.

Python threads cannot overlap the CPU-bound parts of GIR serving (phase-2
half-space computation, region ray enumeration, merge preparation all
hold the GIL); a worker *process* can. Each backend forks/spawns one worker
that owns the full shard engine — R*-tree, page store, point table,
GIRCache — for the cluster's lifetime, so every cached
region and warm structure survives across requests exactly as in-process
shards do. Router and worker speak the versioned frame format of
:mod:`repro.cluster.wire` over a ``multiprocessing`` pipe:

* one outstanding request per worker at a time (the router's fan-out
  parallelism comes from having N workers, not from pipelining one):
  :meth:`ProcessBackend.fan_out` writes every shard's request frame,
  then reads every reply, all on the caller's thread;
* float payloads are bit-exact on the wire, so answers are byte-identical
  to :class:`~repro.cluster.backends.inproc.InProcBackend`;
* a worker-side exception is caught, serialized (type, message,
  traceback) and re-raised router-side as
  :class:`~repro.cluster.wire.WorkerFailure` — the worker survives and
  keeps serving.

The start method prefers ``fork`` on Linux (no re-import of numpy/scipy
per worker; the router starts no threads of its own to fork under)
and uses ``spawn`` everywhere else (macOS frameworks are not fork-safe);
``spawn`` requires the spec's scorer to be picklable, which the wire
format enforces for every start method so behaviour cannot differ by
platform. The usual ``spawn`` caveats apply: the entry script must be
importable (guard it with ``if __name__ == "__main__"``), and building a
spawn-backed cluster from a REPL/stdin ``__main__`` will fail.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import sys
import time
from typing import Any, Self, Sequence

import numpy as np

from repro import obs
from repro.cluster import wire
from repro.cluster.backends.base import (
    ShardBackend,
    ShardReads,
    ShardReply,
    ShardSpec,
    ShardUpdate,
    build_shard_engine,
    engine_shard_stats,
    guarded_engine_write,
    serve_shard_reads,
    update_from_response,
)

__all__ = ["ProcessBackend", "default_start_method"]


def default_start_method() -> str:
    """``"fork"`` on Linux (cheap: no per-worker numpy/scipy re-import),
    ``"spawn"`` everywhere else.

    Fork is restricted to Linux deliberately: on macOS the system
    frameworks numpy links against (Accelerate, libdispatch) are not
    fork-safe — the same reason CPython moved the platform default to
    spawn — so a forked worker could crash or hang inside its very first
    ``scorer.transform``. The wire format keeps both paths equivalent
    (the build spec is fully serialized either way).
    """
    if (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return "fork"
    return "spawn"


def _worker_main(conn: Any) -> None:
    """Worker loop: decode a frame, act on the shard engine, reply.

    Runs until an orderly ``MSG_SHUTDOWN`` (acknowledged, then exit) or
    the pipe closes (router died — exit silently). Per-request exceptions
    are reported as error frames, not crashes: a worker holding a warm
    shard must outlive a caller's bad request — with one exception. A
    *dirty* write failure (the engine mutated before raising, see
    :class:`~repro.cluster.backends.base.ShardWriteError`) leaves the
    shard's state untrustworthy, so the worker marks itself broken and
    refuses everything but stats and shutdown from then on; the router
    fail-stops on its side too.
    """
    engine: Any = None
    broken: str | None = None
    # A forked worker inherits the router's span buffer; start clean so
    # a drain returns only spans this worker actually recorded.
    obs.reset_collector()
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                msg, reader = wire.decode_frame(frame)
                if msg == wire.MSG_SHUTDOWN:
                    conn.send_bytes(wire.encode_frame(wire.MSG_READY))
                    break
                if broken is not None and msg not in (
                    wire.MSG_STATS,
                    wire.MSG_TRACE,
                ):
                    raise RuntimeError(
                        f"shard engine diverged during an earlier write "
                        f"({broken}); the worker refuses further operations"
                    )
                with contextlib.ExitStack() as stack:
                    if reader.trace is not None:
                        # The router traced this request: adopt its
                        # context so the worker's engine spans stitch
                        # under the router's span tree, arming tracing
                        # lazily on first traced frame.
                        if not obs.tracing_enabled():
                            obs.enable()
                        stack.enter_context(obs.use_trace(reader.trace))
                        stack.enter_context(
                            obs.span(
                                "shard.worker", msg=wire.MSG_NAMES[msg]
                            )
                        )
                    reply, engine = _handle_frame(msg, reader, engine)
            except Exception as exc:  # noqa: BLE001 - reported to the router
                if getattr(exc, "dirty", False):
                    broken = str(exc)
                reply = wire.encode_frame(
                    wire.MSG_REPLY_ERROR, wire.encode_error(exc)
                )
            try:
                conn.send_bytes(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


def _handle_frame(
    msg: int, reader: "wire.Reader", engine: Any
) -> tuple[bytes, Any]:
    """Act on one decoded worker frame; returns ``(reply, engine)`` (the
    engine is created by ``MSG_BUILD`` and threaded back to the loop)."""
    if msg == wire.MSG_BUILD:
        spec = wire.decode_build(reader)
        engine = build_shard_engine(spec)
        reply = wire.encode_frame(wire.MSG_READY)
    elif msg == wire.MSG_TRACE:
        # Drain this worker's span buffer for the router-side stitch;
        # served even before MSG_BUILD (nothing recorded yet → empty).
        reply = wire.encode_frame(
            wire.MSG_REPLY_TRACE,
            wire.encode_trace_payload(obs.drain_payload()),
        )
    elif engine is None:
        raise RuntimeError(
            f"message type {msg} before MSG_BUILD"
        )
    elif msg == wire.MSG_TOPK_BATCH:
        reply = wire.encode_frame(
            wire.MSG_REPLY_BATCH,
            wire.encode_batch_reply(
                serve_shard_reads(engine, wire.decode_topk_batch(reader))
            ),
        )
    elif msg == wire.MSG_INSERT:
        sub = guarded_engine_write(
            engine, "insert", wire.decode_insert(reader)
        )
        reply = wire.encode_frame(
            wire.MSG_REPLY_UPDATE,
            wire.encode_update(update_from_response(sub)),
        )
    elif msg == wire.MSG_DELETE:
        sub = guarded_engine_write(
            engine, "delete", wire.decode_delete(reader)
        )
        reply = wire.encode_frame(
            wire.MSG_REPLY_UPDATE,
            wire.encode_update(update_from_response(sub)),
        )
    elif msg == wire.MSG_STATS:
        reply = wire.encode_frame(
            wire.MSG_REPLY_STATS,
            wire.encode_stats(engine_shard_stats(engine)),
        )
    else:
        raise RuntimeError(
            f"unexpected message type {msg} in a worker"
        )
    return reply, engine


# The backend holds no lock of its own: every call arrives under the
# router's serve lock, held from a request's send to its reply, so one
# request at a time crosses the pipe.
class ProcessBackend(ShardBackend):
    """A shard served by a dedicated worker process (see module docstring).

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method; default
        :func:`default_start_method`.
    """

    name = "process"

    def __init__(self, start_method: str | None = None) -> None:
        self._start_method: str = start_method or default_start_method()
        self._proc: multiprocessing.process.BaseProcess | None = None
        self._conn: Any = None
        self._shard = -1

    def build(self, spec: ShardSpec) -> None:
        if self._proc is not None:
            raise RuntimeError("backend already built")
        # Encode the spec *before* starting the worker so an unpicklable
        # scorer fails fast with no orphan process.
        payload = wire.encode_build(spec)
        self._shard = spec.shard
        ctx = multiprocessing.get_context(self._start_method)
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child,),
            name=f"gir-shard-worker-{spec.shard}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._request(wire.MSG_BUILD, payload, expect=wire.MSG_READY)

    def _send(self, msg: int, payload: bytes, trace: tuple[str, str] | None) -> None:
        """Write one request frame; :meth:`_receive` reads its reply. The
        router's serve lock is held from here to that reply, so no other
        frame enters the pipe while this one's reply is still in it."""
        if self._conn is None:
            raise RuntimeError("backend is not running (closed or unbuilt)")
        try:
            self._conn.send_bytes(wire.encode_frame(msg, payload, trace=trace))
        except OSError as exc:
            raise RuntimeError(f"shard worker {self._shard} died mid-request") from exc

    def _receive(self, expect: int) -> "wire.Reader":
        try:
            frame = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise RuntimeError(f"shard worker {self._shard} died mid-request") from exc
        reply_msg, reader = wire.decode_frame(frame)
        if reply_msg == wire.MSG_REPLY_ERROR:
            raise wire.decode_error(reader)
        if reply_msg != expect:
            raise wire.WireError(f"expected reply type {expect}, got {reply_msg}")
        return reader

    def _request(
        self, msg: int, payload: bytes, expect: int, trace: tuple[str, str] | None = None
    ) -> "wire.Reader":
        self._send(msg, payload, trace)
        return self._receive(expect)

    # -- the shard contract ----------------------------------------------------

    @classmethod
    def fan_out(cls, calls: Sequence[tuple[int, Self, ShardReads]]) -> list[list[ShardReply]]:
        """Send every shard its ``MSG_TOPK_BATCH`` frame, then read every
        reply, so the workers compute at once. Every shard sent a frame
        is read before the first error is raised, so no reply is left in
        a pipe for the next request. A shard's ``shard.call`` span runs
        from its send to its reply and parents its wire codec work and
        its worker's spans."""
        parent = obs.current()
        sent: list[tuple[int, Self, tuple[str, str] | None, float]] = []
        replies: list[list[ShardReply]] = []
        error: Exception | None = None
        for shard, backend, requests in calls:
            call = None if parent is None else (parent[0], obs.new_span_id())
            t0 = time.perf_counter()
            try:
                with obs.use_trace(call):
                    payload = wire.encode_topk_batch(list(requests))
                    backend._send(wire.MSG_TOPK_BATCH, payload, call)
            except Exception as exc:
                error = exc
                break
            sent.append((shard, backend, call, t0))
        for shard, backend, call, t0 in sent:
            try:
                with obs.use_trace(call):
                    reader = backend._receive(wire.MSG_REPLY_BATCH)
                    replies.append(wire.decode_batch_reply(reader))
            except Exception as exc:
                error = error or exc
            if call is not None:
                obs.record_span(
                    "shard.call", t0, time.perf_counter(), trace_ctx=parent,
                    span_id=call[1], shard=shard, method="topk_batch",
                )
        if error is not None:
            raise error
        return replies

    def topk_batch(self, requests: ShardReads) -> list[ShardReply]:
        return self.fan_out([(self._shard, self, requests)])[0]

    def insert(self, point: np.ndarray) -> ShardUpdate:
        reader = self._request(
            wire.MSG_INSERT,
            wire.encode_insert(point),
            wire.MSG_REPLY_UPDATE,
            trace=obs.current(),
        )
        return wire.decode_update(reader)

    def delete(self, rid: int) -> ShardUpdate:
        reader = self._request(
            wire.MSG_DELETE,
            wire.encode_delete(rid),
            wire.MSG_REPLY_UPDATE,
            trace=obs.current(),
        )
        return wire.decode_update(reader)

    def stats(self) -> dict[str, Any]:
        reader = self._request(wire.MSG_STATS, b"", wire.MSG_REPLY_STATS)
        stats = wire.decode_stats(reader)
        assert isinstance(stats, dict)
        return stats

    def drain_spans(self) -> dict[str, Any]:
        """Round-trip the worker's span buffer (skipped — empty payload —
        when tracing is off router-side: the worker only arms tracing on
        traced frames, so there is nothing to fetch)."""
        if not obs.tracing_enabled():
            return {"spans": [], "started": 0, "finished": 0, "dropped": 0}
        reader = self._request(wire.MSG_TRACE, b"", wire.MSG_REPLY_TRACE)
        payload = wire.decode_trace_payload(reader)
        assert isinstance(payload, dict)
        return payload

    def close(self) -> None:
        """Orderly worker shutdown; escalates to terminate on a hang.

        The router calls this under its serve lock, so no request is in
        flight; clearing ``_proc``/``_conn`` first makes any later
        request fail the not-running guard.
        """
        proc, conn = self._proc, self._conn
        self._proc, self._conn = None, None
        if conn is not None:
            try:
                conn.send_bytes(wire.encode_frame(wire.MSG_SHUTDOWN))
                conn.recv_bytes()  # MSG_READY ack (best effort)
            except (EOFError, OSError, ValueError):
                pass
            conn.close()
        if proc is not None:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hang safety net
                proc.terminate()
                proc.join(timeout=5.0)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
