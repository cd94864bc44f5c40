"""The asyncio serving front door: admission → batcher → engine bridge.

One :class:`ServeFront` wraps one engine (a
:class:`~repro.engine.GIREngine` or a
:class:`~repro.cluster.ShardedGIREngine` — anything with the engine
serving surface: ``topk_batch`` / ``serve_hits`` / ``insert`` /
``delete`` / ``d`` / ``n_live``). The engine stays strictly
single-owner: one thread at a time is inside it, which is exactly the
ownership shape the runtime sanitizer's tokens accept. The dispatcher
serves one operation at a time and awaits each engine call before it
takes the next one from the queue, so the bridge is idle whenever the
dispatcher runs. Engine work runs on the front door's one-thread
executor (the *executor bridge*), with one exception: the dispatcher
serves the leading full cache hits of a batch itself (``serve_hits``:
at most ``batch_max`` hits, never a pipeline run or a page read), so a
hit does not pay for two thread hops; misses still leave the loop.
Admission keeps running while a call is on the bridge, so reads queue
(and shed) behind it.

Data path for a read::

    admission (validate, copy, bound, shed)    — caller's task
      → ingress queue
      → dispatcher: micro-batch + single flight — one dispatcher task
      → hit prefix: one serve_hits call         — the dispatcher task
      → executor bridge: one topk_batch call for the rest
                                                — the engine thread
      → resolution: each leader, then its followers — the dispatcher task

The micro-batcher drains whatever is already queued without yielding
and lingers (up to the batch window) only on an empty queue, so a
backlog becomes one batch in one loop turn.

Responses carry the engine's scores as they are: every engine's
response contract is that ``EngineResponse.scores`` equals
:func:`~repro.serve.replay.canonical_scores` of the answer's rows, bit
for bit, so the front door does no scoring of its own.

Single flight is by exact key within a batch: a read whose ``(weights
bytes, k)`` equals an earlier read of the same batch attaches to it as
a follower and takes the leader's outcome verbatim — the same ids and
canonical scores, or the same error. That is exact because the follower
is the same request, served against the same snapshot.

Writes are fenced by construction: the dispatcher reaches a write only
after every read admitted before it has been resolved and logged, and
it takes no read until the write has returned, so no read is ever
served from a half-applied update and the serialization log stays
sequentially consistent.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.engine.engine import (
    UpdateResponse,
    validate_k,
    validate_k_type,
    validate_point,
    validate_rid_type,
    validate_weights,
)
from repro.engine.workload import Request, frozen_array
from repro.serve.config import ServeConfig
from repro.serve.errors import Overloaded, Rejected
from repro.serve.replay import DeleteLog, InsertLog, ReadLog
from repro.serve.stats import ServeStats

__all__ = ["ServeFront", "ServeResponse"]

#: Queue marker that tells the dispatcher to drain and exit.
_SENTINEL = object()


@dataclass(frozen=True)
class ServeResponse:
    """One read served by the front door (canonical boundary scoring).

    It carries no timing: where the read's time went is its spans'
    (``serve.queue_wait``, ``serve.hit_batch``, ``serve.engine_batch``;
    :mod:`repro.obs`), and a caller that wants its latency without
    tracing times its own ``await``. The public constructor copies and
    freezes ``weights`` (:func:`~repro.engine.workload.frozen_array`);
    the front door builds its responses from the admitted request's
    already-frozen vector through :meth:`_frozen`, which skips that
    re-check."""

    ids: tuple
    scores: tuple
    weights: np.ndarray
    k: int
    #: ``"engine"`` (this read was an engine request) or ``"coalesced"``
    #: (an exact duplicate given its in-flight leader's answer).
    via: str
    #: Engine provenance: ``cache`` / ``computed`` for
    #: engine-served reads, ``coalesced:<leader provenance>`` otherwise.
    source: str
    #: Metered page reads this response cost (0 when coalesced).
    pages_read: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", frozen_array(self.weights, "weights")
        )

    @classmethod
    def _frozen(cls, **fields: object) -> "ServeResponse":
        """A response whose ``weights`` is already what
        :func:`~repro.engine.workload.frozen_array` returns, built without
        the dataclass ``__init__`` and its re-check. Takes every field by
        name."""
        self = object.__new__(cls)
        self.__dict__.update(fields)
        return self


class _ReadOp:
    __slots__ = ("request", "future", "t_arrive", "trace")

    def __init__(self, request: Request, future: asyncio.Future) -> None:
        #: The engine request, built once at admission: its frozen
        #: weights are the read's one copy of the caller's vector.
        self.request = request
        self.future = future
        #: Admission time, the start of the ``serve.queue_wait`` span.
        self.t_arrive = time.perf_counter()
        #: The admitting request's trace context; retro spans (queue
        #: wait, linger) and the engine bridge stitch under it because
        #: contextvars do not follow the op across tasks/threads.
        self.trace = obs.current()


class _WriteOp:
    __slots__ = ("kind", "point", "rid", "future", "t_arrive", "trace")

    def __init__(
        self,
        kind: str,
        future: asyncio.Future,
        point: np.ndarray | None = None,
        rid: int | None = None,
    ) -> None:
        self.kind = kind
        self.point = point
        self.rid = rid
        self.future = future
        self.t_arrive = time.perf_counter()
        self.trace = obs.current()


class _Flight:
    """One engine request of a batch and the identical reads awaiting it."""

    __slots__ = ("leader", "followers")

    def __init__(self, leader: _ReadOp) -> None:
        self.leader = leader
        self.followers: list = []


class ServeFront:
    """Asyncio admission/batching/single-flight tier over one engine.

    Use as an async context manager (or call :meth:`start` / :meth:`close`
    explicitly)::

        async with ServeFront(engine, ServeConfig(batch_max=16)) as front:
            resp = await front.topk(weights, k=10)

    The instance is loop-affine once started. ``front.log`` is the
    serialization log (see :mod:`repro.serve.replay`); ``front.stats``
    the live counters.
    """

    def __init__(self, engine, config: ServeConfig | None = None) -> None:
        self.engine = engine
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        #: Commit-ordered serialization log (ReadLog/InsertLog/DeleteLog).
        self.log: list = []
        self._d = int(engine.d)
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._queue: asyncio.Queue | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatcher: asyncio.Task | None = None
        self._stashed: object | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "ServeFront":
        if self._queue is not None:
            raise RuntimeError("front door already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def close(self) -> None:
        """Stop admissions, drain every queued/in-flight operation, and
        shut the engine bridge down."""
        if self._closed:
            return
        self._closed = True
        if self._queue is None:
            self._pool.shutdown(wait=True)
            return
        self._queue.put_nowait(_SENTINEL)
        if self._dispatcher is not None:
            await self._dispatcher
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "ServeFront":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- admission ------------------------------------------------------------

    def _admit(self, op) -> None:
        queue = self._queue
        if queue is None:
            raise RuntimeError("front door not started")
        if queue.qsize() >= self.config.max_pending:
            self.stats.shed += 1
            raise Overloaded(
                "ingress queue at capacity",
                queue_depth=queue.qsize(),
                max_pending=self.config.max_pending,
            )
        self.stats.admitted += 1
        queue.put_nowait(op)
        self.stats.queue_depth_peak = max(
            self.stats.queue_depth_peak, queue.qsize()
        )

    async def topk(self, weights, k: int) -> ServeResponse:
        """Admit one read and await its response.

        Raises :class:`Rejected` on a malformed request (the engine's
        own boundary validation) and :class:`Overloaded` when the
        ingress queue is full.
        """
        self.stats.arrivals += 1
        with obs.trace("serve.request", kind="read") as root:
            if self._closed:
                self.stats.rejected += 1
                raise Rejected("front door is closed")
            try:
                # The engine request copies and freezes the caller's
                # vector; the response and the log entry share that copy.
                request = Request(
                    weights=validate_weights(weights, self._d),
                    k=validate_k_type(k),
                )
            except ValueError as exc:
                self.stats.rejected += 1
                raise Rejected(str(exc)) from exc
            op = _ReadOp(request, self._new_future())
            self._admit(op)
            resp = await op.future
            if obs.tracing_enabled():
                root.set("via", resp.via)
                root.set("source", resp.source)
            return resp

    async def insert(self, point) -> UpdateResponse:
        """Admit one insert; applied after every read admitted before it.
        Returns the engine's :class:`~repro.engine.UpdateResponse`."""
        self.stats.arrivals += 1
        with obs.trace("serve.request", kind="insert"):
            if self._closed:
                self.stats.rejected += 1
                raise Rejected("front door is closed")
            try:
                p = frozen_array(validate_point(point, self._d), "point")
            except ValueError as exc:
                self.stats.rejected += 1
                raise Rejected(str(exc)) from exc
            op = _WriteOp("insert", self._new_future(), point=p)
            self._admit(op)
            return await op.future

    async def delete(self, rid: int) -> UpdateResponse:
        """Admit one delete; applied after every read admitted before it.
        Returns the engine's :class:`~repro.engine.UpdateResponse`."""
        self.stats.arrivals += 1
        with obs.trace("serve.request", kind="delete"):
            if self._closed:
                self.stats.rejected += 1
                raise Rejected("front door is closed")
            try:
                rid = validate_rid_type(rid)
                if rid < 0:
                    raise ValueError(f"rid must be non-negative, got {rid}")
            except ValueError as exc:
                self.stats.rejected += 1
                raise Rejected(str(exc)) from exc
            op = _WriteOp("delete", self._new_future(), rid=rid)
            self._admit(op)
            return await op.future

    def _new_future(self) -> asyncio.Future:
        if self._loop is None:
            raise RuntimeError("front door not started")
        return self._loop.create_future()

    # -- dispatcher -----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        queue = self._queue
        assert queue is not None
        while True:
            if self._stashed is not None:
                op, self._stashed = self._stashed, None
            else:
                op = await queue.get()
            if op is _SENTINEL:
                break
            if isinstance(op, _WriteOp):
                await self._apply_write(op)
                continue
            t_linger = time.perf_counter()
            batch = await self._collect_batch(op)
            if obs.tracing_enabled():
                obs.record_span(
                    "serve.batch_linger",
                    t_linger,
                    time.perf_counter(),
                    trace_ctx=op.trace,
                    batch=len(batch),
                )
            await self._serve_reads(batch)

    async def _collect_batch(self, first: _ReadOp) -> list:
        """Micro-batch: take every read already queued behind ``first``,
        lingering up to the window only while the queue is empty; the
        size cap, a write or the close sentinel ends the batch."""
        queue = self._queue
        assert queue is not None
        batch = [first]
        if self.config.batch_max == 1:
            return batch
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.batch_window_ms / 1e3
        while len(batch) < self.config.batch_max:
            if queue.empty():
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(queue.get(), remaining)
                except TimeoutError:
                    break
            else:
                nxt = queue.get_nowait()
            if nxt is _SENTINEL or isinstance(nxt, _WriteOp):
                self._stashed = nxt
                break
            batch.append(nxt)
        return batch

    async def _serve_reads(self, batch: list) -> None:
        """Group the batch's exact duplicates under one leader each, serve
        the leaders' full-hit prefix here and the rest as one engine
        batch on the bridge, and resolve every read of the batch."""
        if obs.tracing_enabled():
            t_dispatch = time.perf_counter()
            for op in batch:
                obs.record_span(
                    "serve.queue_wait", op.t_arrive, t_dispatch,
                    trace_ctx=op.trace,
                )
        by_key: dict[tuple, _Flight] = {}
        for op in batch:
            key = (op.request.weights.tobytes(), op.request.k)
            flight = by_key.get(key)
            if flight is not None:
                flight.followers.append(op)
                self.stats.coalesce_attached += 1
            else:
                by_key[key] = _Flight(op)
        self.stats.engine_batch_calls += 1
        flights = self._serve_hits_inline(list(by_key.values()))
        if not flights:
            return
        try:
            results = await asyncio.get_running_loop().run_in_executor(
                self._pool,
                self._serve_batch_sync,
                [f.leader.request for f in flights],
                flights[0].leader.trace,
                self.engine.topk_batch,
                "serve.engine_batch",
            )
        except Exception as exc:
            results = [exc] * len(flights)
        self._resolve_flights(flights, results)

    def _serve_hits_inline(self, flights: list) -> list:
        """Serve the flights' leading full cache hits on the event loop and
        resolve them with their followers; return the flights left for
        the bridge.

        The dispatcher awaits every engine call it makes, so the bridge
        is idle here and the loop is the one thread in the engine. The
        call is bounded: at most ``batch_max`` hits, and it stops before
        the first leader that is not one (``serve_hits``). An engine
        error fails this batch's reads alone."""
        try:
            results = self._serve_batch_sync(
                [f.leader.request for f in flights],
                flights[0].leader.trace,
                self.engine.serve_hits,
                "serve.hit_batch",
            )
        except Exception as exc:
            results = [exc] * len(flights)
        served = len(results)
        self._resolve_flights(flights[:served], results)
        return flights[served:]

    # -- engine calls (the bridge's thread, or the loop for serve_hits) -------

    def _serve_batch_sync(self, reqs: list, trace_ctx, serve, name: str) -> list:
        """One engine read call over a batch's leaders, recorded as span
        ``name``: ``topk_batch`` on the bridge (``serve.engine_batch``),
        or ``serve_hits`` on the loop (``serve.hit_batch``), so a bridge
        span is bridge time alone. Each response's scores are already
        canonical (the engine's response contract), so nothing is
        rescored here.

        ``trace_ctx`` is the first leader's trace context — contextvars
        do not cross ``run_in_executor``, so the call re-adopts it
        explicitly and the engine-side spans stitch under that request
        (the other leaders share the batch; their spans nest here too).
        """
        if trace_ctx is not None and obs.tracing_enabled():
            with obs.use_trace(trace_ctx), obs.span(name, n=len(reqs)):
                return self._serve_batch_inner(reqs, serve)
        return self._serve_batch_inner(reqs, serve)

    def _serve_batch_inner(self, reqs: list, serve) -> list:
        """One result per request the call reached, in order: its
        :class:`EngineResponse`, or the :class:`Rejected` error of a
        request whose ``k`` exceeds the live record count. That bound
        moves with every write, so it can only be judged here, inside the
        engine's ownership; the offender is set aside so it cannot fail
        the reads it happens to share a batch with. ``topk_batch``
        reaches every request; ``serve_hits`` stops at its first non-hit,
        and the list ends there. The bound is checked once for the whole
        batch; only a batch with an offender is walked request by
        request."""
        n_live = self.engine.n_live
        if max((req.k for req in reqs), default=0) <= n_live:
            return serve(reqs)
        out: list = []
        requests = []
        for req in reqs:
            try:
                validate_k(req.k, n_live)
            except ValueError as exc:
                out.append(Rejected(str(exc), k=req.k, n_live=n_live))
            else:
                out.append(None)
                requests.append(req)
        responses = iter(serve(requests))
        results: list = []
        for slot in out:
            if slot is None:
                slot = next(responses, None)
                if slot is None:
                    break
            results.append(slot)
        return results

    def _apply_write_sync(self, op: _WriteOp, trace_ctx=None) -> UpdateResponse:
        if trace_ctx is not None and obs.tracing_enabled():
            with obs.use_trace(trace_ctx), obs.span(
                "serve.engine_write", kind=op.kind
            ):
                return self._apply_write_inner(op)
        return self._apply_write_inner(op)

    def _apply_write_inner(self, op: _WriteOp) -> UpdateResponse:
        if op.kind == "insert":
            return self.engine.insert(op.point)
        return self.engine.delete(op.rid)

    # -- resolution (event-loop code) -----------------------------------------

    def _resolve_flights(self, flights: list, results: list) -> None:
        """Resolve each flight — its leader, then its followers — with its
        engine result: a response, or the error every one of them gets."""
        for flight, result in zip(flights, results):
            if isinstance(result, Exception):
                for op in (flight.leader, *flight.followers):
                    self._resolve_error(op, result)
                continue
            self._resolve_read(flight.leader, result)
            for op in flight.followers:
                self._resolve_read(op, result, leader=False)

    def _resolve_read(self, op: _ReadOp, resp, leader: bool = True) -> None:
        """Serve ``op`` the flight's answer: as the engine request, or as
        a follower with its leader's ids and scores verbatim."""
        via = "engine" if leader else "coalesced"
        request = op.request
        response = ServeResponse._frozen(
            ids=tuple(resp.ids),
            scores=resp.scores,
            weights=request.weights,
            k=request.k,
            via=via,
            source=resp.source if leader else f"coalesced:{resp.source}",
            pages_read=resp.pages_read if leader else 0,
        )
        self.log.append(
            ReadLog(
                weights=request.weights,
                k=request.k,
                ids=response.ids,
                scores=resp.scores,
                via=via,
            )
        )
        self.stats.reads_served += 1
        if leader:
            self.stats.engine_requests += 1
        else:
            self.stats.coalesced_served += 1
        if not op.future.done():
            op.future.set_result(response)

    def _resolve_error(self, op, exc: Exception) -> None:
        self.stats.errors += 1
        if not op.future.done():
            op.future.set_exception(exc)

    # -- the write fence -------------------------------------------------------

    async def _apply_write(self, op: _WriteOp) -> None:
        """Run the write on the bridge and log it. Every read admitted
        before it was resolved and logged by an earlier dispatch, and the
        dispatcher takes nothing else until the write returns: that order
        is the fence."""
        if obs.tracing_enabled():
            obs.record_span(
                "serve.queue_wait", op.t_arrive, time.perf_counter(),
                trace_ctx=op.trace,
            )
        self.stats.fences += 1
        loop = asyncio.get_running_loop()
        job = loop.run_in_executor(
            self._pool, self._apply_write_sync, op, op.trace
        )
        try:
            update = await job
        except Exception as exc:
            self._resolve_error(op, exc)
            return
        if op.kind == "insert":
            self.log.append(InsertLog(point=op.point, rid=update.rid))
        else:
            self.log.append(DeleteLog(rid=update.rid))
        self.stats.writes_applied += 1
        if not op.future.done():
            op.future.set_result(update)
