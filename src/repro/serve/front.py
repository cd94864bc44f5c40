"""The asyncio serving front door: admission → batcher → engine bridge.

One :class:`ServeFront` wraps one engine (a
:class:`~repro.engine.GIREngine` or a
:class:`~repro.cluster.ShardedGIREngine` — anything with the engine
serving surface: ``topk_batch`` / ``insert`` / ``delete`` /
``result_rows`` / ``scorer`` / ``d`` / ``n_live``). The engine stays strictly
single-owner: every engine call runs on the front door's one-thread
executor (the *executor bridge*), which is exactly the ownership shape
the runtime sanitizer's tokens accept, and the event loop itself only
ever does queue plumbing and stateless float math.

Data path for a read::

    admission (validate, bound, shed)          — caller's task
      → ingress queue
      → dispatcher: micro-batch + coalesce     — one dispatcher task
      → executor bridge: one topk_batch call   — the engine thread
      → resolution: leaders, then followers    — a finisher task

A follower (a read attached to an in-flight duplicate/near-duplicate
leader) is answered *from the leader's returned GIR* after an explicit
membership check — the GIR invariant certifies the same ordered ids for
every vector in the region, and the scores are recomputed canonically
for the follower's own weights from the leader's row snapshot, which is
bit-identical to what a sequential full cache hit would serve (see
:mod:`repro.serve.replay`). Non-members fall back to their own engine
pass; correctness never rides on the attach heuristic.

Writes fence: the dispatcher drains every outstanding read batch (all
followers resolve against their pre-write snapshots and are logged)
before the write runs on the bridge, so no read is ever served from a
half-applied update and the serialization log stays sequentially
consistent.
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
    validate_point,
    validate_weights,
)
from repro.engine.workload import (
    DeleteOp,
    InsertOp,
    Request,
    Workload,
    frozen_array,
)
from repro.serve.coalesce import InFlightEntry, InFlightTable
from repro.serve.config import ServeConfig
from repro.serve.errors import Overloaded, Rejected, ServeError
from repro.serve.replay import (
    DeleteLog,
    InsertLog,
    ReadLog,
    canonical_scores,
)
from repro.serve.stats import ServeReport, ServeStats

__all__ = [
    "ServeFront",
    "ServeResponse",
    "ServeUpdate",
    "run_serve_workload",
]

#: Queue marker that tells the dispatcher to drain and exit.
_SENTINEL = object()


@dataclass(frozen=True)
class ServeResponse:
    """One read served by the front door (canonical boundary scoring)."""

    ids: tuple
    scores: tuple
    weights: np.ndarray
    k: int
    #: ``"engine"`` (this read was an engine request) or ``"coalesced"``
    #: (answered from an in-flight leader's GIR).
    via: str
    #: Engine provenance: ``cache`` / ``computed`` for
    #: engine-served reads, ``coalesced:<leader provenance>`` otherwise.
    source: str
    #: Metered page reads this response cost (0 when coalesced).
    pages_read: int
    #: Arrival → dispatch queueing delay.
    wait_ms: float
    #: Engine time (≈0 for a coalesced answer).
    service_ms: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", frozen_array(self.weights, "weights")
        )


@dataclass(frozen=True)
class ServeUpdate:
    """One write applied through the fence."""

    update: UpdateResponse
    wait_ms: float
    service_ms: float


class _ReadOp:
    __slots__ = ("weights", "k", "future", "t_arrive", "no_coalesce", "trace")

    def __init__(
        self, weights: np.ndarray, k: int, future: asyncio.Future
    ) -> None:
        self.weights = weights
        self.k = k
        self.future = future
        self.t_arrive = time.perf_counter()
        #: Set after a failed coalesce so the retry leads its own request
        #: instead of chasing another near leader forever.
        self.no_coalesce = False
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


class ServeFront:
    """Asyncio admission/batching/coalescing tier over one engine.

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
        self._inflight = InFlightTable(
            self.config.coalesce_radius if self.config.coalesce else 0.0
        )
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )
        self._queue: asyncio.Queue | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatcher: asyncio.Task | None = None
        self._jobs: list[asyncio.Task] = []
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
                w = validate_weights(
                    np.asarray(weights, dtype=np.float64), self._d
                )
                if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
                    raise ValueError(f"k must be a positive int, got {k!r}")
            except ValueError as exc:
                self.stats.rejected += 1
                raise Rejected(str(exc)) from exc
            op = _ReadOp(w, k, self._new_future())
            self._admit(op)
            resp = await op.future
            if obs.tracing_enabled():
                root.set("via", resp.via)
                root.set("source", resp.source)
            return resp

    async def insert(self, point) -> ServeUpdate:
        """Admit one insert; applied behind the write fence."""
        self.stats.arrivals += 1
        with obs.trace("serve.request", kind="insert"):
            if self._closed:
                self.stats.rejected += 1
                raise Rejected("front door is closed")
            try:
                p = validate_point(
                    np.asarray(point, dtype=np.float64), self._d
                )
            except ValueError as exc:
                self.stats.rejected += 1
                raise Rejected(str(exc)) from exc
            op = _WriteOp("insert", self._new_future(), point=p)
            self._admit(op)
            return await op.future

    async def delete(self, rid: int) -> ServeUpdate:
        """Admit one delete; applied behind the write fence."""
        self.stats.arrivals += 1
        with obs.trace("serve.request", kind="delete"):
            if self._closed:
                self.stats.rejected += 1
                raise Rejected("front door is closed")
            if isinstance(rid, bool) or not isinstance(rid, int) or rid < 0:
                self.stats.rejected += 1
                raise Rejected(
                    f"rid must be a non-negative int, got {rid!r}"
                )
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
            self._launch_reads(batch)
            await self._throttle_jobs()
        # Drain: outstanding jobs may requeue fallback followers, so
        # alternate until both the job list and the queue are empty.
        while True:
            await self._drain_jobs()
            if queue.empty():
                break
            op = queue.get_nowait()
            if op is _SENTINEL:
                continue
            if isinstance(op, _WriteOp):
                await self._apply_write(op)
            else:
                self._launch_reads([op])

    async def _collect_batch(self, first: _ReadOp) -> list:
        """Micro-batch: linger up to the window (or until the size cap, a
        write, or the close sentinel) collecting reads behind ``first``."""
        queue = self._queue
        assert queue is not None
        batch = [first]
        if self.config.batch_max == 1:
            return batch
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.batch_window_ms / 1e3
        while len(batch) < self.config.batch_max:
            remaining = deadline - loop.time()
            if remaining <= 0 and queue.empty():
                break
            try:
                nxt = (
                    queue.get_nowait()
                    if remaining <= 0
                    else await asyncio.wait_for(queue.get(), remaining)
                )
            except (TimeoutError, asyncio.QueueEmpty):
                break
            if nxt is _SENTINEL or isinstance(nxt, _WriteOp):
                self._stashed = nxt
                break
            batch.append(nxt)
        return batch

    def _launch_reads(self, batch: list) -> None:
        """Coalesce a batch against the in-flight table, then submit the
        leaders as one engine batch on the bridge."""
        t_dispatch = time.perf_counter()
        if obs.tracing_enabled():
            for op in batch:
                obs.record_span(
                    "serve.queue_wait", op.t_arrive, t_dispatch,
                    trace_ctx=op.trace,
                )
        leaders: list[InFlightEntry] = []
        for op in batch:
            entry = None
            if self.config.coalesce and not op.no_coalesce:
                entry = self._inflight.match(op.weights, op.k)
            if entry is not None:
                entry.followers.append(op)
                self.stats.coalesce_attached += 1
            else:
                entry = InFlightEntry(op.weights, op.k, op)
                self._inflight.register(entry)
                leaders.append(entry)
        if not leaders:
            return
        loop = asyncio.get_running_loop()
        reqs = [(e.weights, e.k) for e in leaders]
        job = loop.run_in_executor(
            self._pool, self._serve_batch_sync, reqs,
            leaders[0].leader.trace,
        )
        task = loop.create_task(
            self._finish_batch(leaders, job, t_dispatch)
        )
        self._jobs.append(task)
        self.stats.engine_batch_calls += 1
        live = sum(not t.done() for t in self._jobs)
        self.stats.inflight_batches_peak = max(
            self.stats.inflight_batches_peak, live
        )

    async def _throttle_jobs(self) -> None:
        """Bound outstanding engine batches; excess pressure stays in the
        ingress queue (and from there becomes sheds)."""
        self._jobs = [t for t in self._jobs if not t.done()]
        while len(self._jobs) >= self.config.max_inflight_batches:
            await self._jobs[0]
            self._jobs = [t for t in self._jobs if not t.done()]

    async def _drain_jobs(self) -> None:
        while self._jobs:
            task = self._jobs.pop(0)
            await task

    # -- the executor bridge (engine-thread code) ------------------------------

    def _serve_batch_sync(self, reqs: list, trace_ctx=None) -> list:
        """Engine-thread half of a read batch: one ``topk_batch`` call,
        then a row snapshot + canonical scores per response, all taken
        before any later write can run on this (single) thread.

        ``trace_ctx`` is the first leader's trace context — contextvars
        do not cross ``run_in_executor``, so the bridge re-adopts it
        explicitly and the engine-side spans stitch under that request
        (the other leaders share the batch; their spans nest here too).
        """
        if trace_ctx is not None and obs.tracing_enabled():
            with obs.use_trace(trace_ctx), obs.span(
                "serve.engine_batch", n=len(reqs)
            ):
                return self._serve_batch_inner(reqs)
        return self._serve_batch_inner(reqs)

    def _serve_batch_inner(self, reqs: list) -> list:
        """One result per request: ``(response, rows, scores)``, or the
        :class:`Rejected` error of a request whose ``k`` exceeds the live
        record count. That bound moves with every write, so it can only
        be judged here, on the engine thread; the offender is set aside
        so it cannot fail the reads it happens to share a batch with."""
        n_live = self.engine.n_live
        out: list = []
        requests = []
        for w, k in reqs:
            try:
                validate_k(k, n_live)
            except ValueError as exc:
                out.append(Rejected(str(exc), k=k, n_live=n_live))
            else:
                out.append(None)
                requests.append(Request(weights=w, k=k))
        responses = iter(self.engine.topk_batch(requests))
        for i, slot in enumerate(out):
            if slot is None:
                resp = next(responses)
                rows = self.engine.result_rows(resp.ids)
                scores = canonical_scores(
                    self.engine.scorer, rows, resp.weights
                )
                out[i] = (resp, rows, scores)
        return out

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

    async def _finish_batch(
        self, leaders: list, job, t_dispatch: float
    ) -> None:
        try:
            results = await job
        except Exception as exc:
            for entry in leaders:
                self._inflight.discard(entry)
                self._resolve_error(entry.leader, exc)
                for follower in entry.followers:
                    self._resolve_error(follower, exc)
            return
        # Unregister the whole batch first: a follower arriving after
        # this point must not attach to an already-resolved computation.
        for entry in leaders:
            self._inflight.discard(entry)
        for entry, result in zip(leaders, results):
            if isinstance(result, ServeError):
                # Only the offender fails; its followers asked for no
                # more than it did and may well be servable.
                self._resolve_error(entry.leader, result)
                for follower in entry.followers:
                    self._requeue(follower)
                continue
            resp, rows, scores = result
            self._resolve_leader(entry.leader, resp, scores, t_dispatch)
            for follower in entry.followers:
                self._resolve_follower(follower, resp, rows)

    def _resolve_leader(
        self, op: _ReadOp, resp, scores: tuple, t_dispatch: float
    ) -> None:
        wait_ms = (t_dispatch - op.t_arrive) * 1e3
        response = ServeResponse(
            ids=tuple(resp.ids),
            scores=scores,
            weights=op.weights,
            k=op.k,
            via="engine",
            source=resp.source,
            pages_read=resp.pages_read,
            wait_ms=wait_ms,
            service_ms=resp.latency_ms,
        )
        self.log.append(
            ReadLog(
                weights=op.weights,
                k=op.k,
                ids=response.ids,
                scores=scores,
                via="engine",
            )
        )
        self.stats.reads_served += 1
        self.stats.engine_requests += 1
        self.stats.wait_ms.observe(wait_ms)
        self.stats.service_ms.observe(resp.latency_ms)
        if not op.future.done():
            op.future.set_result(response)

    def _resolve_follower(self, op: _ReadOp, resp, rows: np.ndarray) -> None:
        """Answer a follower from its leader's GIR — or send it back
        through the queue for its own engine pass if the optimistic
        attach turns out not to be covered by the returned region."""
        if (
            op.k <= len(resp.ids)
            and resp.region is not None
            and resp.region.contains(op.weights)
        ):
            t0 = time.perf_counter()
            ids = tuple(resp.ids[: op.k])
            scores = canonical_scores(
                self.engine.scorer, rows[: op.k], op.weights
            )
            wait_ms = (t0 - op.t_arrive) * 1e3
            service_ms = (time.perf_counter() - t0) * 1e3
            response = ServeResponse(
                ids=ids,
                scores=scores,
                weights=op.weights,
                k=op.k,
                via="coalesced",
                source=f"coalesced:{resp.source}",
                pages_read=0,
                wait_ms=wait_ms,
                service_ms=service_ms,
            )
            self.log.append(
                ReadLog(
                    weights=op.weights,
                    k=op.k,
                    ids=ids,
                    scores=scores,
                    via="coalesced",
                )
            )
            self.stats.reads_served += 1
            self.stats.coalesced_served += 1
            self.stats.wait_ms.observe(wait_ms)
            self.stats.service_ms.observe(service_ms)
            if not op.future.done():
                op.future.set_result(response)
        else:
            self._requeue(op)

    def _requeue(self, op: _ReadOp) -> None:
        """Send an attached read back through the queue to lead its own
        engine request."""
        op.no_coalesce = True
        self.stats.coalesce_fallbacks += 1
        assert self._queue is not None
        self._queue.put_nowait(op)

    def _resolve_error(self, op, exc: Exception) -> None:
        self.stats.errors += 1
        if not op.future.done():
            op.future.set_exception(exc)

    # -- the write fence -------------------------------------------------------

    async def _apply_write(self, op: _WriteOp) -> None:
        """Fence, then apply: clear the attach table (no new followers),
        drain every outstanding read batch (all followers resolve and
        log against their pre-write snapshots), then run the write on
        the bridge and log it."""
        t_fence = time.perf_counter()
        self._inflight.clear()
        await self._drain_jobs()
        if obs.tracing_enabled():
            t_now = time.perf_counter()
            obs.record_span(
                "serve.fence_wait", t_fence, t_now, trace_ctx=op.trace
            )
            obs.record_span(
                "serve.queue_wait", op.t_arrive, t_now, trace_ctx=op.trace
            )
        self.stats.fences += 1
        t_dispatch = time.perf_counter()
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
        result = ServeUpdate(
            update=update,
            wait_ms=(t_dispatch - op.t_arrive) * 1e3,
            service_ms=update.latency_ms,
        )
        if not op.future.done():
            op.future.set_result(result)


async def run_serve_workload(
    front: ServeFront,
    workload,
    concurrency: int = 32,
) -> ServeReport:
    """Fire a workload at a started front door from ``concurrency``
    client tasks and collect per-operation outcomes.

    Shed / rejected arrivals land in the report as their structured
    :class:`~repro.serve.errors.ServeError` rather than raising — the
    runner measures the tier, it does not crash on backpressure.
    """
    if concurrency <= 0:
        raise ValueError("concurrency must be positive")
    ops = list(workload)
    kind = workload.kind if isinstance(workload, Workload) else "custom"
    outcomes: list = [None] * len(ops)
    gate = asyncio.Semaphore(concurrency)

    async def client(i: int, op) -> None:
        async with gate:
            try:
                if isinstance(op, Request):
                    outcomes[i] = await front.topk(op.weights, op.k)
                elif isinstance(op, InsertOp):
                    outcomes[i] = await front.insert(op.point)
                elif isinstance(op, DeleteOp):
                    outcomes[i] = await front.delete(op.rid)
                else:
                    raise TypeError(f"unknown workload operation {op!r}")
            except ServeError as exc:
                outcomes[i] = exc

    t0 = time.perf_counter()
    await asyncio.gather(*(client(i, op) for i, op in enumerate(ops)))
    wall_ms = (time.perf_counter() - t0) * 1e3
    return ServeReport(
        outcomes=outcomes,
        stats=front.stats,
        wall_ms=wall_ms,
        workload_kind=kind,
    )
