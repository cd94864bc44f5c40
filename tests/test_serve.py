"""Tests for the asyncio serving front door (`repro.serve`).

The load-bearing property: any interleaving of coalesced / batched /
direct serving is *byte-identical* in ``(rids, scores)`` to sequential
per-request serving — checked by replaying the tier's serialization log
through a fresh engine (:func:`repro.serve.replay_serial_check`),
including across interleaved insert/delete fences and with a sharded
cluster behind the front door.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Executor, Future

import numpy as np
import pytest

from repro import obs
from repro.cluster import ShardedGIREngine
from repro.data.synthetic import make_synthetic
from repro.engine import GIREngine, flash_crowd_workload, mixed_workload
from repro.engine.workload import DeleteOp, InsertOp, Request
from repro.index.bulkload import bulk_load_str
from repro.serve import (
    Overloaded,
    Rejected,
    ServeConfig,
    ServeFront,
    ServeResponse,
    ServeStats,
    canonical_scores,
    ServeError,
    replay_serial_check,
)

D = 3
N = 400


@pytest.fixture(scope="module")
def data():
    return make_synthetic("IND", N, D, seed=7)


def fresh_engine(data) -> GIREngine:
    return GIREngine(data, bulk_load_str(data), cache_capacity=64)


def drive(engine, workload, config=None, concurrency=24):
    """Fire a workload at a fresh front door from ``concurrency`` client
    tasks; return ``(front, outcomes)``, one outcome per operation in
    workload order: its response, or the :class:`ServeError` it was shed
    or rejected with."""
    ops = list(workload)
    outcomes: list = [None] * len(ops)

    async def client(i, op, front, gate):
        async with gate:
            try:
                if isinstance(op, Request):
                    outcomes[i] = await front.topk(op.weights, op.k)
                elif isinstance(op, InsertOp):
                    outcomes[i] = await front.insert(op.point)
                else:
                    outcomes[i] = await front.delete(op.rid)
            except ServeError as exc:
                outcomes[i] = exc

    async def go():
        gate = asyncio.Semaphore(concurrency)
        async with ServeFront(engine, config) as front:
            await asyncio.gather(
                *(client(i, op, front, gate) for i, op in enumerate(ops))
            )
        return front, outcomes

    return asyncio.run(go())


SERVING_MODES = pytest.mark.parametrize(
    "config",
    [
        ServeConfig(),  # batched + coalesced (the default path)
        # direct: one read a batch, so nothing can attach
        ServeConfig(batch_max=1),
        ServeConfig(batch_window_ms=0.1, batch_max=4),  # tiny batches
        # one job a dispatch: no linger, a batch is what is queued
        ServeConfig(batch_window_ms=0.0),
    ],
    ids=["default", "direct", "tiny-batch", "one-job"],
)


class LoopSpyEngine(GIREngine):
    """A ``GIREngine`` that records, per serving call, whether it ran on
    the event-loop thread. The front door must run the pipeline
    (``topk_batch``, ``insert``, ``delete``) on its bridge thread and
    only the bounded ``serve_hits`` on the loop. A source check sees the
    call sites it can name; this sees a call made through any helper."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.on_loop: dict[str, set[bool]] = {}

    def _record(self, name: str) -> None:
        try:
            asyncio.get_running_loop()
            on_loop = True
        except RuntimeError:
            on_loop = False
        self.on_loop.setdefault(name, set()).add(on_loop)

    def serve_hits(self, requests):
        self._record("serve_hits")
        return super().serve_hits(requests)

    def topk_batch(self, requests):
        self._record("topk_batch")
        return super().topk_batch(requests)

    def insert(self, point):
        self._record("insert")
        return super().insert(point)

    def delete(self, rid):
        self._record("delete")
        return super().delete(rid)


class InlineExecutor(Executor):
    """Runs each call at once on the submitting thread (the loop's)."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestServeEquivalence:
    """Byte-identity of every serving path against sequential replay."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flash_crowd_interleaving_matches_sequential(self, data, seed):
        workload = flash_crowd_workload(D, 80, k=8, rng=seed)
        front, outcomes = drive(fresh_engine(data), workload)
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
        assert verdict["requests"] == front.stats.reads_served
        assert front.stats.accounting_ok()

    @SERVING_MODES
    def test_every_serving_mode_matches_sequential(self, data, config):
        workload = flash_crowd_workload(D, 60, k=8, rng=3)
        front, outcomes = drive(fresh_engine(data), workload, config)
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
        assert front.stats.accounting_ok()

    @SERVING_MODES
    def test_engine_calls_keep_their_thread(self, data, config):
        engine = LoopSpyEngine(data, bulk_load_str(data), cache_capacity=64)
        drive(engine, mixed_workload(D, 70, base_n=N, k=8, update_fraction=0.3, rng=0), config)
        assert engine.on_loop == {
            "serve_hits": {True},
            "topk_batch": {False},
            "insert": {False},
            "delete": {False},
        }

    def test_spy_flags_engine_calls_moved_onto_the_loop(self, data, monkeypatch):
        """Seeded fault: a bridge that runs each engine call on the loop."""
        monkeypatch.setattr(
            "repro.serve.front.ThreadPoolExecutor", lambda **_: InlineExecutor()
        )
        engine = LoopSpyEngine(data, bulk_load_str(data), cache_capacity=64)
        drive(engine, mixed_workload(D, 70, base_n=N, k=8, update_fraction=0.3, rng=0))
        assert engine.on_loop["topk_batch"] == engine.on_loop["insert"] == {True}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_across_insert_delete_fences(self, data, seed):
        workload = mixed_workload(
            D, 70, base_n=N, k=8, update_fraction=0.3, rng=seed
        )
        front, outcomes = drive(fresh_engine(data), workload)
        assert front.stats.writes_applied > 0
        assert front.stats.fences == front.stats.writes_applied
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
        assert verdict["writes"] == front.stats.writes_applied

    def test_sharded_cluster_front_matches_single_engine_replay(self, data):
        workload = mixed_workload(
            D, 50, base_n=N, k=8, update_fraction=0.2, rng=4
        )
        with ShardedGIREngine(data, shards=2) as cluster:
            front, outcomes = drive(cluster, workload)
            verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]


class TestCanonicalScoreContract:
    """The engine response contract the front door relies on: every
    response's scores are ``canonical_scores`` of its answer's rows, bit
    for bit — on misses, full hits, cluster-cache hits and merged
    fan-outs, before and after writes."""

    @pytest.fixture(params=["single", "inproc", "process"])
    def engine(self, request, data):
        if request.param == "single":
            yield fresh_engine(data)
            return
        with ShardedGIREngine(data, shards=2, backend=request.param) as cluster:
            yield cluster

    def test_every_response_is_canonical(self, engine):
        rng = np.random.default_rng(11)
        hot = rng.random((4, D)) + 0.05
        sources = []

        def check(responses):
            for resp in responses:
                rows = engine.result_rows(resp.ids)
                assert resp.scores == canonical_scores(
                    engine.scorer, rows, resp.weights
                )
                sources.append(resp.source)

        def serve_round():
            check(engine.topk_batch([Request(w, 8) for w in hot]))
            check([engine.topk(w, 8) for w in hot])
            check([engine.topk(w, 5) for w in hot])
            cold = rng.random((6, D)) + 0.05
            check(engine.topk_batch([Request(w, 6) for w in cold]))

        serve_round()
        engine.insert(np.full(D, 0.97))
        serve_round()
        engine.delete(engine.topk(hot[0], 8).ids[0])
        serve_round()
        assert "computed" in sources and "cache" in sources
        assert engine.cache.full_hits > 0


class TestCoalescing:
    def test_flash_crowd_coalesces(self, data):
        workload = flash_crowd_workload(
            D, 96, k=8, hot=2, duplicate_fraction=0.9, rng=5
        )
        front, outcomes = drive(fresh_engine(data), workload, concurrency=48)
        stats = front.stats
        assert stats.coalesced_served > 0
        assert stats.engine_requests < stats.reads_served
        assert stats.fan_in_ratio > 1.0
        assert (
            stats.reads_served
            == stats.engine_requests + stats.coalesced_served
        )

    def test_identical_burst_coalesces_to_one_engine_request(
        self, data, monkeypatch
    ):
        """A simultaneous burst of one weight vector is one engine call:
        all admissions land in the ingress queue before the dispatcher's
        batch resumes, so the duplicates attach to the first leader and
        take its scores as is — the engine scores the answer once and
        nothing re-scores it, per follower or at the front door."""
        engine = fresh_engine(data)
        served = []
        serve = engine._serve

        def counting(*args, **kwargs):
            served.append(serve(*args, **kwargs))
            return served[-1]

        monkeypatch.setattr(engine, "_serve", counting)
        w = np.full(D, 1.0 / D)

        async def burst():
            async with ServeFront(engine) as front:
                responses = await asyncio.gather(
                    *(front.topk(w, k=8) for _ in range(16))
                )
                return front, responses

        front, responses = asyncio.run(burst())
        assert front.stats.engine_requests == 1
        assert front.stats.coalesced_served == 15
        leader = [r for r in responses if r.via == "engine"]
        followers = [r for r in responses if r.via == "coalesced"]
        assert len(leader) == 1 and len(followers) == 15
        for resp in followers:
            assert resp.ids == leader[0].ids
            assert resp.scores == leader[0].scores
            assert resp.pages_read == 0
            assert resp.source.startswith("coalesced:")
        assert len(served) == 1
        assert all(r.scores is served[0].scores for r in responses)

    def test_queued_reads_drain_into_one_batch(self, data, monkeypatch):
        """Reads already queued when the dispatcher resumes become one
        micro-batch in one pass: taken without awaiting the queue per
        read, and handed to the engine as a single ``topk_batch``."""
        waits = []
        wait_for = asyncio.wait_for

        def counting_wait_for(*args, **kwargs):
            waits.append(1)
            return wait_for(*args, **kwargs)

        monkeypatch.setattr("repro.serve.front.asyncio.wait_for", counting_wait_for)
        engine = fresh_engine(data)
        batches = []
        topk_batch = engine.topk_batch

        def recording(requests):
            batches.append(len(requests))
            return topk_batch(requests)

        monkeypatch.setattr(engine, "topk_batch", recording)
        rng = np.random.default_rng(3)
        vectors = rng.random((32, D)) + 0.05

        async def backlog():
            async with ServeFront(engine, ServeConfig(batch_max=32)) as front:
                return await asyncio.gather(
                    *(front.topk(w, k=4) for w in vectors)
                )

        responses = asyncio.run(backlog())
        assert [r.via for r in responses] == ["engine"] * 32
        assert batches == [32]
        assert len(waits) <= 1

    def test_front_door_times_service(self, data, monkeypatch):
        """The front door's time is its spans': every read and the write
        record one ``serve.queue_wait`` under their request, the 16
        leaders one ``serve.hit_batch`` over the loop's hit-prefix call
        (which serves none of these misses) and one ``serve.engine_batch``
        over the bridge's batch call, the 16 coalesced followers no
        engine span, the write one ``serve.engine_write``; no queue wait
        is longer than what the client measured around its await."""
        engine = fresh_engine(data)
        batches = []
        topk_batch = engine.topk_batch

        def recording(requests):
            batches.append(len(requests))
            return topk_batch(requests)

        monkeypatch.setattr(engine, "topk_batch", recording)
        rng = np.random.default_rng(3)
        vectors = rng.random((16, D)) + 0.05

        async def timed(call):
            t0 = time.perf_counter()
            result = await call
            return result, t0, time.perf_counter()

        async def backlog():
            async with ServeFront(engine, ServeConfig(batch_max=32)) as front:
                reads = await asyncio.gather(
                    *(timed(front.topk(w, k=4)) for w in (*vectors, *vectors))
                )
                return [*reads, await timed(front.insert(np.full(D, 0.5)))]

        obs.reset_collector()
        obs.enable()
        try:
            ops = asyncio.run(backlog())
        finally:
            obs.disable()
        spans = obs.drain()
        obs.reset_collector()
        assert batches == [16]
        vias = [r.via for r, _, _ in ops[:-1]]
        assert vias.count("engine") == 16 and vias.count("coalesced") == 16

        def named(name):
            return [s for s in spans if s.name == name]

        # Requests in admission order: the clients' order, the write last.
        roots = sorted(named("serve.request"), key=lambda s: s.t0_us)
        assert [s.attrs["kind"] for s in roots] == ["read"] * 32 + ["insert"]
        waits = {s.parent_id: s for s in named("serve.queue_wait")}
        assert len(waits) == len(named("serve.queue_wait")) == 33
        for root, (_, t0, t1) in zip(roots, ops):
            wait = waits[root.span_id]
            assert wait.t0_us >= t0 * 1e6
            assert wait.dur_us <= (t1 - t0) * 1e6
        (on_loop,) = named("serve.hit_batch")
        assert on_loop.attrs["n"] == 16
        (bridged,) = named("serve.engine_batch")
        assert bridged.attrs["n"] == 16
        (topk_batch,) = named("engine.topk_batch")
        assert topk_batch.parent_id == bridged.span_id
        assert len(named("engine.serve")) == 16
        (write,) = named("serve.engine_write")
        assert write.attrs["kind"] == "insert"
        assert len(named("engine.insert")) == 1

    def test_near_duplicate_is_its_own_engine_request(self, data):
        """Single flight is by exact bytes: a vector 1e-9 away from an
        in-flight one is a different request and gets its own engine
        pass, however close it is."""
        w = np.full(D, 1.0 / D)
        near = w.copy()
        near[0] += 1e-9

        async def burst():
            async with ServeFront(fresh_engine(data)) as front:
                responses = await asyncio.gather(
                    front.topk(w, k=8), front.topk(near, k=8)
                )
                return front, responses

        front, responses = asyncio.run(burst())
        assert [r.via for r in responses] == ["engine", "engine"]
        assert front.stats.engine_requests == 2
        assert front.stats.coalesce_attached == 0
        assert front.stats.accounting_ok()

    def test_coalesced_answers_equal_direct_answers(self, data):
        """Every coalesced response must byte-match what the same request
        served directly (no batching, no coalescing) returns."""
        workload = flash_crowd_workload(D, 60, k=8, rng=6)
        front, outcomes = drive(fresh_engine(data), workload)
        direct = fresh_engine(data)
        for resp in outcomes:
            assert isinstance(resp, ServeResponse)

            async def one(weights=resp.weights, k=resp.k):
                async with ServeFront(direct, ServeConfig(batch_max=1)) as f:
                    return await f.topk(weights, k)

            ref = asyncio.run(one())
            assert resp.ids == ref.ids
            assert resp.scores == ref.scores


class TestBackpressure:
    def test_overload_sheds_with_exact_accounting(self, data):
        workload = flash_crowd_workload(D, 80, k=8, rng=7)
        front, outcomes = drive(
            fresh_engine(data),
            workload,
            ServeConfig(max_pending=4),
            concurrency=64,
        )
        stats = front.stats
        assert stats.shed > 0
        assert stats.arrivals == len(list(workload))
        assert stats.arrivals == stats.admitted + stats.rejected + stats.shed
        assert stats.accounting_ok()
        sheds = [o for o in outcomes if isinstance(o, Overloaded)]
        assert len(sheds) == stats.shed
        err = sheds[0].to_dict()
        assert err["error"] == "overloaded"
        assert err["max_pending"] == 4
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]

    def test_admitted_work_still_completes_under_shedding(self, data):
        workload = flash_crowd_workload(D, 40, k=8, rng=8)
        front, outcomes = drive(
            fresh_engine(data),
            workload,
            ServeConfig(max_pending=2),
            concurrency=40,
        )
        served = [o for o in outcomes if isinstance(o, ServeResponse)]
        assert len(served) == front.stats.reads_served
        assert all(len(r.ids) == 8 for r in served)


class TestAdmission:
    def run_front(self, data, coro_factory):
        async def go():
            async with ServeFront(fresh_engine(data)) as front:
                return await coro_factory(front)

        return asyncio.run(go())

    def test_rejects_nan_weights(self, data):
        w = np.full(D, np.nan)
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.topk(w, k=5))

    def test_rejects_wrong_dimension(self, data):
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.topk(np.ones(D + 2) / 5, k=5))

    @pytest.mark.parametrize("k", [0, -1, 2.5, True, np.int64(0), np.bool_(True)])
    def test_rejects_bad_k(self, data, k):
        w = np.full(D, 1.0 / D)
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.topk(w, k=k))

    def test_numpy_integer_k_is_served(self, data):
        """The front door keeps the engine's ``k`` rule: a numpy integer
        is a valid ``k`` and is answered as the plain int is."""
        w = np.full(D, 1.0 / D)

        async def go(front):
            return await front.topk(w, k=np.int64(5)), await front.topk(w, k=5)

        as_numpy, as_int = self.run_front(data, go)
        assert type(as_numpy.k) is int and as_numpy.k == 5
        assert as_numpy.ids == as_int.ids
        assert as_numpy.scores == as_int.scores

    def test_numpy_integer_rid_is_deleted(self, data):
        served = self.run_front(data, lambda f: f.delete(np.int64(3)))
        assert served.kind == "delete"
        assert type(served.rid) is int and served.rid == 3

    @pytest.mark.parametrize("rid", [True, np.bool_(True), 2.0, "3"])
    def test_rejects_bad_rid(self, data, rid):
        with pytest.raises(Rejected, match="rid must be"):
            self.run_front(data, lambda f: f.delete(rid))

    def test_rejects_bad_insert_and_delete(self, data):
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.insert(np.full(D, np.inf)))
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.delete(-3))

    def test_read_keeps_its_vector_when_the_caller_reuses_the_buffer(self, data):
        """Admission copies the caller's vector once: a client that reuses
        its buffer after ``topk()`` admitted the read is still served the
        vector it sent, and the engine request, the response and the log
        entry share that one frozen copy."""
        a, b = np.array([0.9, 0.05, 0.05]), np.array([0.05, 0.05, 0.9])
        direct = fresh_engine(data)
        want = direct.topk(a, 5).ids
        assert want != direct.topk(b, 5).ids

        async def go():
            async with ServeFront(fresh_engine(data)) as front:
                buf = a.copy()
                read = asyncio.ensure_future(front.topk(buf, 5))
                await asyncio.sleep(0)  # admitted, not yet dispatched
                assert front.stats.admitted == 1
                buf[:] = b
                return front, await read

        front, resp = asyncio.run(go())
        assert resp.ids == want
        assert np.array_equal(resp.weights, a)
        assert resp.weights is front.log[0].weights
        assert not resp.weights.flags.writeable

    def test_insert_keeps_its_point_when_the_caller_reuses_the_buffer(self, data):
        p, q = np.array([0.3, 0.2, 0.4]), np.array([0.7, 0.8, 0.6])
        engine = fresh_engine(data)

        async def go():
            async with ServeFront(engine) as front:
                buf = p.copy()
                write = asyncio.ensure_future(front.insert(buf))
                await asyncio.sleep(0)  # admitted, not yet applied
                assert front.stats.admitted == 1
                buf[:] = q
                return front, await write

        front, served = asyncio.run(go())
        assert np.array_equal(engine.points[served.rid], p)
        assert np.array_equal(front.log[0].point, p)

    def test_rejections_are_counted_not_served(self, data):
        async def go(front):
            try:
                await front.topk(np.full(D, np.nan), k=5)
            except Rejected:
                pass
            await front.topk(np.full(D, 1.0 / D), k=5)
            return front.stats

        stats = self.run_front(data, go)
        assert stats.rejected == 1
        assert stats.reads_served == 1
        assert stats.accounting_ok()

    def test_oversized_k_fails_alone_in_its_micro_batch(self):
        """``k`` above the live count passes admission (the count moves
        with writes, so only the engine thread can judge it). It used to
        raise out of the shared ``topk_batch`` call — failing all six
        co-batched reads and leaving ``engine_requests`` charged for a
        batch that served nothing."""
        small = make_synthetic("IND", 50, D, seed=3)
        rng = np.random.default_rng(5)
        ks = [5, 5, 60, 5, 5, 5]

        async def go():
            config = ServeConfig(batch_window_ms=50.0)
            async with ServeFront(fresh_engine(small), config) as front:
                results = await asyncio.gather(
                    *(front.topk(rng.random(D) + 0.1, k) for k in ks),
                    return_exceptions=True,
                )
            return front, results

        front, results = asyncio.run(go())
        assert front.stats.engine_batch_calls == 1  # they did share a batch
        bad = results.pop(2)
        assert isinstance(bad, Rejected)
        assert bad.to_dict() == {
            "error": "rejected",
            "message": "k=60 exceeds live record count 50",
            "k": 60,
            "n_live": 50,
        }
        assert all(isinstance(r, ServeResponse) for r in results)
        assert [len(r.ids) for r in results] == [5] * 5
        stats = front.stats
        assert (stats.errors, stats.reads_served) == (1, 5)
        assert stats.engine_requests == 5
        assert stats.accounting_ok()

    def test_follower_of_an_oversized_leader_is_still_served(self):
        """A smaller-``k`` read of an oversized read's vector is a
        different request: it leads its own engine request in the same
        batch and is served while the oversized one fails alone."""
        small = make_synthetic("IND", 50, D, seed=3)
        w = np.full(D, 1.0 / D)

        async def go():
            config = ServeConfig(batch_window_ms=50.0)
            async with ServeFront(fresh_engine(small), config) as front:
                results = await asyncio.gather(
                    front.topk(w, 60), front.topk(w, 5),
                    return_exceptions=True,
                )
            return front, results

        front, (leader, follower) = asyncio.run(go())
        assert isinstance(leader, Rejected)
        assert isinstance(follower, ServeResponse) and len(follower.ids) == 5
        assert follower.via == "engine"
        assert front.stats.engine_batch_calls == 1
        assert front.stats.coalesce_attached == 0
        assert front.stats.accounting_ok()

    def test_duplicate_of_an_oversized_leader_gets_its_error(self):
        """An exact duplicate takes its leader's outcome, errors
        included: two identical oversized reads are one engine request
        and two equal ``Rejected``, with no second batch call."""
        small = make_synthetic("IND", 50, D, seed=3)
        w = np.full(D, 1.0 / D)

        async def go():
            config = ServeConfig(batch_window_ms=50.0)
            async with ServeFront(fresh_engine(small), config) as front:
                results = await asyncio.gather(
                    front.topk(w, 60), front.topk(w, 60),
                    return_exceptions=True,
                )
            return front, results

        front, (leader, follower) = asyncio.run(go())
        assert isinstance(leader, Rejected) and isinstance(follower, Rejected)
        assert leader.to_dict() == follower.to_dict()
        stats = front.stats
        assert stats.engine_batch_calls == 1
        assert stats.coalesce_attached == 1
        assert stats.errors == 2
        assert stats.accounting_ok()

    def test_whole_batch_engine_failure_keeps_the_identities(self, data):
        """An exception out of ``topk_batch`` itself errors every read of
        the batch — and none of them may stay charged as an engine
        request."""
        engine = fresh_engine(data)

        def boom(requests):
            raise RuntimeError("engine fell over")

        engine.topk_batch = boom

        async def go():
            async with ServeFront(engine) as front:
                results = await asyncio.gather(
                    *(front.topk(np.full(D, 0.2 + 0.1 * i), 5) for i in range(4)),
                    return_exceptions=True,
                )
            return front, results

        front, results = asyncio.run(go())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert (front.stats.errors, front.stats.engine_requests) == (4, 0)
        assert front.stats.accounting_ok()

    def test_structured_error_shape(self):
        err = Rejected("bad weights", d=3).to_dict()
        assert err == {"error": "rejected", "message": "bad weights", "d": 3}

    def test_closed_front_rejects(self, data):
        engine = fresh_engine(data)

        async def go():
            front = ServeFront(engine)
            await front.start()
            await front.close()
            with pytest.raises(Rejected):
                await front.topk(np.full(D, 1.0 / D), k=5)

        asyncio.run(go())


def warm_engine(data, vectors, k=5) -> GIREngine:
    """A fresh engine whose cache already holds each vector's region
    (vectors inside the unit box, where cached regions live)."""
    engine = fresh_engine(data)
    engine.topk_batch([Request(w, k) for w in vectors])
    return engine


def outside_cache(engine, rng) -> np.ndarray:
    """A vector no cached region contains: a read of it is a miss."""
    while True:
        w = rng.random(D) + 0.05
        if not any(gir.contains(w) for _, gir in engine.cache.items()):
            return w


async def until(condition, timeout_s=10.0) -> None:
    """Poll ``condition`` on the loop until it holds; fail after the
    timeout instead of hanging."""
    deadline = time.perf_counter() + timeout_s
    while not condition():
        assert time.perf_counter() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestInlineHits:
    """The dispatcher serves a batch's leading full cache hits itself
    (``serve_hits``) and sends only the rest across the bridge; it awaits
    that bridge call before it takes the next operation."""

    def test_hit_only_batch_never_reaches_the_executor(self, data, monkeypatch):
        hot = np.random.default_rng(21).random((8, D)) * 0.8 + 0.1
        engine = warm_engine(data, hot)
        threads = []
        serve_hits = engine.serve_hits

        def recording(requests):
            threads.append(threading.get_ident())
            return serve_hits(requests)

        monkeypatch.setattr(engine, "serve_hits", recording)
        submitted = []

        async def go():
            async with ServeFront(engine) as front:
                submit = front._pool.submit

                def counting(fn, *args, **kwargs):
                    submitted.append(fn)
                    return submit(fn, *args, **kwargs)

                monkeypatch.setattr(front._pool, "submit", counting)
                responses = await asyncio.gather(
                    *(front.topk(w, 5) for w in (*hot, *hot))
                )
            return front, responses

        front, responses = asyncio.run(go())
        assert submitted == []
        assert threads == [threading.get_ident()]  # the loop's own thread
        leaders = [r for r in responses if r.via == "engine"]
        assert [r.source for r in leaders] == ["cache"] * 8
        assert all(r.pages_read == 0 for r in leaders)
        stats = front.stats
        assert (stats.engine_batch_calls, stats.engine_requests) == (1, 8)
        assert stats.coalesced_served == 8
        assert stats.accounting_ok()
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]

    def test_reads_admitted_during_a_bridge_call_wait_then_hit_inline(
        self, data, monkeypatch
    ):
        """Reads admitted while a miss batch is on the bridge stay queued
        until it returns; then they are one batch, and its leading hits
        are one ``serve_hits`` call on the loop."""
        rng = np.random.default_rng(22)
        hot = rng.random((4, D)) * 0.8 + 0.1
        engine = warm_engine(data, hot)
        cold = outside_cache(engine, rng)
        entered, release = threading.Event(), threading.Event()
        bridged, inline = [], []
        topk_batch, serve_hits = engine.topk_batch, engine.serve_hits

        def blocking(requests):
            bridged.append(len(requests))
            entered.set()
            release.wait(10)
            return topk_batch(requests)

        def recording(requests):
            inline.append(len(requests))
            return serve_hits(requests)

        monkeypatch.setattr(engine, "topk_batch", blocking)
        monkeypatch.setattr(engine, "serve_hits", recording)

        async def go():
            async with ServeFront(engine) as front:
                miss = asyncio.ensure_future(front.topk(cold, 5))
                await until(entered.is_set)
                hits = [asyncio.ensure_future(front.topk(w, 5)) for w in hot]
                await until(lambda: front._queue.qsize() == 4)
                await asyncio.sleep(0.05)
                waiting = (
                    front._queue.qsize(),
                    front.stats.engine_batch_calls,
                    any(h.done() for h in hits),
                )
                release.set()
                return front, waiting, await miss, await asyncio.gather(*hits)

        front, waiting, miss, hits = asyncio.run(go())
        assert waiting == (4, 1, False)
        assert bridged == [1]
        assert inline == [1, 4]
        assert miss.source == "computed"
        assert [r.source for r in hits] == ["cache"] * 4
        assert front.stats.engine_batch_calls == 2
        assert front.stats.accounting_ok()
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]

    def test_write_admitted_during_a_read_batch_is_logged_between(
        self, data, monkeypatch
    ):
        """A write admitted while a read batch is on the bridge is applied
        and logged after every read of that batch and before any read
        admitted after it: the dispatcher's order is the fence."""
        rng = np.random.default_rng(24)
        hot = rng.random((3, D)) * 0.8 + 0.1
        engine = warm_engine(data, hot)
        cold = outside_cache(engine, rng)
        entered, release = threading.Event(), threading.Event()
        calls = []
        topk_batch, insert = engine.topk_batch, engine.insert

        def blocking(requests):
            calls.append("topk_batch")
            entered.set()
            release.wait(10)
            return topk_batch(requests)

        def recording(point):
            calls.append("insert")
            return insert(point)

        monkeypatch.setattr(engine, "topk_batch", blocking)
        monkeypatch.setattr(engine, "insert", recording)

        async def go():
            async with ServeFront(engine) as front:
                before = [
                    asyncio.ensure_future(front.topk(w, 5))
                    for w in (cold, *hot)
                ]
                await until(entered.is_set)
                write = asyncio.ensure_future(front.insert(np.full(D, 0.5)))
                await until(lambda: front.stats.admitted == 5)
                after = [asyncio.ensure_future(front.topk(w, 5)) for w in hot]
                await until(lambda: front.stats.admitted == 8)
                assert calls == ["topk_batch"]
                release.set()
                return (
                    front,
                    await asyncio.gather(*before),
                    await write,
                    await asyncio.gather(*after),
                )

        front, before, write, after = asyncio.run(go())
        assert calls == ["topk_batch", "insert"]
        assert [type(e).__name__ for e in front.log] == (
            ["ReadLog"] * 4 + ["InsertLog"] + ["ReadLog"] * 3
        )
        assert [r.source for r in before] == ["computed"] + ["cache"] * 3
        assert front.log[4].rid == write.rid
        assert front.stats.fences == 1
        assert front.stats.accounting_ok()
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]

    def test_inline_engine_error_fails_its_batch_alone(self, data, monkeypatch):
        hot = np.random.default_rng(23).random((4, D)) * 0.8 + 0.1
        engine = warm_engine(data, hot)
        calls = []
        serve_hits = engine.serve_hits

        def failing_once(requests):
            calls.append(len(requests))
            if len(calls) == 1:
                raise RuntimeError("hit path fell over")
            return serve_hits(requests)

        monkeypatch.setattr(engine, "serve_hits", failing_once)

        async def go():
            async with ServeFront(engine) as front:
                failed = await asyncio.gather(
                    *(front.topk(w, 5) for w in hot), return_exceptions=True
                )
                assert front.stats.accounting_ok()
                after = await asyncio.gather(*(front.topk(w, 5) for w in hot))
            return front, failed, after

        front, failed, after = asyncio.run(go())
        assert calls == [4, 4]
        assert all(isinstance(r, RuntimeError) for r in failed)
        assert [r.source for r in after] == ["cache"] * 4
        stats = front.stats
        assert (stats.errors, stats.engine_requests, stats.reads_served) == (4, 4, 4)
        assert stats.engine_batch_calls == 2
        assert stats.accounting_ok()


class TestReportAndStats:
    def test_report_dict_carries_service_stats(self, data):
        """``ServeStats.to_dict()`` carries every counter the perf ledger
        reads (``benchmarks/ledger/driver.py`` and ``layers.py``)."""
        workload = flash_crowd_workload(D, 48, k=8, rng=9)
        front, _ = drive(fresh_engine(data), workload)
        payload = front.stats.to_dict()
        for key in (
            "arrivals",
            "shed",
            "fan_in_ratio",
            "queue_depth_peak",
            "reads_served",
            "engine_requests",
            "engine_batch_calls",
            "coalesce_attached",
            "coalesce_fallbacks",
            "fences",
        ):
            assert key in payload, key
        # Nothing falls back; the key stays for the perf ledger
        # (benchmarks/ledger/layers.py), which reads it.
        assert payload["coalesce_fallbacks"] == 0
        assert payload["reads_served"] == front.stats.reads_served == 48

    @pytest.mark.parametrize(
        "identity, field",
        [("admission", "shed"), ("completion", "errors"), ("provenance", "coalesced_served")],
    )
    def test_accounting_ok_detects_each_broken_identity(self, identity, field):
        """Each identity, broken alone by one extra count on its right-hand
        side, makes ``accounting_ok()`` read False."""
        stats = ServeStats(
            arrivals=10, admitted=8, rejected=1, shed=1,
            reads_served=6, writes_applied=1, errors=1,
            engine_requests=4, coalesced_served=2,
        )
        assert stats.accounting_ok() and stats.to_dict()["accounting_ok"]
        setattr(stats, field, getattr(stats, field) + 1)
        assert not stats.accounting_ok(), identity
        assert stats.to_dict()["accounting_ok"] is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_window_ms=-1.0)


class TestFlashCrowdWorkload:
    def test_shape_and_kind(self):
        workload = flash_crowd_workload(D, 100, k=7, rng=0)
        ops = list(workload)
        assert workload.kind == "flash_crowd"
        assert len(ops) == 100
        assert all(isinstance(op, Request) and op.k == 7 for op in ops)
        assert all(op.weights.shape == (D,) for op in ops)

    def test_bursts_contain_exact_duplicates(self):
        workload = flash_crowd_workload(
            D, 200, hot=2, duplicate_fraction=0.9, rng=1
        )
        keys = [op.weights.tobytes() for op in workload]
        repeats = len(keys) - len(set(keys))
        assert repeats > len(keys) // 4

    def test_deterministic_under_seed(self):
        a = [op.weights.tobytes() for op in flash_crowd_workload(D, 50, rng=2)]
        b = [op.weights.tobytes() for op in flash_crowd_workload(D, 50, rng=2)]
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hot": 0},
            {"burst_len": 0},
            {"duplicate_fraction": 1.5},
            {"background_fraction": -0.1},
            {"spread": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            flash_crowd_workload(D, 10, **kwargs)


class TestRunnerValidation:
    def test_handles_explicit_op_lists(self, data):
        ops = [
            Request(weights=np.full(D, 1.0 / D), k=5),
            InsertOp(point=np.full(D, 0.5)),
            DeleteOp(rid=0),
            Request(weights=np.full(D, 1.0 / D), k=5),
        ]
        front, outcomes = drive(fresh_engine(data), ops, concurrency=1)
        assert [type(o).__name__ for o in outcomes] == [
            "ServeResponse", "UpdateResponse", "UpdateResponse", "ServeResponse",
        ]
        assert front.stats.writes_applied == 2
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
