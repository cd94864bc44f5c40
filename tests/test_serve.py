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

import numpy as np
import pytest

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
    replay_serial_check,
    run_serve_workload,
)

D = 3
N = 400


@pytest.fixture(scope="module")
def data():
    return make_synthetic("IND", N, D, seed=7)


def fresh_engine(data) -> GIREngine:
    return GIREngine(data, bulk_load_str(data), cache_capacity=64)


def drive(engine, workload, config=None, concurrency=24):
    """Run a workload through a fresh front door; return (front, report)."""

    async def go():
        front = ServeFront(engine, config)
        async with front:
            report = await run_serve_workload(front, workload, concurrency)
        return front, report

    return asyncio.run(go())


class TestServeEquivalence:
    """Byte-identity of every serving path against sequential replay."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flash_crowd_interleaving_matches_sequential(self, data, seed):
        workload = flash_crowd_workload(D, 80, k=8, rng=seed)
        front, report = drive(fresh_engine(data), workload)
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
        assert verdict["requests"] == front.stats.reads_served
        assert front.stats.accounting_ok()

    @pytest.mark.parametrize(
        "config",
        [
            ServeConfig(),  # batched + coalesced (the default path)
            ServeConfig(coalesce=False),  # batched only
            ServeConfig(batch_max=1, coalesce=False),  # direct
            ServeConfig(batch_window_ms=0.1, batch_max=4),  # tiny batches
            ServeConfig(max_inflight_batches=1),  # fully serialized jobs
        ],
        ids=["default", "no-coalesce", "direct", "tiny-batch", "one-job"],
    )
    def test_every_serving_mode_matches_sequential(self, data, config):
        workload = flash_crowd_workload(D, 60, k=8, rng=3)
        front, report = drive(fresh_engine(data), workload, config)
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
        assert front.stats.accounting_ok()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_across_insert_delete_fences(self, data, seed):
        workload = mixed_workload(
            D, 70, base_n=N, k=8, update_fraction=0.3, rng=seed
        )
        front, report = drive(fresh_engine(data), workload)
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
            front, report = drive(cluster, workload)
            verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]


class TestCoalescing:
    def test_flash_crowd_coalesces(self, data):
        workload = flash_crowd_workload(
            D, 96, k=8, hot=2, duplicate_fraction=0.9, rng=5
        )
        front, report = drive(fresh_engine(data), workload, concurrency=48)
        stats = front.stats
        assert stats.coalesced_served > 0
        assert stats.engine_requests < stats.reads_served
        assert stats.fan_in_ratio > 1.0
        assert (
            stats.reads_served
            == stats.engine_requests + stats.coalesced_served
        )

    def test_identical_burst_coalesces_to_one_engine_request(self, data):
        """A simultaneous burst of one weight vector is one engine call:
        all admissions land in the ingress queue before the dispatcher's
        batch resumes, so the duplicates attach to the first leader."""
        engine = fresh_engine(data)
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

    def test_coalesced_answers_equal_direct_answers(self, data):
        """Every coalesced response must byte-match what the same request
        served directly (no batching, no coalescing) returns."""
        workload = flash_crowd_workload(D, 60, k=8, rng=6)
        front, report = drive(fresh_engine(data), workload)
        direct = fresh_engine(data)
        for resp in report.outcomes:
            assert isinstance(resp, ServeResponse)

            async def one(weights=resp.weights, k=resp.k):
                async with ServeFront(
                    direct, ServeConfig(batch_max=1, coalesce=False)
                ) as f:
                    return await f.topk(weights, k)

            ref = asyncio.run(one())
            assert resp.ids == ref.ids
            assert resp.scores == ref.scores


class TestBackpressure:
    def test_overload_sheds_with_exact_accounting(self, data):
        workload = flash_crowd_workload(D, 80, k=8, rng=7)
        front, report = drive(
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
        sheds = [o for o in report.outcomes if isinstance(o, Overloaded)]
        assert len(sheds) == stats.shed
        err = sheds[0].to_dict()
        assert err["error"] == "overloaded"
        assert err["max_pending"] == 4
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]

    def test_admitted_work_still_completes_under_shedding(self, data):
        workload = flash_crowd_workload(D, 40, k=8, rng=8)
        front, report = drive(
            fresh_engine(data),
            workload,
            ServeConfig(max_pending=2),
            concurrency=40,
        )
        served = [o for o in report.outcomes if isinstance(o, ServeResponse)]
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

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_rejects_bad_k(self, data, k):
        w = np.full(D, 1.0 / D)
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.topk(w, k=k))

    def test_rejects_bad_insert_and_delete(self, data):
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.insert(np.full(D, np.inf)))
        with pytest.raises(Rejected):
            self.run_front(data, lambda f: f.delete(-3))

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
            config = ServeConfig(batch_window_ms=50.0, coalesce=False)
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
        """A valid read may attach to an in-flight leader that asks for
        more than the engine holds; when the leader fails, the follower
        re-enters the queue instead of inheriting the error."""
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
        assert front.stats.coalesce_fallbacks == 1
        assert front.stats.accounting_ok()

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


class TestReportAndStats:
    def test_report_dict_carries_service_stats(self, data):
        workload = flash_crowd_workload(D, 48, k=8, rng=9)
        front, report = drive(fresh_engine(data), workload)
        payload = report.to_dict()
        for key in (
            "arrivals",
            "shed",
            "fan_in_ratio",
            "queue_depth_peak",
            "wait_p50_ms",
            "service_p95_ms",
            "coalesce_fallbacks",
            "throughput_rps",
        ):
            assert key in payload, key
        assert payload["workload_kind"] == "flash_crowd"
        assert payload["reads_served"] == front.stats.reads_served

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(coalesce_radius=-0.1)


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
    def test_rejects_nonpositive_concurrency(self, data):
        async def go():
            async with ServeFront(fresh_engine(data)) as front:
                await run_serve_workload(front, [], concurrency=0)

        with pytest.raises(ValueError):
            asyncio.run(go())

    def test_handles_explicit_op_lists(self, data):
        ops = [
            Request(weights=np.full(D, 1.0 / D), k=5),
            InsertOp(point=np.full(D, 0.5)),
            DeleteOp(rid=0),
            Request(weights=np.full(D, 1.0 / D), k=5),
        ]
        front, report = drive(fresh_engine(data), ops, concurrency=1)
        assert report.workload_kind == "custom"
        assert front.stats.writes_applied == 2
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
