"""Tests for the dynamic GIREngine: updates, selective invalidation and
mixed workloads."""

import numpy as np
import pytest

from repro.data.dataset import PointTable
from repro.data.synthetic import independent, make_synthetic
from repro.engine import (
    DeleteOp,
    GIREngine,
    InsertOp,
    Request,
    mixed_workload,
)
from repro.index.bulkload import bulk_load_str
from repro.query.brs import brs_topk
from repro.query.linear_scan import scan_topk
from tests.conftest import random_query, run_serial


@pytest.fixture()
def dyn_setup():
    data = independent(900, 3, seed=51)
    return data, bulk_load_str(data)


def live_truth(engine, weights, k):
    return scan_topk(
        engine.points, weights, k, scorer=engine.scorer, live=engine.table.live_mask
    )


class TestPointTable:
    def test_insert_assigns_sequential_rids(self):
        table = PointTable(np.full((3, 2), 0.5))
        assert table.insert(np.array([0.1, 0.2])) == 3
        assert table.insert(np.array([0.3, 0.4])) == 4
        assert table.n_allocated == 5 and table.n_live == 5
        assert np.allclose(table.point(4), [0.3, 0.4])

    def test_delete_tombstones_without_renumbering(self):
        table = PointTable(np.full((4, 2), 0.5))
        got = table.delete(1)
        assert np.allclose(got, [0.5, 0.5])
        assert not table.is_live(1) and table.n_live == 3
        assert table.n_allocated == 4  # rids stable
        assert sorted(table.live_ids()) == [0, 2, 3]
        with pytest.raises(KeyError):
            table.delete(1)  # already dead
        with pytest.raises(KeyError):
            table.delete(99)

    def test_growth_preserves_rows(self):
        rng = np.random.default_rng(3)
        initial = rng.random((5, 3))
        table = PointTable(initial)
        added = [rng.random(3) for _ in range(40)]
        for p in added:
            table.insert(p)
        assert np.allclose(table.rows[:5], initial)
        assert np.allclose(table.rows[5:], np.stack(added))

    def test_rows_view_is_read_only(self):
        table = PointTable(np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            table.rows[0, 0] = 0.9

    def test_rejects_out_of_cube_points(self):
        table = PointTable(np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            table.insert(np.array([1.5, 0.5]))


class TestDynamicCorrectness:
    @pytest.mark.parametrize(
        "family,invalidation", [("IND", "gir"), ("COR", "gir"), ("COR", "flush")]
    )
    def test_interleaved_updates_match_live_scan(self, family, invalidation):
        """After every update, served answers equal exhaustive linear-scan
        ground truth over the live records — whether they came from cache
        or a fresh pipeline — under either invalidation policy and on
        correlated data as well as independent. Each step draws its own
        k and often repeats an earlier vector, so deeper-k requests land
        inside shallower cached regions (and must be served as misses)."""
        data = make_synthetic(family, 900, 3, seed=51)
        engine = GIREngine(
            data, bulk_load_str(data), cache_capacity=24, invalidation=invalidation
        )
        rng = np.random.default_rng(8)
        asked = []
        for step in range(50):
            r = rng.random()
            if r < 0.25:
                engine.insert(rng.random(3))
            elif r < 0.40:
                live = engine.table.live_ids()
                engine.delete(int(rng.choice(live)))
            if asked and rng.random() < 0.5:
                q = asked[rng.integers(len(asked))]
            else:
                q = random_query(rng, 3)
                asked.append(q)
            k = int(rng.choice([5, 10, 20]))
            resp = engine.topk(q, k)
            assert resp.source in ("cache", "computed")
            truth = live_truth(engine, q, k)
            assert resp.ids == truth.ids, f"step {step} ({resp.source})"
            assert np.allclose(resp.scores, truth.scores)

    def test_insert_enters_topk_immediately(self, dyn_setup):
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = np.array([0.5, 0.5, 0.5])
        engine.topk(q, 5)  # warm the cache
        upd = engine.insert(np.array([0.99, 0.99, 0.99]))  # unbeatable point
        assert upd.kind == "insert" and upd.evicted >= 1
        resp = engine.topk(q, 5)
        assert resp.ids[0] == upd.rid
        assert resp.ids == live_truth(engine, q, 5).ids

    def test_deleted_record_leaves_topk_immediately(self, dyn_setup):
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = np.array([0.6, 0.4, 0.5])
        first = engine.topk(q, 5)
        upd = engine.delete(first.ids[0])
        assert upd.kind == "delete" and upd.evicted >= 1
        resp = engine.topk(q, 5)
        assert first.ids[0] not in resp.ids
        assert resp.ids == live_truth(engine, q, 5).ids

    @pytest.mark.parametrize("rid", [True, np.bool_(True), 2.0, "3", None])
    def test_delete_rejects_malformed_rid(self, rid):
        """A rid that is not an integer is refused by name before any
        lookup; a negative or dead one is a ``KeyError`` from the table."""
        engine = GIREngine(independent(30, 2, seed=9))
        with pytest.raises(ValueError, match="rid must be an int"):
            engine.delete(rid)
        assert engine.n_live == 30 and engine.updates_applied == 0
        with pytest.raises(KeyError):
            engine.delete(-1)
        assert engine.delete(np.int64(2)).rid == 2
        with pytest.raises(KeyError):
            engine.delete(2)

    def test_topk_rejects_k_above_live_count(self):
        data = independent(30, 2, seed=9)
        engine = GIREngine(data)
        engine.delete(0)
        with pytest.raises(ValueError, match="exceeds"):
            engine.topk(np.array([0.5, 0.5]), 30)


class TestSelectiveInvalidation:
    def test_harmless_insert_keeps_cache(self, dyn_setup):
        """A new record dominated by everything cannot enter any top-k:
        no cached entry may be evicted, and serving stays a pure hit."""
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = random_query(np.random.default_rng(5), 3)
        engine.topk(q, 10)
        upd = engine.insert(np.array([0.001, 0.001, 0.001]))
        assert upd.evicted == 0 and len(engine.cache) == 1
        resp = engine.topk(q, 10)
        assert resp.source == "cache" and resp.pages_read == 0
        assert resp.ids == live_truth(engine, q, 10).ids

    def test_threatening_insert_evicts(self, dyn_setup):
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = random_query(np.random.default_rng(6), 3)
        engine.topk(q, 10)
        upd = engine.insert(np.array([0.98, 0.98, 0.98]))
        assert upd.evicted == 1 and len(engine.cache) == 0

    def test_duplicate_of_kth_record_evicts(self, dyn_setup):
        """Regression: an inserted exact duplicate of a cached entry's k-th
        record ties its score at every query vector, and the (coord-sum,
        rid) tie-break ranks the fresher rid higher — the entry must be
        evicted, not kept serving the stale k-th rid."""
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = random_query(np.random.default_rng(19), 3)
        first = engine.topk(q, 10)
        upd = engine.insert(data.points[first.ids[-1]].copy())
        assert upd.evicted == 1
        resp = engine.topk(q, 10)
        assert resp.ids == live_truth(engine, q, 10).ids
        assert resp.ids[-1] == upd.rid  # the duplicate's fresh rid wins the tie

    def test_unrelated_delete_keeps_cache(self, dyn_setup):
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = random_query(np.random.default_rng(7), 3)
        first = engine.topk(q, 10)
        outsider = next(
            rid for rid in range(data.n) if rid not in first.ids
        )
        upd = engine.delete(outsider)
        assert upd.evicted == 0 and len(engine.cache) == 1
        resp = engine.topk(q, 10)
        assert resp.source == "cache"
        assert resp.ids == live_truth(engine, q, 10).ids

    def test_result_member_delete_evicts(self, dyn_setup):
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = random_query(np.random.default_rng(8), 3)
        first = engine.topk(q, 10)
        upd = engine.delete(first.ids[4])
        assert upd.evicted == 1 and len(engine.cache) == 0

    def test_tset_member_delete_keeps_entry(self, dyn_setup):
        """A record BRS fetched but left out of the result (the paper's
        T-set) is a non-member: deleting it keeps the entry serving."""
        data, tree = dyn_setup
        engine = GIREngine(data, tree)
        q = random_query(np.random.default_rng(9), 3)
        first = engine.topk(q, 10)
        run = brs_topk(tree, engine.points, q, 10, metered=False)
        assert run.encountered.size, "test needs a non-empty T-set"
        victim = int(run.encountered[0])
        assert victim not in first.ids
        upd = engine.delete(victim)
        assert upd.evicted == 0
        resp = engine.topk(q, 10)
        assert resp.source == "cache"
        assert resp.ids == live_truth(engine, q, 10).ids

    def test_flush_policy_evicts_everything(self, dyn_setup):
        data, tree = dyn_setup
        engine = GIREngine(data, tree, invalidation="flush")
        rng = np.random.default_rng(10)
        for _ in range(3):
            engine.topk(random_query(rng, 3), 8)
        entries_before = len(engine.cache)
        assert entries_before >= 1
        upd = engine.insert(np.array([0.001, 0.001, 0.001]))
        assert upd.evicted == entries_before  # even a harmless insert flushes
        assert len(engine.cache) == 0
        assert upd.policy == "flush"

    def test_gir_evicts_fewer_than_flush_on_zipf(self):
        """The acceptance bar: on the Zipf-clustered mixed workload the
        selective policy evicts strictly fewer entries than flush-on-write."""
        data = independent(700, 3, seed=60)
        wl = mixed_workload(
            3, 80, base_n=700, k=8, update_fraction=0.25,
            rng=np.random.default_rng(61),
        )
        stats = {}
        for policy in ("gir", "flush"):
            engine = GIREngine(
                data, bulk_load_str(data), cache_capacity=32, invalidation=policy
            )
            run_serial(engine, wl)
            stats[policy] = engine.stats()
        assert stats["gir"]["update_evictions"] < stats["flush"]["update_evictions"]
        assert stats["gir"]["updates_applied"] == stats["flush"]["updates_applied"]

    def test_unknown_policy_rejected(self, dyn_setup):
        data, tree = dyn_setup
        with pytest.raises(ValueError, match="invalidation"):
            GIREngine(data, tree, invalidation="lazy")


class TestMixedWorkload:
    def test_generator_shapes_and_rid_contract(self):
        rng = np.random.default_rng(13)
        wl = mixed_workload(3, 200, base_n=500, k=6, update_fraction=0.3, rng=rng)
        assert len(wl) == 200
        assert wl.reads + wl.updates == 200
        assert 0 < wl.updates < 200
        next_rid = 500
        live = set(range(500))
        for op in wl:
            if isinstance(op, InsertOp):
                live.add(next_rid)
                next_rid += 1
            elif isinstance(op, DeleteOp):
                assert op.rid in live  # only live rids are deleted
                live.discard(op.rid)
        assert len(live) > 12  # never drained below 2k

    def test_update_fraction_roughly_respected(self):
        rng = np.random.default_rng(14)
        wl = mixed_workload(3, 1000, base_n=400, k=5, update_fraction=0.2, rng=rng)
        assert 0.12 <= wl.updates / len(wl) <= 0.30

    def test_zero_update_fraction_is_pure_reads(self):
        wl = mixed_workload(
            2, 50, base_n=100, k=5, update_fraction=0.0,
            rng=np.random.default_rng(15),
        )
        assert wl.updates == 0 and wl.reads == 50

    def test_rejects_bad_params(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="update_fraction"):
            mixed_workload(2, 10, base_n=100, update_fraction=1.0, rng=rng)
        with pytest.raises(ValueError, match="base_n"):
            mixed_workload(2, 10, base_n=10, k=10, rng=rng)
        with pytest.raises(ValueError, match="read_kind"):
            mixed_workload(2, 10, base_n=100, read_kind="bursty", rng=rng)

    def test_engine_run_reports_update_accounting(self, dyn_setup):
        data, tree = dyn_setup
        engine = GIREngine(data, tree, cache_capacity=32)
        wl = mixed_workload(
            3, 60, base_n=data.n, k=8, update_fraction=0.25,
            rng=np.random.default_rng(17),
        )
        responses, updates = run_serial(engine, wl)
        assert len(responses) == wl.reads
        assert len(updates) == wl.updates
        kinds = [u.kind for u in updates]
        assert kinds == [
            "insert" if isinstance(op, InsertOp) else "delete"
            for op in wl
            if not isinstance(op, Request)
        ]
        stats = engine.stats()
        assert stats["requests_served"] == wl.reads
        assert stats["updates_applied"] == wl.updates
        assert stats["update_evictions"] == sum(u.evicted for u in updates)


class TestFrozenArrays:
    def test_request_weights_are_copied_and_frozen(self):
        buf = np.array([0.5, 0.6])
        req = Request(weights=buf, k=5)
        buf[0] = 0.0  # caller reuses its buffer
        assert req.weights[0] == 0.5
        with pytest.raises(ValueError):
            req.weights[0] = 0.9

    def test_insert_op_point_copied(self):
        buf = np.array([0.1, 0.2])
        op = InsertOp(point=buf)
        buf[:] = 0.8
        assert np.allclose(op.point, [0.1, 0.2])

    def test_engine_response_weights_immune_to_caller_mutation(self):
        data = independent(200, 2, seed=18)
        engine = GIREngine(data)
        q = np.array([0.5, 0.6])
        resp = engine.topk(q, 5)
        q[:] = 0.0
        assert np.allclose(resp.weights, [0.5, 0.6])
        with pytest.raises(ValueError):
            resp.weights[0] = 1.0
