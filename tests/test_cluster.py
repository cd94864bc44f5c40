"""Tests for the sharded serving tier (`repro.cluster`).

The headline property: a :class:`ShardedGIREngine` — any shard count, any
partitioner, either shard backend, any read batch size — is
*observably identical* to a single :class:`GIREngine` over the
unpartitioned data: same rid sequences, same scores, on read-only and
mixed read/write workloads alike. On top of that, every cluster-level
cached region must be a sound under-approximation of the true immutable
region: re-querying anywhere inside it reproduces the cached ordered
answer against a ground-truth linear scan of the live records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    KDSplitPartitioner,
    PARTITIONERS,
    RoundRobinPartitioner,
    ShardedGIREngine,
    make_partitioner,
)
from repro.data.dataset import Dataset
from repro.data.synthetic import independent
from repro.engine import GIREngine, mixed_workload, uniform_workload, zipf_clustered_workload
from repro.index.bulkload import bulk_load_str
from repro.query.linear_scan import scan_topk
from tests.conftest import run_batched, run_serial

N, D, K = 700, 3, 6


@pytest.fixture(scope="module")
def data():
    return independent(N, D, seed=5)


@pytest.fixture(scope="module")
def workloads():
    return {
        "uniform": uniform_workload(D, 25, k=K, rng=101),
        "zipf": zipf_clustered_workload(D, 40, k=K, clusters=4, rng=102),
        "mixed": mixed_workload(
            D, 40, base_n=N, k=K, update_fraction=0.25, rng=103
        ),
    }


@pytest.fixture(scope="module")
def reference_reports(data, workloads):
    """Single-engine ``(responses, updates)``, one fresh engine per
    workload."""
    reports = {}
    for name, wl in workloads.items():
        engine = GIREngine(data, bulk_load_str(data), cache_capacity=64)
        reports[name] = run_serial(engine, wl)
    return reports


def assert_equivalent(report, reference):
    (responses, updates), (ref_responses, ref_updates) = report, reference
    assert len(responses) == len(ref_responses)
    for r, s in zip(responses, ref_responses):
        assert r.ids == s.ids
        np.testing.assert_allclose(r.scores, s.scores, rtol=0, atol=1e-12)
        assert r.k == s.k
    assert len(updates) == len(ref_updates)
    for u, v in zip(updates, ref_updates):
        assert (u.kind, u.rid) == (v.kind, v.rid)


def replay_deltas(engine, workload):
    """Replay ``workload`` on a cluster one operation at a time; return
    its responses and the replay's counter deltas, taken from the
    cluster's ``stats()`` before and after: requests served, fan-outs,
    cluster-cache hits, and each shard's page reads."""
    before = engine.stats()
    responses, _ = run_serial(engine, workload)
    after = engine.stats()
    deltas = {
        key: after[key] - before[key]
        for key in ("requests_served", "fanouts", "cluster_full_hits")
    }
    deltas["shard_pages"] = [
        a["page_reads"] - b["page_reads"]
        for b, a in zip(before["shard_stats"], after["shard_stats"])
    ]
    return responses, deltas


class TestEquivalence:
    """Sharded answers must be byte-identical to the single engine's."""

    @pytest.mark.parametrize("workload_name", ["uniform", "zipf", "mixed"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_matches_single_engine(
        self, data, workloads, reference_reports, workload_name, shards
    ):
        with ShardedGIREngine(
            data, shards=shards, partitioner="round_robin"
        ) as engine:
            report = run_serial(engine, workloads[workload_name])
        assert_equivalent(report, reference_reports[workload_name])

    @pytest.mark.parametrize("workload_name", ["zipf", "mixed"])
    def test_kd_partitioner_matches(
        self, data, workloads, reference_reports, workload_name
    ):
        with ShardedGIREngine(data, shards=4, partitioner="kd") as engine:
            report = run_serial(engine, workloads[workload_name])
        assert_equivalent(report, reference_reports[workload_name])

    @pytest.mark.parametrize("workload_name", ["zipf", "mixed"])
    def test_batched_serving_matches(
        self, data, workloads, reference_reports, workload_name
    ):
        with ShardedGIREngine(data, shards=2) as engine:
            report = run_batched(engine, workloads[workload_name])
        assert_equivalent(report, reference_reports[workload_name])

    def test_cluster_cache_disabled_matches(
        self, data, workloads, reference_reports
    ):
        with ShardedGIREngine(
            data, shards=2, cluster_cache_capacity=0
        ) as engine:
            report = run_serial(engine, workloads["zipf"])
        assert engine.cache is None
        assert engine.fanouts == len(workloads["zipf"])
        assert_equivalent(report, reference_reports["zipf"])


class TestClusterBench:
    def test_mini_benchmark_payload(self):
        """The smallest cluster grid — 1 and 2 shards, in-process and
        process backends, d=2 and 16-entry caches that evict — answers
        exactly like one engine, and shard page reads sum to the total."""
        data = independent(400, 2, seed=0)
        workload = zipf_clustered_workload(2, 12, k=4, clusters=4, rng=1)
        reference = GIREngine(data, bulk_load_str(data), cache_capacity=16)
        ref_ids = [r.ids for r in run_serial(reference, workload)[0]]
        grid = set()
        for shards in (1, 2):
            for backend in ("inproc", "process"):
                with ShardedGIREngine(
                    data,
                    shards=shards,
                    backend=backend,
                    cache_capacity=16,
                    cluster_cache_capacity=16,
                ) as engine:
                    responses, deltas = replay_deltas(engine, workload)
                    backend_name = engine.stats()["backend"]
                assert [r.ids for r in responses] == ref_ids
                assert sum(deltas["shard_pages"]) == sum(
                    r.pages_read for r in responses
                )
                assert len(deltas["shard_pages"]) == shards
                grid.add((shards, backend_name))
        assert grid == {
            (1, "inproc"),
            (1, "process"),
            (2, "inproc"),
            (2, "process"),
        }


class TestMergedRegions:
    """Every cluster-level cached region under-approximates the true
    immutable region: any vector inside it reproduces the cached answer."""

    @pytest.mark.parametrize("workload_name", ["uniform", "zipf", "mixed"])
    def test_cached_regions_sound(self, data, workloads, workload_name, rng):
        with ShardedGIREngine(data, shards=4, partitioner="kd") as engine:
            run_serial(engine, workloads[workload_name])
            assert len(engine.cache) > 0
            checked = 0
            for _key, gir in engine.cache.items():
                for q in gir.polytope.sample(2, rng):
                    if not gir.polytope.contains(q):
                        continue  # numerical edge of a thin region
                    truth = scan_topk(
                        engine.points, q, gir.topk.k, live=engine.live_mask
                    )
                    assert truth.ids == gir.topk.ids
                    checked += 1
            assert checked > 0

    def test_response_regions_sound(self, data, workloads, rng):
        """Fan-out responses carry the merged region; perturbed weights
        inside it must reproduce the response's exact ordered answer."""
        with ShardedGIREngine(data, shards=2) as engine:
            responses, _ = run_serial(engine, workloads["zipf"])
        checked = 0
        for resp in responses:
            if resp.source == "cache":
                continue
            for q in resp.region.sample(2, rng):
                if not resp.region.contains(q):
                    continue
                truth = scan_topk(np.asarray(data.points), q, resp.k)
                assert truth.ids == resp.ids[: resp.k]
                checked += 1
        assert checked > 0


class TestAccounting:
    def test_shard_pages_sum_to_cluster_total(self, data, workloads):
        """Per-shard page reads sum to the pages the responses cost, and
        fan-outs plus cluster-cache hits account for every request, on
        both backends."""
        wl = workloads["zipf"]
        for backend in ("inproc", "process"):
            with ShardedGIREngine(data, shards=4, backend=backend) as engine:
                responses, deltas = replay_deltas(engine, wl)
                assert engine.stats()["shards"] == 4
            pages = sum(r.pages_read for r in responses)
            assert sum(deltas["shard_pages"]) == pages, backend
            assert len(deltas["shard_pages"]) == 4
            assert deltas["requests_served"] == len(wl), backend
            assert (
                deltas["fanouts"] + deltas["cluster_full_hits"] == len(wl)
            ), backend

    def test_reused_engine_reports_per_run_deltas(self, data, workloads):
        """The same cluster serves two workloads in a row, and each
        replay's deltas still satisfy the per-shard-sums-to-total
        invariant, on both backends."""
        for backend in ("inproc", "process"):
            with ShardedGIREngine(data, shards=2, backend=backend) as engine:
                runs = [
                    replay_deltas(engine, workloads[name])
                    for name in ("zipf", "uniform")
                ]
            for responses, deltas in runs:
                assert sum(deltas["shard_pages"]) == sum(
                    r.pages_read for r in responses
                ), backend
                assert deltas["requests_served"] == len(responses), backend

    def test_report_dict_carries_cluster_sections(self, data, workloads):
        with ShardedGIREngine(data, shards=2) as engine:
            run_serial(engine, workloads["uniform"])
            stats = engine.stats()
        assert len(stats["shard_stats"]) == 2
        assert [s["shard"] for s in stats["shard_stats"]] == [0, 1]
        assert stats["backend"] == "inproc"
        assert stats["requests_served"] == len(workloads["uniform"])

    def test_cluster_cache_hit_is_free(self, data):
        with ShardedGIREngine(data, shards=2) as engine:
            q = np.array([0.5, 0.4, 0.7])
            first = engine.topk(q, K)
            again = engine.topk(q, K)
        assert first.source == "computed"
        assert again.source == "cache"
        assert again.pages_read == 0
        assert again.ids == first.ids
        assert engine.fanouts == 1


class TestRoutedWrites:
    def test_insert_touches_owning_shard_only(self, data):
        with ShardedGIREngine(data, shards=4) as engine:
            before = [eng.n_live for eng in engine.shards]
            resp = engine.insert(np.array([0.5, 0.5, 0.5]))
            after = [eng.n_live for eng in engine.shards]
        assert resp.kind == "insert" and resp.rid == N
        grown = [a - b for a, b in zip(after, before)]
        assert sorted(grown) == [0, 0, 0, 1]
        shard, local = engine.locate(N)
        assert grown[shard] == 1
        assert engine.shards[shard].table.is_live(local)

    def test_delete_routes_by_global_rid(self, data):
        with ShardedGIREngine(data, shards=4) as engine:
            rid = 123
            shard, local = engine.locate(rid)
            assert engine.shards[shard].table.is_live(local)
            resp = engine.delete(rid)
            assert resp.kind == "delete" and resp.rid == rid
            assert not engine.shards[shard].table.is_live(local)
            assert engine.n_live == N - 1
            with pytest.raises(KeyError):
                engine.delete(rid)  # already tombstoned

    def test_insert_can_evict_cluster_entry(self, data):
        """A record inserted on top of a cached region's top-k must evict
        the affected cluster-level entry (selective invalidation)."""
        with ShardedGIREngine(data, shards=2) as engine:
            q = np.array([0.6, 0.5, 0.7])
            first = engine.topk(q, K)
            assert len(engine.cache) == 1
            resp = engine.insert(np.ones(D))  # dominates everything
            assert resp.evicted >= 1
            assert len(engine.cache) == 0
            again = engine.topk(q, K)
            assert again.ids[0] == N  # the new record tops the list
            assert again.ids[1:] == first.ids[: K - 1]

    def test_failed_backend_insert_rolls_back_allocation(self, data):
        """If the owning shard fails to store a routed insert, the global
        allocation is rolled back to a tombstone and the rid map stays
        aligned — later inserts must not land one rid off."""
        with ShardedGIREngine(data, shards=2) as engine:
            for b in engine.backends:
                b.insert = lambda point: (_ for _ in ()).throw(
                    RuntimeError("worker down")
                )
            with pytest.raises(RuntimeError, match="worker down"):
                engine.insert(np.array([0.5, 0.5, 0.5]))
            for b in engine.backends:
                del b.insert  # restore the class method
            assert engine.locate(N) == (-1, -1)  # allocated, owned by no shard
            assert not engine.table.is_live(N)
            resp = engine.insert(np.array([0.4, 0.4, 0.4]))
            assert resp.rid == N + 1
            shard, local = engine.locate(N + 1)
            assert engine.shards[shard].table.is_live(local)
            assert engine.n_live == N + 1
            engine.delete(N + 1)  # routes correctly despite the gap
            assert engine.n_live == N

    def test_failed_backend_delete_keeps_record_live(self, data):
        """A backend failure during a routed delete must not strand a
        live shard record that the router counts as dead."""
        with ShardedGIREngine(data, shards=2) as engine:
            for b in engine.backends:
                b.delete = lambda rid: (_ for _ in ()).throw(
                    RuntimeError("worker down")
                )
            with pytest.raises(RuntimeError, match="worker down"):
                engine.delete(10)
            for b in engine.backends:
                del b.delete
            assert engine.table.is_live(10)
            assert engine.delete(10).kind == "delete"
            assert not engine.table.is_live(10)

    def test_dirty_insert_failure_fail_stops_the_cluster(self, data, monkeypatch):
        """A write that fails *after* the shard engine mutated (here: the
        insert screen raising, with the row already stored) must not
        be rolled back — the shard's state no longer matches the router's
        maps, so the cluster fail-stops instead of serving from it."""
        from repro.cluster import ShardWriteError

        with ShardedGIREngine(data, shards=2) as engine:
            def boom(*args, **kwargs):
                raise RuntimeError("insert screen fell over")

            monkeypatch.setattr(
                "repro.engine.engine.apply_insert_invalidation", boom
            )
            with pytest.raises(ShardWriteError, match="insert failed") as info:
                engine.insert(np.array([0.5, 0.5, 0.5]))
            assert info.value.dirty
            monkeypatch.undo()
            for method in (
                lambda: engine.topk(np.array([0.5, 0.5, 0.5]), K),
                lambda: engine.insert(np.array([0.4, 0.4, 0.4])),
                lambda: engine.delete(0),
                lambda: engine.topk_batch(uniform_workload(D, 2, k=K, rng=1).requests),
            ):
                with pytest.raises(RuntimeError, match="cluster is broken"):
                    method()

    @pytest.mark.parametrize("backend", ["inproc", "process"])
    def test_shard_emptied_by_deletes_still_merges(self, backend):
        """Deleting every record a shard owns must leave the cluster
        serving correctly: the empty shard is skipped by the fan-out (it
        has nothing to contribute) and the merged answer still matches a
        single engine over the same live set."""
        n, d, k = 60, 3, 5
        small = independent(n, d, seed=21)
        wl = uniform_workload(d, 10, k=k, rng=77)
        with ShardedGIREngine(
            small, shards=3, partitioner="round_robin", backend=backend
        ) as engine:
            victims = [rid for rid in range(n) if engine.locate(rid)[0] == 1]
            for rid in victims:
                engine.delete(rid)
            assert engine.stats()["shard_stats"][1]["live_records"] == 0
            report = run_serial(engine, wl)
            # Only the two surviving shards are fanned out to.
            assert engine.stats()["shard_stats"][1]["requests"] == 0

        reference = GIREngine(small, bulk_load_str(small), cache_capacity=64)
        for rid in victims:
            reference.delete(rid)
        ref_report = run_serial(reference, wl)
        assert_equivalent(report, ref_report)


class TestPartitioners:
    def test_round_robin_balances(self):
        p = RoundRobinPartitioner(4)
        assignment = p.assign_initial(np.zeros((10, 2)))
        counts = np.bincount(assignment, minlength=4)
        assert counts.tolist() == [3, 3, 2, 2]
        # Inserts continue the cycle at rid n.
        assert [p.route(np.zeros(2)) for _ in range(4)] == [2, 3, 0, 1]

    def test_kd_split_balances_and_routes(self, rng):
        g = rng.random((257, 3))
        p = KDSplitPartitioner(4)
        assignment = p.assign_initial(g)
        counts = np.bincount(assignment, minlength=4)
        assert counts.min() >= 257 // 4 - 1 and counts.max() <= 257 // 4 + 2
        # Routing a fresh point lands in exactly one shard, deterministically.
        q = rng.random(3)
        assert p.route(q) == p.route(q)
        assert 0 <= p.route(q) < 4

    def test_kd_route_before_build_fails(self):
        with pytest.raises(RuntimeError):
            KDSplitPartitioner(2).route(np.zeros(2))

    def test_kd_split_on_duplicated_coordinates(self):
        """Median splits on g-coordinates with massive duplication must
        still balance (assignment cuts by sorted *position*, not value)
        and route deterministically — a value-based cut would dump every
        duplicate on one side."""
        base = np.array(
            [[0.5, 0.2], [0.5, 0.8], [0.5, 0.5]], dtype=np.float64
        )
        g = np.tile(base, (40, 1))  # 120 records, 3 distinct rows
        p = KDSplitPartitioner(4)
        assignment = p.assign_initial(g)
        counts = np.bincount(assignment, minlength=4)
        assert counts.min() >= 120 // 4 - 1 and counts.max() <= 120 // 4 + 1
        # Routing duplicated coordinates is deterministic and in range.
        for row in base:
            assert p.route(row) == p.route(row)
            assert 0 <= p.route(row) < 4

    def test_kd_cluster_on_duplicated_coordinates_matches(self):
        """A kd-partitioned cluster over a heavily duplicated dataset
        (axis-flat MBBs, exact score ties everywhere) still merges to the
        single engine's answer — the (score, coord-sum, rid) tie-break
        carries the duplicates."""
        rng = np.random.default_rng(31)
        distinct = rng.random((12, 3))
        pts = distinct[rng.integers(0, 12, size=240)]
        wl = uniform_workload(3, 15, k=7, rng=44)
        data = Dataset(pts)
        reference = run_serial(
            GIREngine(data, bulk_load_str(data), cache_capacity=32), wl
        )
        with ShardedGIREngine(data, shards=4, partitioner="kd") as engine:
            report = run_serial(engine, wl)
        assert_equivalent(report, reference)

    def test_registry_and_validation(self):
        assert set(PARTITIONERS) == {"round_robin", "kd"}
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partitioner("nope", 2)
        with pytest.raises(ValueError, match="configured for"):
            make_partitioner(RoundRobinPartitioner(2), 4)

    def test_more_shards_than_records_rejected(self):
        with pytest.raises(ValueError, match="at least one record per shard"):
            ShardedGIREngine(independent(3, 2, seed=1), shards=8)


class TestMergeLayer:
    """Unit-level checks of the pool-and-rank merge."""

    @staticmethod
    def make_answer(shard, ids, scores, points, region):
        from repro.cluster import ShardAnswer

        pts = np.asarray(points, dtype=np.float64)
        return ShardAnswer(
            shard=shard,
            ids=tuple(ids),
            scores=tuple(scores),
            tie_sums=tuple(float(p.sum()) for p in pts),
            points_g=pts,
            region=region,
            source="computed",
            pages_read=3,
        )

    def test_merge_interleaves_and_adds_frontier(self):
        from repro.cluster import merge_shard_answers
        from repro.geometry.polytope import Polytope

        box = Polytope.from_unit_box(2)
        w = np.array([0.5, 0.5])
        # Shard 0 candidates score 0.9, 0.5; shard 1: 0.7, 0.3.
        a0 = self.make_answer(
            0, [10, 11], [0.9, 0.5], [[0.9, 0.9], [0.5, 0.5]], box
        )
        a1 = self.make_answer(
            1, [20, 21], [0.7, 0.3], [[0.7, 0.7], [0.3, 0.3]], box
        )
        merged = merge_shard_answers([a0, a1], w, 3)
        assert merged.gir.topk.ids == (10, 20, 11)
        assert merged.selected_per_shard == (2, 1)
        # 2 order half-spaces + shard 1's frontier (rid 21) vs the k-th (11).
        kinds = [hs.kind for hs in merged.gir.halfspaces]
        assert kinds == ["order", "order", "separation"]
        frontier = merged.gir.halfspaces[-1]
        assert (frontier.upper, frontier.lower) == (11, 21)
        assert merged.pages_read == 6
        # The merged region contains the query vector and excludes vectors
        # that would reorder the merged list.
        assert merged.gir.polytope.contains(w)
        # Duplicate unit-box rows of the second region are deduplicated:
        # one box (4 rows at d=2) + 3 merge half-spaces, nothing else.
        assert merged.gir._hs_row_offset == 4
        assert merged.gir.polytope.m == 4 + 3

    def test_pool_smaller_than_k_rejected(self):
        from repro.cluster import merge_shard_answers
        from repro.geometry.polytope import Polytope

        box = Polytope.from_unit_box(2)
        a = self.make_answer(0, [1], [0.5], [[0.5, 0.5]], box)
        with pytest.raises(ValueError, match="pooled only"):
            merge_shard_answers([a], np.array([0.5, 0.5]), 2)

    def test_source_derivation(self):
        from dataclasses import replace

        from repro.cluster.merge import _merged_source
        from repro.geometry.polytope import Polytope

        base = self.make_answer(
            0, [1], [0.5], [[0.5, 0.5]], Polytope.from_unit_box(2)
        )

        def fake(src):
            return replace(base, source=src)

        assert _merged_source([fake("cache"), fake("cache")]) == "cache"
        assert _merged_source([fake("cache"), fake("computed")]) == "computed"
        assert _merged_source([fake("computed"), fake("computed")]) == "computed"


class TestClusterValidation:
    def test_bad_weights_rejected(self, data):
        with ShardedGIREngine(data, shards=2) as engine:
            with pytest.raises(ValueError, match="shape"):
                engine.topk(np.array([0.5, 0.5]), K)
            with pytest.raises(ValueError, match="finite"):
                engine.topk(np.array([0.5, np.nan, 0.5]), K)
            with pytest.raises(ValueError, match="positive entry"):
                engine.topk(np.zeros(D), K)
            with pytest.raises(ValueError, match="k must be positive"):
                engine.topk(np.array([0.5, 0.5, 0.5]), 0)
            with pytest.raises(ValueError, match="exceeds live"):
                engine.topk(np.array([0.5, 0.5, 0.5]), N + 1)

    @pytest.mark.parametrize("rid", [True, 2.0, "3"])
    def test_bad_rid_rejected(self, data, rid):
        with ShardedGIREngine(data, shards=2) as engine:
            with pytest.raises(ValueError, match="rid must be an int"):
                engine.delete(rid)
            with pytest.raises(KeyError):
                engine.delete(-1)
            assert engine.n_live == N

    def test_bad_point_rejected(self, data):
        with ShardedGIREngine(data, shards=2) as engine:
            with pytest.raises(ValueError, match="shape"):
                engine.insert(np.array([0.5]))
            with pytest.raises(ValueError, match="finite"):
                engine.insert(np.array([0.5, np.inf, 0.5]))
