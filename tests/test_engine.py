"""Tests for the GIREngine serving layer and workload generators."""

import asyncio
import math
import warnings

import numpy as np
import pytest

from repro.cluster import ShardedGIREngine
from repro.data.dataset import Dataset
from repro.data.synthetic import independent
from repro.engine import (
    GIREngine,
    InsertOp,
    Request,
    Workload,
    mixed_workload,
    uniform_workload,
    zipf_clustered_workload,
)
from repro.engine.engine import validate_weight_rows, validate_weights
from repro.index.bulkload import bulk_load_str
from repro.query.linear_scan import scan_topk
from repro.serve import Rejected, ServeFront, canonical_scores
from tests.conftest import random_query, run_serial
from tests.test_batch_serving import lru_order


@pytest.fixture(scope="module")
def served_setup():
    data = independent(900, 3, seed=41)
    tree = bulk_load_str(data)
    return data, tree


class TestCacheFirstServing:
    def test_full_hit_zero_page_reads(self, served_setup, rng):
        data, tree = served_setup
        engine = GIREngine(data, tree)
        q = random_query(rng, 3)
        first = engine.topk(q, 10)
        assert first.source == "computed"
        assert first.pages_read > 0 and first.gir_stats is not None
        second = engine.topk(q, 10)
        assert second.source == "cache"
        assert second.pages_read == 0
        assert second.gir_stats is None
        assert second.ids == first.ids

    def test_miss_and_following_hit_return_the_same_score_bits(self, served_setup, rng):
        """The computed path ranks with per-leaf scores but reports the
        scores the hit path reports: one product over the ranked rows."""
        data, tree = served_setup
        engine = GIREngine(data, tree)
        for _ in range(20):
            q = random_query(rng, 3)
            miss, hit = engine.topk(q, 20), engine.topk(q, 20)
            assert (miss.source, hit.source) == ("computed", "cache")
            assert miss.ids == hit.ids
            assert miss.scores == hit.scores

    def test_full_hit_scores_are_for_probe_weights(self, served_setup, rng):
        """A hit inside the GIR keeps the ids but rescoring uses the
        probe's own weights, so the reported scores are exact."""
        data, tree = served_setup
        engine = GIREngine(data, tree)
        q = random_query(rng, 3)
        engine.topk(q, 10)
        gir = engine.cache._entries[0]
        for probe in gir.polytope.sample(4, rng):
            if (probe <= 1e-9).all():
                continue
            resp = engine.topk(probe, 10)
            assert resp.source == "cache" and resp.pages_read == 0
            expected = scan_topk(data.points, probe, 10)
            assert resp.ids == expected.ids
            assert np.allclose(resp.scores, expected.scores)

    def test_deeper_k_is_a_miss(self, served_setup, rng):
        """A vector inside a GIR cached for a smaller k is a miss: the
        pipeline runs from scratch, and its deeper GIR then serves."""
        data, tree = served_setup
        engine = GIREngine(data, tree)
        q = random_query(rng, 3)
        engine.topk(q, 5)
        deeper = engine.topk(q, 14)
        assert deeper.source == "computed"
        assert deeper.ids == scan_topk(data.points, q, 14).ids
        cold = GIREngine(data, tree).topk(q, 14)
        assert deeper.gir_stats.io_pages_topk == cold.gir_stats.io_pages_topk
        assert engine.stats()["misses"] == 2
        # The deeper GIR is cached: asking again is now a pure hit.
        again = engine.topk(q, 14)
        assert again.source == "cache" and again.pages_read == 0

    def test_smaller_k_is_full_hit(self, served_setup, rng):
        data, tree = served_setup
        engine = GIREngine(data, tree)
        q = random_query(rng, 3)
        engine.topk(q, 12)
        resp = engine.topk(q, 4)
        assert resp.source == "cache" and resp.pages_read == 0
        assert resp.ids == scan_topk(data.points, q, 4).ids

    def test_engine_builds_tree_when_omitted(self):
        data = independent(300, 2, seed=5)
        engine = GIREngine(data)
        resp = engine.topk([0.5, 0.6], 5)
        assert resp.ids == scan_topk(data.points, np.array([0.5, 0.6]), 5).ids


class TestBatchAccounting:
    def test_report_consistent_with_per_request_stats(self, served_setup, rng):
        data, tree = served_setup
        engine = GIREngine(data, tree)
        workload = zipf_clustered_workload(3, 60, k=8, clusters=4, rng=rng)
        responses, updates = run_serial(engine, workload)

        assert len(responses) == 60 and updates == []
        full_hits = sum(r.source == "cache" for r in responses)
        computed = sum(r.source == "computed" for r in responses)
        assert full_hits + computed == 60
        # Page accounting: the requests' own meters match the pipelines'
        # GIRStats, and a hit reads nothing.
        assert sum(r.pages_read for r in responses) == sum(
            r.gir_stats.io_pages_topk + r.gir_stats.io_pages_phase2
            for r in responses
            if r.gir_stats is not None
        )
        for r in responses:
            if r.source == "cache":
                assert r.pages_read == 0 and r.gir_stats is None
            else:
                assert r.gir_stats is not None
        # Engine/cache counters line up with the responses' split.
        stats = engine.stats()
        assert stats["requests_served"] == 60
        assert stats["full_hits"] == full_hits
        assert stats["misses"] == computed

    def test_empty_workload_reports_zeros(self, served_setup):
        data, tree = served_setup
        engine = GIREngine(data, tree)
        before = engine.stats()
        assert run_serial(engine, []) == ([], [])
        assert engine.topk_batch([]) == []
        assert engine.stats() == before
        assert before["requests_served"] == before["full_hits"] == 0

    def test_run_accepts_plain_request_list(self, served_setup, rng):
        """A request repeated three times is one miss and two hits."""
        data, tree = served_setup
        engine = GIREngine(data, tree)
        q = random_query(rng, 3)
        responses, _ = run_serial(engine, [Request(weights=q, k=5)] * 3)
        assert [r.source for r in responses] == ["computed", "cache", "cache"]
        stats = engine.stats()
        assert (stats["requests_served"], stats["misses"], stats["full_hits"]) == (
            3, 1, 2,
        )


class TestSecondSightingAdmission:
    """A miss always runs BRS. While the cache has room it also computes
    and admits the region, as before. A full cache admits an answer only
    on its second sighting: the first is answered from BRS alone (no
    region, nothing evicted) and its key ``(k, sorted ids)`` is kept in a
    table of the last ``4 × capacity`` such keys."""

    FAR = (np.array([0.9, 0.1, 0.1]), np.array([0.1, 0.9, 0.1]))
    Q = np.array([0.1, 0.1, 0.9])

    def full_engine(self, data, capacity=2):
        """An engine whose cache was filled by far-away, deep answers."""
        engine = GIREngine(data, bulk_load_str(data), cache_capacity=capacity)
        for i in range(capacity):
            engine.topk(self.FAR[i % 2] + 0.01 * i, 40)
        assert len(engine.cache) == capacity
        return engine

    def test_with_room_a_first_sighting_admits(self, served_setup):
        data, _ = served_setup
        engine = GIREngine(data, bulk_load_str(data), cache_capacity=2)
        first = engine.topk(self.Q, 5)
        assert first.source == "computed" and first.region is not None
        assert first.region is engine.cache.entry(lru_order(engine)[0]).polytope
        assert first.gir_stats.io_pages_phase2 > 0
        assert len(engine.cache) == 1 and engine._sightings == {}
        assert engine.topk(self.Q, 5).source == "cache"
        assert engine.stats()["regions_deferred"] == 0

    def test_full_cache_defers_then_admits_on_the_repeat(self, served_setup):
        data, _ = served_setup
        engine = self.full_engine(data)
        order = lru_order(engine)
        entries = [engine.cache.entry(key) for key in order]
        version = engine.cache._index.version
        before = engine.cache.stats()

        first = engine.topk(self.Q, 5)
        assert first.source == "computed" and first.region is None
        assert first.ids == scan_topk(data.points, self.Q, 5).ids
        assert first.scores == canonical_scores(
            engine.scorer, engine.result_rows(first.ids), self.Q
        )
        # Only the retrieval's pages: no phase 2 ran.
        assert first.gir_stats.io_pages_topk == first.pages_read > 0
        assert first.gir_stats.io_pages_phase2 == 0
        assert first.gir_stats.phase2_candidates == 0
        # The cache is exactly as it was: entries, LRU order, length.
        assert lru_order(engine) == order
        assert [engine.cache.entry(key) for key in order] == entries
        assert engine.cache._index.version == version
        after = engine.cache.stats()
        assert after["misses"] == before["misses"] + 1
        assert {k: v for k, v in after.items() if k != "misses"} == {
            k: v for k, v in before.items() if k != "misses"
        }
        assert list(engine._sightings) == [(5, tuple(sorted(first.ids)))]
        assert engine.stats()["regions_deferred"] == 1

        repeat = engine.topk(self.Q, 5)
        assert repeat.source == "computed" and repeat.region is not None
        assert repeat.ids == first.ids and repeat.scores == first.scores
        assert repeat.gir_stats.io_pages_phase2 > 0
        assert engine._sightings == {}
        assert lru_order(engine)[0] == order[1]  # the LRU entry went
        assert engine.cache.stats()["capacity_evictions"] == 1

        third = engine.topk(self.Q, 5)
        assert third.source == "cache" and third.pages_read == 0
        assert third.region is repeat.region
        stats = engine.stats()
        assert (stats["regions_deferred"], stats["misses"], stats["full_hits"]) == (1, 4, 1)

    def test_brs_runs_once_per_miss(self, served_setup, monkeypatch):
        import repro.core.pipeline as pipeline
        import repro.engine.engine as engine_module

        calls = {"brs": 0, "pipeline": 0, "nested": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine_module, "brs_topk", counted("brs", engine_module.brs_topk))
        monkeypatch.setattr(
            engine_module, "run_pipeline", counted("pipeline", engine_module.run_pipeline)
        )
        # The pipeline's own retrieval must never run: it adopts the run.
        monkeypatch.setattr(pipeline, "brs_topk", counted("nested", pipeline.brs_topk))
        data, _ = served_setup
        engine = GIREngine(data, bulk_load_str(data), cache_capacity=2)
        for w, k in [
            (self.FAR[0], 8), (self.FAR[1], 8),  # room: admitted
            (self.Q, 5), (self.Q, 5), (self.Q, 5),  # deferred, admitted, hit
            (self.Q, 7),  # deferred
        ]:
            engine.topk(w, k)
        stats = engine.stats()
        assert (stats["misses"], stats["regions_deferred"]) == (5, 2)
        assert calls == {"brs": 5, "pipeline": 3, "nested": 0}

    def test_the_table_keeps_the_last_four_capacities_of_keys(self, served_setup):
        data, _ = served_setup
        engine = self.full_engine(data, capacity=2)
        keys = []
        for k in range(3, 31):  # 28 distinct answer keys, each a miss
            resp = engine.topk(self.Q, k)
            assert resp.region is None
            keys.append((k, tuple(sorted(resp.ids))))
            assert len(engine._sightings) == min(len(keys), 8)
        assert list(engine._sightings) == keys[-8:]
        assert engine.stats()["regions_deferred"] == 28
        assert len(engine.cache) == 2
        # The oldest key still held is a repeat.
        assert engine.topk(self.Q, 23).region is not None
        assert list(engine._sightings) == keys[-7:]

    def test_writes_never_touch_the_table(self, served_setup):
        data, _ = served_setup
        engine = self.full_engine(data)
        for k in (4, 5, 6):
            engine.topk(self.Q, k)
        table = dict(engine._sightings)
        assert len(table) == 3
        answer = engine.topk(self.FAR[0], 40).ids
        rid = engine.insert(np.array([0.99, 0.98, 0.99])).rid
        engine.delete(answer[0])
        engine.delete(rid)
        engine.insert(np.array([0.5, 0.5, 0.5]))
        assert engine.stats()["update_evictions"] > 0
        assert engine._sightings == table

    @pytest.fixture(scope="class")
    def churn(self):
        data = independent(600, 3, seed=43)
        workload = mixed_workload(
            3, 240, base_n=600, k=6, update_fraction=0.15, clusters=10,
            spread=0.02, rng=np.random.default_rng(5),
        )
        return data, workload

    def assert_exact(self, tier, workload):
        """Each read of the replay matches ``scan_topk`` over the live
        records, with canonical scores bit for bit."""
        responses, updates = [], []
        for op in workload:
            if isinstance(op, Request):
                resp = tier.topk(op.weights, op.k)
                want = scan_topk(
                    tier.points, op.weights, op.k, scorer=tier.scorer,
                    live=tier.table.live_mask,
                )
                assert resp.ids == want.ids
                assert resp.scores == canonical_scores(
                    tier.scorer, tier.result_rows(want.ids), op.weights
                )
                responses.append(resp)
            else:
                updates.append(
                    tier.insert(op.point) if isinstance(op, InsertOp) else tier.delete(op.rid)
                )
        assert updates and {u.kind for u in updates} == {"insert", "delete"}
        sources = [r.source for r in responses]
        assert "cache" in sources
        assert any(r.region is None for r in responses)
        assert any(r.region is not None and r.source == "computed" for r in responses)
        return responses

    def test_mixed_stream_is_exact_on_the_engine(self, churn):
        data, workload = churn
        engine = GIREngine(data, bulk_load_str(data), cache_capacity=4)
        responses = self.assert_exact(engine, workload)
        stats = engine.stats()
        assert stats["regions_deferred"] == sum(r.region is None for r in responses)
        assert stats["capacity_evictions"] > 0 and len(engine._sightings) <= 16

    @pytest.mark.parametrize("backend", ["inproc", "process"])
    def test_mixed_stream_is_exact_on_the_sharded_engine(self, churn, backend):
        data, workload = churn
        with ShardedGIREngine(
            data, shards=2, backend=backend, cache_capacity=4, cluster_cache_capacity=8
        ) as cluster:
            responses = self.assert_exact(cluster, workload)
            stats = cluster.stats()
            assert stats["regions_deferred"] == sum(
                s["regions_deferred"] for s in stats["shard_stats"]
            ) > 0
            # Only a merged answer with every shard's region is admitted.
            assert stats["cluster_entries"] <= sum(
                r.region is not None and r.source == "computed" for r in responses
            )

    @pytest.mark.parametrize("backend", ["inproc", "process"])
    def test_sharded_first_sighting_is_not_cluster_cached(self, served_setup, backend):
        data, _ = served_setup
        with ShardedGIREngine(
            data, shards=2, backend=backend, cache_capacity=1, cluster_cache_capacity=8
        ) as cluster:
            cluster.topk(self.FAR[0], 5)  # every shard has room
            assert cluster.stats()["cluster_entries"] == 1
            first = cluster.topk(self.Q, 5)
            stats = cluster.stats()
            assert first.region is None and first.source == "computed"
            assert first.ids == scan_topk(data.points, self.Q, 5).ids
            assert (stats["cluster_entries"], stats["regions_deferred"]) == (1, 2)
            repeat = cluster.topk(self.Q, 5)
            assert repeat.region is not None and repeat.ids == first.ids
            assert cluster.stats()["cluster_entries"] == 2
            fanouts = cluster.fanouts
            third = cluster.topk(self.Q, 5)
            assert third.source == "cache" and cluster.fanouts == fanouts
            assert third.region is repeat.region


class TestWorkloadGenerators:
    def test_uniform_shapes_and_interior(self, rng):
        wl = uniform_workload(4, 50, k=7, rng=rng)
        assert isinstance(wl, Workload) and len(wl) == 50
        for req in wl:
            assert req.k == 7 and req.weights.shape == (4,)
            assert (req.weights > 0).all() and (req.weights <= 1).all()

    def test_zipf_clustered_interior_and_skew(self):
        rng = np.random.default_rng(3)
        wl = zipf_clustered_workload(3, 300, clusters=5, zipf_s=1.5, rng=rng)
        assert len(wl) == 300
        arr = np.stack([req.weights for req in wl])
        assert (arr >= 0.01).all() and (arr <= 1.0).all()
        # Clustered: far fewer distinct neighbourhoods than queries.
        rounded = {tuple(np.round(w, 1)) for w in arr}
        assert len(rounded) < 60

    def test_zipf_rejects_bad_clusters(self):
        with pytest.raises(ValueError, match="positive"):
            zipf_clustered_workload(3, 10, clusters=0)


class TestGeneratorRngUnification:
    """Every generator accepts an int seed or a Generator interchangeably."""

    def test_uniform_seed_equals_generator(self):
        a = uniform_workload(3, 20, k=5, rng=42)
        b = uniform_workload(3, 20, k=5, rng=np.random.default_rng(42))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.weights, rb.weights)

    def test_zipf_seed_equals_generator(self):
        a = zipf_clustered_workload(3, 30, clusters=4, rng=7)
        b = zipf_clustered_workload(
            3, 30, clusters=4, rng=np.random.default_rng(7)
        )
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.weights, rb.weights)

    def test_mixed_seed_equals_generator(self):
        from repro.engine import DeleteOp, InsertOp, mixed_workload

        a = mixed_workload(3, 40, base_n=200, k=5, rng=11)
        b = mixed_workload(
            3, 40, base_n=200, k=5, rng=np.random.default_rng(11)
        )
        assert len(a) == len(b)
        for oa, ob in zip(a, b):
            assert type(oa) is type(ob)
            if isinstance(oa, Request):
                assert np.array_equal(oa.weights, ob.weights)
            elif isinstance(oa, InsertOp):
                assert np.array_equal(oa.point, ob.point)
            elif isinstance(oa, DeleteOp):
                assert oa.rid == ob.rid

    def test_numpy_integer_seed_accepted(self):
        wl = uniform_workload(2, 3, rng=np.int64(5))
        ref = uniform_workload(2, 3, rng=5)
        for ra, rb in zip(wl, ref):
            assert np.array_equal(ra.weights, rb.weights)

    def test_generator_instance_not_reseeded(self):
        from repro.engine import as_generator

        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_bad_rng_type_rejected(self):
        from repro.engine import as_generator

        with pytest.raises(TypeError, match="int seed"):
            as_generator("not-a-seed")


class TestInputValidation:
    """topk/insert reject malformed input with a clear ValueError instead
    of an opaque downstream geometry failure."""

    @pytest.fixture(scope="class")
    def engine(self):
        data = independent(300, 3, seed=9)
        return GIREngine(data, bulk_load_str(data))

    def test_wrong_dimension_rejected(self, engine):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            engine.topk(np.array([0.5, 0.5]), 5)

    def test_nan_weights_rejected(self, engine):
        with pytest.raises(ValueError, match="finite"):
            engine.topk(np.array([0.5, np.nan, 0.5]), 5)

    def test_inf_weights_rejected(self, engine):
        with pytest.raises(ValueError, match="finite"):
            engine.topk(np.array([0.5, np.inf, 0.5]), 5)

    def test_all_nonpositive_weights_rejected(self, engine):
        with pytest.raises(ValueError, match="positive entry"):
            engine.topk(np.zeros(3), 5)

    def test_negative_weights_rejected(self, engine):
        with pytest.raises(ValueError, match="non-negative"):
            engine.topk(np.array([0.5, -0.1, 0.5]), 5)

    def test_batch_validates_too(self, engine):
        reqs = [Request(weights=np.array([0.5, 0.4, 0.6]), k=3)]
        bad = Request.__new__(Request)  # bypass Request's own checks
        object.__setattr__(bad, "weights", np.array([0.5, 0.4]))
        object.__setattr__(bad, "k", 3)
        with pytest.raises(ValueError, match="shape"):
            engine.topk_batch(reqs + [bad])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0.5, 0.5], r"shape \(3,\)"),
            ([0.5, np.nan, 0.5], "finite"),
            ([0.5, -np.inf, 0.5], "finite"),
            ([0.5, -0.1, 0.5], "non-negative"),
            ([0.0, 0.0, 0.0], "positive entry"),
            ([1e308, 1e308, 5e307], "overflows float64"),
        ],
    )
    def test_batch_rows_checked_like_single_vectors(self, bad, message):
        """The stacked batch check accepts exactly what the per-vector
        check accepts, and a bad row raises the per-vector message."""
        good = [np.array([0.5, 0.4, 0.6]), np.array([0.0, 1.0, 0.2])]
        assert np.array_equal(
            validate_weight_rows(good, 3),
            np.stack([validate_weights(w, 3) for w in good]),
        )
        with pytest.raises(ValueError, match=message):
            validate_weight_rows([*good, np.array(bad)], 3)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([0.5, np.nan, 0.5], "finite"),
            ([np.nan, 0.5, 0.5], "finite"),
            ([0.5, 0.5, np.nan], "finite"),
            ([0.5, np.inf, 0.5], "finite"),
            ([0.5, -np.inf, 0.5], "finite"),
            ([np.inf, -np.inf, 1.0], "finite"),
            ([-0.0, 0.5, 0.5], None),
            ([-0.0, 0.0, -0.0], "positive entry"),
            ([0.0, 0.0, 0.0], "positive entry"),
            ([0.5, -0.1, 0.5], "non-negative"),
            ([-1e-300, 0.5, 0.5], "non-negative"),
            ([0.5, 0.5], r"shape \(3,\)"),
            ([[0.5, 0.5, 0.5]], r"shape \(3,\)"),
            (np.array([1, 2, 3]), None),
            (np.array([0, 0, 0]), "positive entry"),
            (np.array([0, -1, 2]), "non-negative"),
            ([1e308, 7e307, 0.0], None),
            ([1e308, 1e308, -1.0], "non-negative"),
            ([5e-324, 0.0, 0.0], None),
            ([1e308, 1e308, 1e308], "overflows float64"),
        ],
        ids=lambda v: repr(v) if isinstance(v, (str, type(None))) else None,
    )
    def test_weights_accept_reject_table(self, weights, message):
        """One cheap test accepts a well-formed vector; the full checks
        only choose the message. The accept set is exactly the full
        checks': right shape, finite, no negative entry (``-0.0`` is not
        one), at least one positive entry — a numpy int vector included
        — and a sum that does not overflow."""
        arr = np.asarray(weights, dtype=np.float64)
        reference = (
            arr.shape == (3,)
            and bool(np.isfinite(arr).all())
            and not (arr < 0).any()
            and bool((arr > 0).any())
            and sum(arr.tolist()) < math.inf
        )
        assert reference == (message is None)
        if message is None:
            out = validate_weights(weights, 3)
            assert out.dtype == np.float64 and out.shape == (3,)
            assert np.array_equal(out, arr)
        else:
            with pytest.raises(ValueError, match=message):
                validate_weights(weights, 3)

    def test_batch_validates_before_serving_anything(self, engine):
        """A malformed request anywhere in the batch fails the whole call
        up front — no prefix is served, no counters move (a mid-batch
        abort would leave the caller unable to tell what took effect)."""
        bad = Request.__new__(Request)
        object.__setattr__(bad, "weights", np.array([0.5, np.nan, 0.6]))
        object.__setattr__(bad, "k", 3)
        reqs = [
            Request(weights=np.array([0.5, 0.4, 0.6]), k=3)
            for _ in range(5)
        ] + [bad]
        served_before = engine.requests_served
        stats_before = engine.cache.stats()
        with pytest.raises(ValueError, match="finite"):
            engine.topk_batch(reqs)
        assert engine.requests_served == served_before
        assert engine.cache.stats() == stats_before

    @pytest.mark.parametrize("k", [0, -1, 301, 2.5, True])
    def test_bad_k_rejected_even_on_a_warm_cache(self, engine, k):
        """``k`` used to be checked only by BRS, i.e. only on a cold
        cache: with the vector's GIR cached, ``k=0`` came back as an empty
        "full hit" and ``k=-1`` as the prefix ``cached_ids[:-1]``."""
        w = np.array([0.5, 0.4, 0.6])
        engine.topk(w, 5)  # warm: the next lookup of w is a full hit
        with pytest.raises(ValueError, match="k must be positive|exceeds"):
            engine.topk(w, k)

    def test_bad_k_mid_batch_fails_before_serving_anything(self, engine):
        reqs = [
            Request(weights=np.array([0.5, 0.4, 0.6]), k=3),
            Request(weights=np.array([0.5, 0.4, 0.6]), k=0),
            Request(weights=np.array([0.3, 0.4, 0.6]), k=3),
        ]
        served_before = engine.requests_served
        stats_before = engine.cache.stats()
        with pytest.raises(ValueError, match="k must be positive"):
            engine.topk_batch(reqs)
        assert engine.requests_served == served_before
        assert engine.cache.stats() == stats_before

    def test_insert_wrong_dimension_rejected(self, engine):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            engine.insert(np.array([0.5, 0.5, 0.5, 0.5]))

    def test_insert_nan_rejected(self, engine):
        with pytest.raises(ValueError, match="finite"):
            engine.insert(np.array([0.5, np.nan, 0.5]))

    def test_rejected_insert_leaves_engine_intact(self, engine):
        live_before = engine.n_live
        tree_size = engine.tree.size
        with pytest.raises(ValueError):
            engine.insert(np.array([np.nan, 0.5, 0.5]))
        assert engine.n_live == live_before
        assert engine.tree.size == tree_size
        # Still fully serviceable after the rejection.
        resp = engine.topk(np.array([0.5, 0.4, 0.6]), 4)
        assert len(resp.ids) == 4


def serve_through_front(engine, reads):
    """Serve ``(weights, k)`` reads one after another through a fresh
    front door over ``engine``; returns the responses in order."""

    async def go():
        async with ServeFront(engine) as front:
            return [await front.topk(w, k) for w, k in reads]

    return asyncio.run(go())


class TestOverflowingWeights:
    """Finite weights whose sum overflows float64 are rejected at every
    entry, with a message to scale the vector down (top-k does not depend
    on the vector's scale). A vector just inside the range is served,
    with finite canonical scores and no floating-point warning."""

    OVERFLOW = np.array([1e308, 1e308, 5e307])
    FINITE = np.array([1e308, 7e307, 0.0])
    MESSAGE = "overflows float64; scale the vector down"

    @pytest.fixture(scope="class")
    def data(self):
        return Dataset(np.random.default_rng(1).random((500, 3)))

    def assert_rejected_everywhere(self, engine):
        """``topk``, ``topk_batch`` and ``serve_hits`` all reject the
        overflowing vector, even with its direction cached and beside a
        good request, and serve nothing."""
        engine.topk(self.OVERFLOW / self.OVERFLOW.max(), 10)
        served = engine.requests_served
        good, bad = Request(self.FINITE, 10), Request(self.OVERFLOW, 10)
        for call in (
            lambda: engine.topk(self.OVERFLOW, 10),
            lambda: engine.topk_batch([good, bad]),
            lambda: engine.serve_hits([bad]),
        ):
            with pytest.raises(ValueError, match=self.MESSAGE):
                call()
        assert engine.requests_served == served

    def test_engine_rejects_an_overflowing_sum(self, data):
        self.assert_rejected_everywhere(GIREngine(data, bulk_load_str(data)))

    def test_sharded_engine_rejects_an_overflowing_sum(self, data):
        with ShardedGIREngine(data, shards=2) as cluster:
            self.assert_rejected_everywhere(cluster)

    def test_front_door_rejects_an_overflowing_sum(self, data):
        engine = GIREngine(data, bulk_load_str(data))
        with pytest.raises(Rejected, match=self.MESSAGE):
            serve_through_front(engine, [(self.OVERFLOW, 10)])

    def expected(self, data, w):
        return scan_topk(data.points, w / w.max(), 10).ids

    def assert_served_at_the_scaled_vector(self, data, tier, w):
        """A miss then a hit, both ranked as ``scan_topk`` ranks ``w`` scaled
        to a unit maximum (top-k does not depend on the scale), with finite
        canonical scores at the caller's ``w``."""
        miss, hit = tier.topk(w, 10), tier.topk(w, 10)
        assert (miss.source, hit.source) == ("computed", "cache")
        for resp in (miss, hit):
            assert resp.ids == self.expected(data, w)
            assert np.isfinite(resp.scores).all()
            assert resp.scores == canonical_scores(
                tier.scorer, tier.result_rows(resp.ids), w
            )

    @pytest.mark.parametrize("w", [FINITE], ids=["finite"])
    def test_engine_ranks_at_the_scaled_vector(self, data, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = GIREngine(data, bulk_load_str(data))
            self.assert_served_at_the_scaled_vector(data, engine, w)

    @pytest.mark.parametrize("w", [FINITE], ids=["finite"])
    def test_sharded_engine_ranks_at_the_scaled_vector(self, data, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ShardedGIREngine(data, shards=2) as cluster:
                self.assert_served_at_the_scaled_vector(data, cluster, w)

    def test_a_finite_sum_is_served_without_warning(self, data):
        w = self.FINITE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            responses = serve_through_front(
                GIREngine(data, bulk_load_str(data)), [(w, 10), (w, 10)]
            )
        assert [r.source for r in responses] == ["computed", "cache"]
        assert all(r.ids == self.expected(data, w) for r in responses)


class TestDegenerateInputs:
    """Degenerate inputs served like any other, on both tiers (one engine
    and an in-process two-shard cluster) and through the front door,
    checked against ``scan_topk``: ``k`` equal to the live count, a table
    of identical records, and weights on a facet of the unit box."""

    TIERS = (
        lambda data: GIREngine(data, bulk_load_str(data)),
        lambda data: ShardedGIREngine(data, shards=2),
    )

    @classmethod
    def served_twice(cls, data, w, k):
        """Serve ``(w, k)`` twice on a fresh engine of each tier and twice
        through a fresh front door over each: a miss, then a cache hit,
        each with ``scan_topk``'s ids. Returns those ids."""
        expected = scan_topk(data.points, w, k).ids
        for tier in cls.TIERS:
            engine = tier(data)
            first, repeat = engine.topk(w, k), engine.topk(w, k)
            assert (first.source, repeat.source) == ("computed", "cache")
            assert first.ids == repeat.ids == expected
            responses = serve_through_front(tier(data), [(w, k), (w, k)])
            assert [r.source for r in responses] == ["computed", "cache"]
            assert all(r.ids == expected for r in responses)
        return expected

    def test_k_equal_to_the_live_count(self):
        data = independent(40, 3, seed=5)
        w = np.array([0.3, 0.5, 0.2])
        expected = self.served_twice(data, w, 40)

        async def after_a_delete(engine):
            async with ServeFront(engine) as front:
                await front.topk(w, 40)
                await front.delete(expected[-1])
                with pytest.raises(Rejected, match="exceeds live record count"):
                    await front.topk(w, 40)

        for tier in self.TIERS:
            # Warm engines: the cache holds the k = 40 answer when k is judged.
            engine = tier(data)
            engine.topk(w, 40)
            engine.delete(expected[-1])
            with pytest.raises(ValueError, match="exceeds live record count 39"):
                engine.topk(w, 40)
            asyncio.run(after_a_delete(tier(data)))

    @pytest.mark.parametrize("k", [5, 30])
    def test_identical_records(self, k):
        data = Dataset(np.tile([0.4, 0.7, 0.2], (30, 1)))
        expected = self.served_twice(data, np.array([0.5, 0.2, 0.3]), k)
        assert expected == tuple(range(29, 29 - k, -1))  # the rid tie-break

    @pytest.mark.parametrize(
        "w",
        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 0.5, 0.5, 0], [1, 1, 1, 1]],
        ids=["e4", "e1", "edge", "corner"],
    )
    def test_weights_on_a_facet_of_the_unit_box(self, w):
        data = independent(300, 4, seed=8)
        self.served_twice(data, np.array(w, dtype=np.float64), 10)
