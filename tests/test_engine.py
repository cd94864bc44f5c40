"""Tests for the GIREngine serving layer and workload generators."""

import asyncio

import numpy as np
import pytest

from repro.cluster import ShardedGIREngine
from repro.data.dataset import Dataset
from repro.data.synthetic import independent
from repro.engine import (
    GIREngine,
    Request,
    Workload,
    uniform_workload,
    zipf_clustered_workload,
)
from repro.engine.engine import validate_weight_rows, validate_weights
from repro.index.bulkload import bulk_load_str
from repro.query.linear_scan import scan_topk
from repro.serve import Rejected, ServeFront, canonical_scores
from tests.conftest import random_query


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
        report = engine.run(workload)

        assert report.total == 60
        assert report.full_hits + report.computed == 60
        # Page accounting: the report total is exactly the sum of the
        # requests' own meters, and matches the pipelines' GIRStats.
        assert report.pages_read_total == sum(r.pages_read for r in report.responses)
        assert report.pages_read_total == sum(
            r.gir_stats.io_pages_topk + r.gir_stats.io_pages_phase2
            for r in report.responses
            if r.gir_stats is not None
        )
        for r in report.responses:
            if r.source == "cache":
                assert r.pages_read == 0 and r.gir_stats is None
            else:
                assert r.gir_stats is not None
        # Engine/cache counters line up with the report's split.
        stats = engine.stats()
        assert stats["requests_served"] == 60
        assert stats["full_hits"] == report.full_hits
        assert stats["misses"] == report.computed

    def test_report_aggregates(self, served_setup, rng):
        data, tree = served_setup
        engine = GIREngine(data, tree)
        report = engine.run(uniform_workload(3, 25, k=6, rng=rng))
        d = report.to_dict()
        for key in (
            "hit_rate", "pages_per_1k_queries", "throughput_qps", "queries",
        ):
            assert key in d
        assert 0.0 <= d["hit_rate"] <= 1.0
        assert d["queries"] == 25
        assert report.summary()  # renders without error

    def test_empty_workload_reports_zeros(self, served_setup):
        data, tree = served_setup
        engine = GIREngine(data, tree)
        report = engine.run([])
        d = report.to_dict()
        assert d["queries"] == 0
        assert d["hit_rate"] == 0.0
        assert d["pages_per_1k_queries"] == 0.0
        assert report.summary()

    def test_run_accepts_plain_request_list(self, served_setup, rng):
        data, tree = served_setup
        engine = GIREngine(data, tree)
        q = random_query(rng, 3)
        report = engine.run([Request(weights=q, k=5)] * 3)
        assert report.total == 3 and report.full_hits == 2


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
            ([1e308, 1e308, 1e308], None),
            ([1e308, 1e308, -1.0], "non-negative"),
            ([5e-324, 0.0, 0.0], None),
        ],
        ids=lambda v: repr(v) if isinstance(v, (str, type(None))) else None,
    )
    def test_weights_accept_reject_table(self, weights, message):
        """One cheap test accepts a well-formed vector; the full checks
        only choose the message. The accept set is exactly the full
        checks': right shape, finite, no negative entry (``-0.0`` is not
        one), at least one positive entry — a numpy int vector included,
        and finite entries whose sum overflows too."""
        arr = np.asarray(weights, dtype=np.float64)
        reference = (
            arr.shape == (3,)
            and bool(np.isfinite(arr).all())
            and not (arr < 0).any()
            and bool((arr > 0).any())
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestOverflowingWeights:
    """Finite weights whose sum overflows float64 are accepted; they are
    ranked at ``w / max(w)`` (top-k is scale-invariant), and the response
    scores are still the canonical product at the caller's ``w``."""

    OVERFLOW = np.array([1e308, 1e308, 5e307])
    FINITE = np.array([1e308, 7e307, 0.0])

    @pytest.fixture(scope="class")
    def data(self):
        return Dataset(np.random.default_rng(1).random((500, 3)))

    def expected(self, data, w):
        return scan_topk(data.points, w / w.max(), 10).ids

    @pytest.mark.parametrize("w", [OVERFLOW, FINITE], ids=["overflow", "finite"])
    def test_engine_ranks_at_the_scaled_vector(self, data, w):
        engine = GIREngine(data, bulk_load_str(data))
        miss, hit = engine.topk(w, 10), engine.topk(w, 10)
        assert (miss.source, hit.source) == ("computed", "cache")
        for resp in (miss, hit):
            assert resp.ids == self.expected(data, w)
            assert resp.scores == canonical_scores(
                engine.scorer, engine.result_rows(resp.ids), w
            )

    @pytest.mark.parametrize("w", [OVERFLOW, FINITE], ids=["overflow", "finite"])
    def test_sharded_engine_ranks_at_the_scaled_vector(self, data, w):
        with ShardedGIREngine(data, shards=2) as cluster:
            responses = [cluster.topk(w, 10), cluster.topk(w, 10)]
            for resp in responses:
                assert resp.ids == self.expected(data, w)
                assert resp.scores == canonical_scores(
                    cluster.scorer, cluster.result_rows(resp.ids), w
                )
        assert [r.source for r in responses] == ["computed", "cache"]

    def test_front_door_serves_the_scaled_ranking(self, data):
        w = self.OVERFLOW
        engine = GIREngine(data, bulk_load_str(data))
        responses = serve_through_front(engine, [(w, 10), (w, 10)])
        assert [r.source for r in responses] == ["computed", "cache"]
        assert all(r.ids == self.expected(data, w) for r in responses)


class TestDegenerateInputs:
    """Degenerate inputs served like any other, on the engine and through
    the front door, checked against ``scan_topk``: ``k`` equal to the live
    count, a table of identical records, and weights on a facet of the
    unit box."""

    @staticmethod
    def served_twice(data, w, k):
        """Serve ``(w, k)`` twice on a fresh engine and twice through a
        fresh front door: a miss, then a cache hit, each with
        ``scan_topk``'s ids. Returns those ids."""
        expected = scan_topk(data.points, w, k).ids
        engine = GIREngine(data, bulk_load_str(data))
        first, repeat = engine.topk(w, k), engine.topk(w, k)
        assert (first.source, repeat.source) == ("computed", "cache")
        assert first.ids == repeat.ids == expected
        responses = serve_through_front(
            GIREngine(data, bulk_load_str(data)), [(w, k), (w, k)]
        )
        assert [r.source for r in responses] == ["computed", "cache"]
        assert all(r.ids == expected for r in responses)
        return expected

    def test_k_equal_to_the_live_count(self):
        data = independent(40, 3, seed=5)
        w = np.array([0.3, 0.5, 0.2])
        expected = self.served_twice(data, w, 40)
        # Warm engines: the cache holds the k = 40 answer when k is judged.
        engine = GIREngine(data, bulk_load_str(data))
        engine.topk(w, 40)
        engine.delete(expected[-1])
        with pytest.raises(ValueError, match="exceeds live record count 39"):
            engine.topk(w, 40)

        async def after_a_delete():
            async with ServeFront(GIREngine(data, bulk_load_str(data))) as front:
                await front.topk(w, 40)
                await front.delete(expected[-1])
                with pytest.raises(Rejected, match="exceeds live record count"):
                    await front.topk(w, 40)

        asyncio.run(after_a_delete())

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
