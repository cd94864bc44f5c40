"""Tests for GIR-based result caching (Section 1 application)."""

import numpy as np
import pytest

from repro.core.caching import GIRCache, apply_insert_invalidation
from repro.core.gir import compute_gir
from repro.data.synthetic import independent
from repro.cluster import ShardedGIREngine
from repro.engine import GIREngine
from repro.geometry.polytope import Polytope
from repro.index.bulkload import bulk_load_str
from repro.query.brs import brs_topk
from repro.query.linear_scan import scan_topk
from tests.conftest import LEDGER_CLUSTER_KWARGS, lp_evicts, random_query


@pytest.fixture(scope="module")
def cached_setup():
    data = independent(800, 3, seed=71)
    tree = bulk_load_str(data)
    return data, tree


class TestLookup:
    def test_hit_inside_gir(self, cached_setup, rng):
        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10)
        cache = GIRCache()
        cache.insert(gir)
        # Probe with a vector sampled inside the GIR.
        probes = gir.polytope.sample(5, rng)
        for probe in probes:
            if (probe <= 1e-9).all():
                continue
            hit = cache.lookup(probe, 10)
            assert hit is not None
            assert hit.ids == gir.topk.ids
            # The served answer is genuinely correct:
            assert hit.ids == scan_topk(data.points, probe, 10).ids

    def test_miss_outside_gir(self, cached_setup, rng):
        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10)
        cache = GIRCache()
        cache.insert(gir)
        # A far-away vector with a different result must miss or, if inside,
        # serve the identical result — verify no wrong answers either way.
        for _ in range(20):
            probe = rng.random(3)
            hit = cache.lookup(probe, 10)
            if hit is not None:
                assert hit.ids == scan_topk(data.points, probe, 10).ids

    def test_smaller_k_served_from_prefix(self, cached_setup, rng):
        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10)
        cache = GIRCache()
        cache.insert(gir)
        hit = cache.lookup(q, 3)
        assert hit is not None
        assert hit.ids == gir.topk.ids[:3]
        assert hit.ids == scan_topk(data.points, q, 3).ids

    def test_larger_k_misses(self, cached_setup, rng):
        """A vector inside a GIR cached only for a smaller k is a miss:
        the containing entry is not touched, and ``misses`` counts it."""
        data, tree = cached_setup
        q = random_query(rng, 3)
        cache = GIRCache()
        cache.insert(compute_gir(tree, data, q, 10))
        cache.insert(compute_gir(tree, data, random_query(rng, 3), 5))
        order = [key for key, _ in cache.items()]
        assert cache.lookup(q, 25) is None
        assert cache.lookup_scan(q, 25) is None
        assert [key for key, _ in cache.items()] == order
        stats = cache.stats()
        assert (stats["full_hits"], stats["misses"]) == (0, 2)

    def test_dimension_mismatch_raises(self, cached_setup, rng):
        """The first insert fixes the cache's d. A region of another d is
        rejected before anything is written; a lookup or an insert screen
        of another d raises instead of missing or evicting."""
        data, tree = cached_setup
        gir = compute_gir(tree, data, random_query(rng, 3), 5)
        cache = GIRCache()
        cache.insert(gir, kth_g=data.points[gir.topk.kth_id])
        data4 = independent(300, 4, seed=72)
        gir4 = compute_gir(bulk_load_str(data4), data4, random_query(rng, 4), 5)
        before = cache.stats()
        with pytest.raises(ValueError, match="3-d"):
            cache.insert(gir4, kth_g=data4.points[gir4.topk.kth_id])
        assert len(cache) == 1 and cache.stats() == before
        with pytest.raises(ValueError):
            cache.lookup(np.array([0.5, 0.5]), 5)
        with pytest.raises(ValueError):
            cache.lookup_batch(np.full((2, 4), 0.5), 5)
        with pytest.raises(ValueError, match=r"\(3,\)"):
            apply_insert_invalidation(
                cache, np.full(4, 0.5), 2.0, 10**6, data4.points.__getitem__
            )
        assert cache.stats() == before
        assert cache.lookup(gir.weights, 5).ids == gir.topk.ids

    def test_misshapen_kth_g_rejected(self, cached_setup, rng):
        """A ``kth_g`` that is not ``(d,)`` is a ValueError raised before
        anything is written: the cache keeps its entries and counters, and
        later insert screens still run."""
        data, tree = cached_setup
        gir = compute_gir(tree, data, random_query(rng, 3), 5)
        cache = GIRCache()
        cache.insert(gir, kth_g=data.points[gir.topk.kth_id])
        before = cache.stats()
        other = compute_gir(tree, data, random_query(rng, 3), 5)
        for bad in (np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(ValueError, match=r"kth_g must have shape \(3,\)"):
                cache.insert(other, kth_g=bad)
            assert len(cache) == 1 and cache.stats() == before
        pre = cache.prescreen_insert(rng.random(3))
        assert pre.screened + len(pre.undecided) == 1
        # A rejected first insert does not fix the cache's d either.
        fresh = GIRCache()
        with pytest.raises(ValueError):
            fresh.insert(other, kth_g=np.zeros(4))
        assert len(fresh) == 0 and fresh.stats() == GIRCache().stats()
        data4 = independent(300, 4, seed=73)
        fresh.insert(compute_gir(bulk_load_str(data4), data4, random_query(rng, 4), 5))
        assert len(fresh) == 1


class TestEvictionAndStats:
    def test_lru_eviction(self, cached_setup, rng):
        data, tree = cached_setup
        cache = GIRCache(capacity=2)
        girs = [compute_gir(tree, data, random_query(rng, 3), 5) for _ in range(3)]
        for g in girs:
            cache.insert(g)
        assert len(cache) == 2
        # The first-inserted entry is gone: its own q misses unless covered
        # by a later entry's GIR.
        hit = cache.lookup(girs[0].weights, 5)
        if hit is not None:
            assert hit.ids == girs[0].topk.ids or hit.entry_key != 0

    def test_stats_counts(self, cached_setup, rng):
        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 5)
        cache = GIRCache()
        cache.insert(gir)
        cache.lookup(q, 5)
        outside = next(
            c for c in (rng.random(3) for _ in range(1000)) if not gir.contains(c)
        )
        cache.lookup(outside, 5)
        stats = cache.stats()
        assert stats["full_hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_stats_non_overlapping(self, cached_setup, rng):
        """Every lookup lands in exactly one of full hit / miss."""
        data, tree = cached_setup
        q = random_query(rng, 3)
        cache = GIRCache()
        cache.insert(compute_gir(tree, data, q, 5))
        cache.lookup(q, 3)   # full
        cache.lookup(q, 20)  # deeper than the entry: miss
        # Probe random points until one misses (counts toward stats).
        lookups = 2
        for c in (rng.random(3) for _ in range(1000)):
            lookups += 1
            if cache.lookup(c, 5) is None:
                break
        stats = cache.stats()
        assert stats["full_hits"] >= 1 and stats["misses"] >= 2
        assert stats["full_hits"] + stats["misses"] == lookups

    def test_insert_keeps_wider_shallow_entries(self, cached_setup, rng):
        """A deeper-k GIR is a *smaller* region (more constraints), so it
        must not evict a shallower entry at the same spot: the shallow
        entry's wider region still serves traffic the deep one misses."""
        data, tree = cached_setup
        q = random_query(rng, 3)
        cache = GIRCache()
        shallow = compute_gir(tree, data, q, 5)
        cache.insert(shallow)
        cache.insert(compute_gir(tree, data, q, 15))
        assert len(cache) == 2
        # A probe inside the wide region but outside the deep one is still
        # a full hit at k=5.
        for probe in shallow.polytope.sample(40, rng):
            if (probe <= 1e-9).all():
                continue
            assert cache.lookup(probe, 5) is not None

    def test_insert_keeps_deeper_entries(self, cached_setup, rng):
        """An entry cached for a larger k is NOT subsumed by a shallower
        GIR at the same spot — it still serves deeper requests."""
        data, tree = cached_setup
        q = random_query(rng, 3)
        cache = GIRCache()
        cache.insert(compute_gir(tree, data, q, 15))
        cache.insert(compute_gir(tree, data, q, 5))
        assert len(cache) == 2
        hit = cache.lookup(q, 15)
        assert hit is not None and len(hit.ids) == 15

    def test_capacity_evictions_counted(self, cached_setup, rng):
        """Regression: LRU-capacity overflow must be visible in stats() so
        eviction counters fully explain entry churn."""
        data, tree = cached_setup
        cache = GIRCache(capacity=2)
        inserts = 0
        for _ in range(12):
            cache.insert(compute_gir(tree, data, random_query(rng, 3), 5))
            inserts += 1
            if cache.stats()["capacity_evictions"] >= 2:
                break
        stats = cache.stats()
        assert stats["capacity_evictions"] >= 1
        assert stats["entries"] <= 2
        # Churn bookkeeping closes exactly: every insert is either still
        # cached or accounted to one eviction counter.
        assert inserts == (
            stats["entries"]
            + stats["capacity_evictions"]
            + stats["invalidation_evictions"]
        )

    def test_vectorized_lookup_matches_scan(self, cached_setup, rng):
        """The region-index lookup and the per-entry reference scan give
        identical hits (entry, prefix) and identical
        accounting on the same probe stream."""
        data, tree = cached_setup
        girs = [
            compute_gir(tree, data, random_query(rng, 3), int(k))
            for k in (5, 5, 10, 10, 15)
        ]
        vec, scan = GIRCache(), GIRCache()
        for g in girs:
            assert vec.insert(g) == scan.insert(g)
        for _ in range(150):
            probe = rng.random(3)
            k = int(rng.integers(3, 18))
            hv = vec.lookup(probe, k)
            hs = scan.lookup_scan(probe, k)
            assert (hv is None) == (hs is None)
            if hv is not None:
                assert (hv.ids, hv.entry_key) == (hs.ids, hs.entry_key)
        assert vec.stats() == scan.stats()

    def test_lookup_batch_matches_sequential(self, cached_setup, rng):
        data, tree = cached_setup
        girs = [
            compute_gir(tree, data, random_query(rng, 3), 8) for _ in range(4)
        ]
        batched, sequential = GIRCache(), GIRCache()
        for g in girs:
            batched.insert(g)
            sequential.insert(g)
        probes = np.stack([rng.random(3) for _ in range(80)])
        ks = [int(k) for k in rng.integers(4, 14, size=80)]
        batch_hits = batched.lookup_batch(probes, ks)
        seq_hits = [sequential.lookup(p, k) for p, k in zip(probes, ks)]
        assert len(batch_hits) == len(seq_hits)
        for hb, hs in zip(batch_hits, seq_hits):
            assert (hb is None) == (hs is None)
            if hb is not None:
                assert (hb.ids, hb.entry_key) == (hs.ids, hs.entry_key)
        assert batched.stats() == sequential.stats()

    def test_resolve_stops_after_first_miss(self, cached_setup, rng):
        data, tree = cached_setup
        q = random_query(rng, 3)
        cache = GIRCache()
        cache.insert(compute_gir(tree, data, q, 10))
        outside = next(
            c for c in (rng.random(3) for _ in range(1000))
            if not next(cache.items())[1].contains(c)
        )
        window = cache.lookup_window(np.stack([q, q, outside, outside, q]), 10)
        hits = cache.resolve(window)
        # Stops at (and accounts) the miss; the later rows are pending.
        assert [h is not None for h in hits] == [True, True, False]
        assert (window.resolved, window.pending) == (3, 2)
        assert cache.stats()["full_hits"] == 2
        assert cache.stats()["misses"] == 1
        # The caller admits the miss's region; the next run sees it.
        cache.insert(compute_gir(tree, data, outside, 10))
        rest = cache.resolve(window)
        assert [h is not None for h in rest] == [True, True]
        assert rest[0].entry_key == 1 and rest[1].entry_key == 0
        assert window.pending == 0
        assert cache.stats()["full_hits"] == 4

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            GIRCache(capacity=0)

    def test_origin_never_hits(self, cached_setup, rng):
        """The GIR is clipped to weight vectors; the origin ranks nothing
        (all scores zero) so serving it from cache would be wrong — the
        polytope technically contains the origin (it is the cone apex), so
        callers must not look up the zero vector. Document via behaviour:
        lookup at origin returns the cached entry, whose use is undefined."""
        data, tree = cached_setup
        gir = compute_gir(tree, data, random_query(rng, 3), 5)
        cache = GIRCache()
        cache.insert(gir)
        # This is a documented edge: the zero vector is degenerate for
        # ranking; we only assert the call does not crash.
        cache.lookup(np.zeros(3), 5)


class TestUpdateInvalidation:
    def test_evict_and_flush_mechanics(self, cached_setup, rng):
        data, tree = cached_setup
        cache = GIRCache()
        keys = [
            cache.insert(compute_gir(tree, data, random_query(rng, 3), 5))
            for _ in range(3)
        ]
        assert cache.evict([keys[0], 9999]) == 1  # unknown keys ignored
        assert len(cache) == 2
        assert cache.flush() == 2
        assert len(cache) == 0
        assert cache.stats()["invalidation_evictions"] == 3

    def test_insert_invalidation_halfspace_test(self, cached_setup, rng):
        """A challenger dominating the k-th record evicts the entry; a
        point dominated by it never does. The LP oracle agrees."""
        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10)
        kth = data.points[gir.topk.kth_id]
        above = np.clip(kth + 0.05, 0, 1)  # dominates p_k strictly
        below = np.clip(kth - 0.05, 0, 1)  # dominated by p_k
        for p, stale in ((above, True), (below, False)):
            cache = GIRCache()
            cache.insert(gir, kth_g=kth)
            evicted, _, _ = apply_insert_invalidation(
                cache, p, float(p.sum()), data.n, data.points.__getitem__
            )
            assert evicted == int(stale) == int(lp_evicts(gir.polytope, p, kth))

    def test_insert_invalidation_matches_ground_truth(self, cached_setup, rng):
        """The insert rule evicts every entry the exact LP would, and an
        insert that leaves the entry cached leaves its top-k intact at
        sampled vectors of its region."""
        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10)
        kth = data.points[gir.topk.kth_id]
        for _ in range(10):
            p_new = rng.random(3)
            cache = GIRCache()
            cache.insert(gir, kth_g=kth)
            evicted, _, _ = apply_insert_invalidation(
                cache, p_new, float(p_new.sum()), data.n, data.points.__getitem__
            )
            assert evicted or not lp_evicts(gir.polytope, p_new, kth)
            if evicted:
                continue
            extended = np.vstack([data.points, p_new])
            for probe in gir.polytope.sample(8, rng):
                if (probe <= 1e-9).all():
                    continue
                assert scan_topk(extended, probe, 10).ids == gir.topk.ids

    def test_delete_invalidation_result_and_tset(self, cached_setup, rng):
        from repro.core.caching import invalidated_by_delete

        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10)
        member = gir.topk.ids[3]
        assert invalidated_by_delete(gir, member)
        outsider = next(
            rid for rid in range(data.n) if rid not in gir.topk.ids
        )
        assert not invalidated_by_delete(gir, outsider)
        # A record BRS fetched but ranked out of the result (the T-set) is
        # a non-member too: deleting it leaves the entry valid.
        run = brs_topk(tree, data.points, q, 10, metered=False)
        assert run.encountered.size, "test needs a non-empty T-set"
        assert not any(
            invalidated_by_delete(gir, rid) for rid in run.encountered.tolist()
        )

    def test_insert_invalidation_score_tie_uses_tie_break(self, cached_setup, rng):
        """A challenger with the k-th record's exact g-image ties everywhere;
        whether it evicts the entry is decided by the ``(coord-sum, rid)``
        tie-break (an inserted duplicate always wins on its fresher rid)."""
        data, tree = cached_setup
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10)
        kth_id = gir.topk.kth_id
        kth = data.points[kth_id]
        for new_rid, wins in ((kth_id - 1, False), (data.n, True)):
            cache = GIRCache()
            cache.insert(gir, kth_g=kth)
            evicted, screened, undecided = apply_insert_invalidation(
                cache, kth, float(kth.sum()), new_rid, data.points.__getitem__
            )
            assert (evicted, screened, undecided) == (int(wins), 1, 0)
            assert wins == lp_evicts(gir.polytope, kth, kth, tie_wins=wins)


class TestCapacityEviction:
    """LRU is the cache's one capacity-eviction rule."""

    def test_eviction_churn_closes(self, cached_setup, rng):
        """Every insert ends up cached or evicted."""
        data, tree = cached_setup
        cache = GIRCache(capacity=2)
        inserts = 0
        for _ in range(12):
            cache.insert(compute_gir(tree, data, random_query(rng, 3), 5))
            inserts += 1
            if cache.capacity_evictions >= 2:
                break
        stats = cache.stats()
        assert stats["capacity_evictions"] >= 1
        assert inserts == (
            stats["entries"]
            + stats["capacity_evictions"]
            + stats["invalidation_evictions"]
        )

    def test_engines_accept_only_lru(self, cached_setup):
        """``cache_policy`` survives as a keyword that takes ``"lru"`` only
        (the kwargs below are the performance ledger's)."""
        data, tree = cached_setup
        engine = GIREngine(data, tree, method="fp", cache_capacity=128, cache_policy="lru")
        assert engine.cache.capacity == 128
        with pytest.raises(ValueError, match="cache policy"):
            GIREngine(data, tree, cache_policy="cost")
        cluster = ShardedGIREngine(data, **LEDGER_CLUSTER_KWARGS)
        cluster.close()
        with pytest.raises(ValueError, match="cache policy"):
            ShardedGIREngine(data, shards=2, cache_policy="cost")


def _count_polytope_calls(monkeypatch, calls, names, override=None):
    """Wrap ``Polytope.<name>`` for each name so ``calls[name]`` counts
    invocations; ``override(self, real, *args)`` replaces a call's result."""
    for name in names:
        real = getattr(Polytope, name)

        def counting(self, *args, _name=name, _real=real):
            calls[_name] += 1
            if override is not None:
                return override(self, _real, *args)
            return _real(self, *args)

        monkeypatch.setattr(Polytope, name, counting)


class TestPrescreenMemoization:
    """An entry's cone rays are enumerated once, when it is admitted; the
    prescreen is a pure read that never enumerates again."""

    def test_screen_entry_computed_once(self, cached_setup, rng, monkeypatch):
        """``cone_rays`` runs once per entry at insert and never on a
        prescreen, and deciding a non-degenerate cache (the prescreen plus
        the evictions it decides) never enumerates vertices, solves a
        Chebyshev LP or maximizes over a region."""
        data, tree = cached_setup
        girs = [compute_gir(tree, data, random_query(rng, 3), 5) for _ in range(6)]
        names = ("cone_rays", "vertices", "chebyshev_center", "maximize")
        calls = dict.fromkeys(names, 0)
        _count_polytope_calls(monkeypatch, calls, names)
        cache = GIRCache()
        for gir in girs:
            cache.insert(gir, kth_g=data.points[gir.topk.kth_id])
        entries = len(cache)
        assert calls["cone_rays"] == entries
        calls.update(dict.fromkeys(names, 0))
        first = cache.prescreen_insert(rng.random(3))
        for _ in range(5):
            cache.prescreen_insert(rng.random(3))
        # screened already includes the ties and the decided evictions.
        assert first.screened + len(first.undecided) == entries
        assert first.screened == (
            len(first.safe) + len(first.ties) + len(first.evict)
        )
        high = np.full(3, 0.99)
        evicted, screened, undecided = apply_insert_invalidation(
            cache,
            high,
            new_sum=float(high.sum()),
            new_rid=data.n,
            kth_point=lambda rid: data.points[rid],
        )
        assert evicted > 0 and undecided == 0 and screened == entries
        assert calls["cone_rays"] == 0
        assert calls["vertices"] == calls["chebyshev_center"] == 0
        assert calls["maximize"] == 0

    def test_rayless_entry_memoized_as_lp(self, cached_setup, rng, monkeypatch):
        """An entry whose ray enumeration fails at admission keeps its
        placeholder (no retry on later prescreens), is always undecided,
        and so is evicted by every insert, however harmless."""
        data, tree = cached_setup
        girs = [compute_gir(tree, data, random_query(rng, 3), 5) for _ in range(4)]
        failing = girs[0].polytope
        calls = {"cone_rays": 0}
        _count_polytope_calls(
            monkeypatch,
            calls,
            ["cone_rays"],
            override=lambda self, real, *args: (
                None if self is failing else real(self, *args)
            ),
        )
        inserts = [rng.random(3) for _ in range(3)] + [np.full(3, 1e-3)]

        def filled() -> GIRCache:
            cache = GIRCache()
            for gir in girs:
                cache.insert(gir, kth_g=data.points[gir.topk.kth_id])
            return cache

        cache = filled()
        rayless = next(cache.items())[0]
        for p in inserts:
            assert rayless in cache.prescreen_insert(p).undecided
        assert calls["cone_rays"] == len(girs)
        for p in inserts:
            cache = filled()
            apply_insert_invalidation(
                cache, p, float(p.sum()), data.n, data.points.__getitem__
            )
            assert rayless not in dict(cache.items())
