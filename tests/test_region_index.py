"""Tests for the vectorized region-membership index."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.caching import GIRCache, invalidated_by_insert
from repro.core.gir import compute_gir
from repro.core.region_index import (
    RegionIndex,
    SCREEN_EVICT,
    SCREEN_LP,
    SCREEN_SAFE,
    SCREEN_TIE,
)
from repro.core.tolerances import MEMBERSHIP_TOL
from repro.data.synthetic import independent
from repro.geometry.polytope import Polytope
from repro.index.bulkload import bulk_load_str
from tests.conftest import random_query


def random_region(rng, d: int, cuts: int = 3) -> Polytope:
    """A random cone-through-origin ∩ unit box (the GIR shape)."""
    normals = rng.normal(size=(cuts, d))
    return Polytope.from_unit_box(d).with_constraints(normals)


@pytest.fixture(scope="module")
def indexed_setup():
    data = independent(700, 3, seed=23)
    tree = bulk_load_str(data)
    return data, tree


class TestMembership:
    def test_matches_per_entry_contains(self, rng):
        index = RegionIndex(3)
        regions = [random_region(rng, 3) for _ in range(10)]
        for key, region in enumerate(regions):
            index.add(key, region)
        assert len(index) == 10
        assert index.rows == sum(r.m for r in regions)
        X = rng.uniform(-0.1, 1.1, size=(100, 3))
        expected = np.array([[r.contains(x) for r in regions] for x in X])
        assert (index.membership_batch(X) == expected).all()

    def test_membership_batch_matches_rows(self, rng):
        """A row's answer does not depend on the batch around it: each
        equals the same vector's batch of one."""
        index = RegionIndex(3)
        regions = [random_region(rng, 3) for _ in range(7)]
        for key, region in enumerate(regions):
            index.add(key, region)
        X = rng.uniform(-0.1, 1.1, size=(60, 3))
        batch = index.membership_batch(X)
        assert batch.shape == (60, 7)
        for i in range(60):
            assert (batch[i] == index.membership_batch(X[i : i + 1])[0]).all()

    def test_remove_splices_segments(self, rng):
        """Removing the first, a middle or the last entry, or several at
        once, splices exactly their row segments out."""
        for dropped in ([0], [3], [5], [5, 1, 3]):
            index = RegionIndex(3)
            regions = {key: random_region(rng, 3) for key in range(6)}
            for key, region in regions.items():
                index.add(key, region)
            if len(dropped) == 1:
                assert index.remove_many(dropped) == 1
                assert index.remove_many(dropped) == 0  # already gone
            else:
                assert index.remove_many(dropped + [dropped[0], 99]) == 3
            for key in dropped:
                del regions[key]
            assert index.keys() == list(regions)
            assert index.rows == sum(r.m for r in regions.values())
            X = rng.uniform(-0.1, 1.1, size=(60, 3))
            expected = np.array([[regions[k].contains(x) for k in index.keys()] for x in X])
            assert (index.membership_batch(X) == expected).all()

    def test_clear(self, rng):
        index = RegionIndex(2)
        index.add(0, random_region(rng, 2))
        index.clear()
        assert len(index) == 0 and index.rows == 0
        assert index.membership_batch(np.zeros((4, 2))).shape == (4, 0)

    def test_rejects_mismatched_dimension_and_duplicates(self, rng):
        index = RegionIndex(3)
        with pytest.raises(ValueError):
            index.add(0, random_region(rng, 2))
        index.add(0, random_region(rng, 3))
        with pytest.raises(KeyError):
            index.add(0, random_region(rng, 3))
        with pytest.raises(ValueError):
            index.membership_batch(np.zeros((4, 2)))


def add_gir(index: RegionIndex, key: int, gir, data) -> None:
    """Index a computed GIR the way ``GIRCache`` does: its k-th record's
    g-image and its query vector as the rays' interior point."""
    index.add(
        key, gir.polytope, kth_g=data.points[gir.topk.kth_id], interior=gir.weights
    )


def assert_decided_verdicts_match_lp(codes, entries, p) -> tuple[int, int]:
    """Every SAFE / EVICT verdict equals the invalidation LP's; TIE means
    a bit-identical g-image. ``entries`` is ``[(gir, kth_g)]`` aligned with
    ``codes``. Returns the (safe, evict) counts."""
    safe = evict = 0
    for code, (gir, kth_g) in zip(codes, entries):
        if code == SCREEN_SAFE:
            safe += 1
            assert not invalidated_by_insert(gir, p, kth_g)
        elif code == SCREEN_EVICT:
            evict += 1
            assert invalidated_by_insert(gir, p, kth_g)
        elif code == SCREEN_TIE:
            assert (p == kth_g).all()
    return safe, evict


class TestPrescreen:
    def test_safe_entries_agree_with_lp(self, indexed_setup, rng):
        """Every SAFE and EVICT verdict must be confirmed by the exact LP
        test — the screen decides, it never guesses."""
        data, tree = indexed_setup
        index = RegionIndex(3)
        entries = []
        for key in range(12):
            gir = compute_gir(tree, data, random_query(rng, 3), 8)
            add_gir(index, key, gir, data)
            entries.append((gir, data.points[gir.topk.kth_id]))
        checked_safe = checked_evict = 0
        for i in range(60):
            # Uniform inserts are mostly safe; ones from the high corner
            # beat most k-th records everywhere, so evictions fire whatever
            # queries the shared generator dealt.
            p = rng.random(3) if i % 2 else 0.8 + 0.2 * rng.random(3)
            safe, evict = assert_decided_verdicts_match_lp(
                index.prescreen_insert(p), entries, p
            )
            checked_safe += safe
            checked_evict += evict
        assert checked_safe > 0 and checked_evict > 0  # both decisions fire

    def test_tie_detected_exactly(self, indexed_setup, rng):
        data, tree = indexed_setup
        gir = compute_gir(tree, data, random_query(rng, 3), 8)
        index = RegionIndex(3)
        add_gir(index, 0, gir, data)
        codes = index.prescreen_insert(data.points[gir.topk.kth_id])
        assert codes[0] == SCREEN_TIE

    def test_dominating_insert_not_screened(self, indexed_setup, rng):
        """A record strictly dominating the k-th result is never SAFE: the
        rays decide the eviction, and the LP agrees."""
        data, tree = indexed_setup
        gir = compute_gir(tree, data, random_query(rng, 3), 8)
        kth_g = data.points[gir.topk.kth_id]
        index = RegionIndex(3)
        add_gir(index, 0, gir, data)
        above = np.clip(kth_g + 0.05, 0, 1)
        codes = index.prescreen_insert(above)
        assert codes[0] == SCREEN_EVICT
        assert invalidated_by_insert(gir, above, kth_g)

    def test_entries_without_kth_g_always_lp(self, rng):
        index = RegionIndex(3)
        index.add(0, random_region(rng, 3))
        index.add(1, random_region(rng, 3), kth_g=np.zeros(3))  # no interior
        codes = index.prescreen_insert(rng.random(3))
        assert (codes == SCREEN_LP).all()

    def test_degenerate_region_falls_back_without_false_safe(self, rng):
        """An entry whose region has no interior (so no interior point for
        the ray enumeration) must go to the LP, never silently SAFE against
        a dominating insert."""
        # x1 <= 0 and x1 >= 0 inside the box: a 2-d face, no interior.
        flat = Polytope.from_unit_box(3).with_constraints(
            np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        )
        index = RegionIndex(3)
        index.add(
            0, flat, kth_g=np.array([0.2, 0.2, 0.2]), interior=np.array([0.0, 0.5, 0.5])
        )
        codes = index.prescreen_insert(np.array([0.9, 0.9, 0.9]))
        assert codes[0] == SCREEN_LP

    def test_screen_survives_add_remove_cycles(self, indexed_setup, rng):
        data, tree = indexed_setup
        index = RegionIndex(3)
        girs = {}
        for key in range(6):
            gir = compute_gir(tree, data, random_query(rng, 3), 6)
            girs[key] = gir
            add_gir(index, key, gir, data)
        index.remove_many([2])
        del girs[2]
        gir = compute_gir(tree, data, random_query(rng, 3), 6)
        girs[99] = gir
        add_gir(index, 99, gir, data)
        p = rng.random(3)
        codes = index.prescreen_insert(p)
        assert len(codes) == len(index.keys())
        assert_decided_verdicts_match_lp(
            codes,
            [(girs[k], data.points[girs[k].topk.kth_id]) for k in index.keys()],
            p,
        )


    def test_splice_matches_fresh_index(self, indexed_setup):
        """After every step of a random add / remove / remove_many / clear
        sequence, the spliced index answers exactly like one built fresh
        from the surviving entries: same keys, rows, membership and
        prescreen codes. An add into three or more entries evicts the
        oldest in the same pass (``evict=``, the cache's capacity
        overflow). The pool mixes GIRs, entries without ``kth_g`` and
        rayless (flat) entries."""
        data, tree = indexed_setup
        rng = np.random.default_rng(39)
        flat = Polytope.from_unit_box(3).with_constraints(
            np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        )
        pool = []  # (polytope, kth_g, interior)
        for _ in range(8):
            gir = compute_gir(tree, data, random_query(rng, 3), 6)
            pool.append((gir.polytope, data.points[gir.topk.kth_id], gir.weights))
        pool += [(random_region(rng, 3), None, None) for _ in range(3)]
        pool += [(flat, np.full(3, 0.2), np.array([0.0, 0.5, 0.5]))] * 2
        X = rng.uniform(-0.1, 1.1, size=(40, 3))
        points = np.vstack([rng.random((4, 3)), 0.8 + 0.2 * rng.random((4, 3))])
        index, live, next_key = RegionIndex(3), {}, 0
        decided, evictions = set(), 0
        for _ in range(60):
            u = rng.random()
            if u < 0.55 or not live:
                polytope, kth_g, interior = pool[rng.integers(len(pool))]
                oldest = next(iter(live)) if len(live) >= 3 else None
                index.add(next_key, polytope, kth_g=kth_g, interior=interior, evict=oldest)
                live.pop(oldest, None)
                live[next_key] = (polytope, kth_g, interior)
                next_key += 1
                evictions += oldest is not None
            elif u < 0.75:
                key = list(live)[rng.integers(len(live))]
                assert index.remove_many([key]) == 1
                del live[key]
            elif u < 0.95:
                keys = list(rng.choice(list(live), size=min(3, len(live)), replace=False))
                assert index.remove_many(keys + [next_key + 7]) == len(keys)
                for key in keys:
                    del live[key]
            else:
                index.clear()
                live.clear()
            fresh = RegionIndex(3)
            for key, (polytope, kth_g, interior) in live.items():
                fresh.add(key, polytope, kth_g=kth_g, interior=interior)
            assert index.keys() == fresh.keys() == list(live)
            assert index.rows == fresh.rows
            assert (index.membership_batch(X) == fresh.membership_batch(X)).all()
            for p in points:
                codes = index.prescreen_insert(p)
                assert (codes == fresh.prescreen_insert(p)).all()
                decided.update(codes.tolist())
        assert {SCREEN_SAFE, SCREEN_LP, SCREEN_EVICT} <= decided
        assert evictions >= 5

    def test_rejected_insert_at_capacity_evicts_nothing(self, indexed_setup, rng):
        """A full cache checks a new entry before it splices out its LRU
        entry: a misshapen ``kth_g`` leaves the entries, the counters and
        the LRU order as they were."""
        data, tree = indexed_setup
        cache = GIRCache(capacity=3)
        for _ in range(3):
            gir = compute_gir(tree, data, random_query(rng, 3), 5)
            cache.insert(gir, kth_g=data.points[gir.topk.kth_id])
        before, order = cache.stats(), [key for key, _ in cache.items()]
        rows = cache._index.rows
        other = compute_gir(tree, data, random_query(rng, 3), 5)
        with pytest.raises(ValueError, match="kth_g"):
            cache.insert(other, kth_g=np.zeros(4))
        assert len(cache) == 3 and cache.stats() == before
        assert [key for key, _ in cache.items()] == order
        assert cache._index.keys() == order and cache._index.rows == rows
        cache.insert(other, kth_g=data.points[other.topk.kth_id])
        assert [key for key, _ in cache.items()] == order[1:] + [3]
        assert cache.stats()["capacity_evictions"] == 1

def _cache_entries(cache: GIRCache, g_of) -> list:
    """``[(gir, kth_g)]`` of a cache's region index, in index order."""
    index = cache._index
    return [
        (gir, g_of(gir.topk.kth_id))
        for gir in (cache.entry(key) for key in index.keys())
    ]


def _assert_cache_screen_matches_lp(cache: GIRCache, g_of, inserts) -> None:
    """Screen a live cache against each insert (nothing is evicted) and
    check every decided verdict against the LP; both must fire."""
    index = cache._index
    entries = _cache_entries(cache, g_of)
    assert len(entries) >= 8
    safe = evict = 0
    for p in inserts:
        s, e = assert_decided_verdicts_match_lp(
            index.prescreen_insert(p), entries, p
        )
        safe, evict = safe + s, evict + e
    assert safe > 0 and evict > 0


class TestScreenDifferential:
    """SAFE / EVICT verdicts equal the invalidation LP's on the regions
    the serving engines actually cache, for high and uniform inserts."""

    @staticmethod
    def _inserts(rng, d, count=10):
        high = 0.75 + 0.25 * rng.random((count, d))
        return list(high) + list(rng.random((count, d)))

    def test_engine_cache_matches_lp(self, rng):
        from repro.engine import GIREngine

        data = independent(2000, 3, seed=31)
        engine = GIREngine(data, cache_capacity=32)
        for _ in range(24):
            engine.topk(random_query(rng, 3), 10)
        _assert_cache_screen_matches_lp(
            engine.cache, lambda rid: engine.points_g[rid], self._inserts(rng, 3)
        )

    def test_sharded_caches_match_lp(self, rng):
        from repro.cluster import ShardedGIREngine

        data = independent(2000, 3, seed=32)
        with ShardedGIREngine(data, shards=2, cluster_cache_capacity=32) as engine:
            for _ in range(24):
                engine.topk(random_query(rng, 3), 10)
            inserts = self._inserts(rng, 3)
            _assert_cache_screen_matches_lp(engine.cache, engine._g_of, inserts)
            for backend in engine.backends:
                shard = backend.engine
                _assert_cache_screen_matches_lp(
                    shard.cache, lambda rid, s=shard: s.points_g[rid], inserts
                )


class TestScreenBand:
    """Pins SCREEN_SAFETY and the bracket arithmetic ``[s, d·m]`` on cones
    whose rays are known in closed form: the triangle-inequality cone in
    d = 3 (rays ``(1, 1, 0) / 2`` and permutations, ``max(r) = 1/2``) and
    the d = 2 cone ``w0 ≤ 3 w1, w1 ≤ 3 w0`` (rays ``(1, 3) / 4``,
    ``(3, 1) / 4``, ``max(r) = 3/4``). Along ``δ = c · 1`` every ray has
    ``δ · r = c``, so ``m = c`` and ``s = c / max(r)``."""

    CASES = {
        3: (
            np.array([[1.0, -1, -1], [-1, 1, -1], [-1, -1, 1]]),
            np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        ),
        2: (
            np.array([[1.0, -3.0], [-3.0, 1.0]]),
            np.array([[0.25, 0.75], [0.75, 0.25]]),
        ),
    }

    @pytest.mark.parametrize("d", [2, 3])
    def test_band_edges(self, d):
        from repro.core.tolerances import MEMBERSHIP_TOL as tol, SCREEN_SAFETY as safety

        rows, rays = self.CASES[d]
        cone = Polytope(
            np.vstack([Polytope.from_unit_box(d).A, rows]),
            np.concatenate([Polytope.from_unit_box(d).b, np.zeros(len(rows))]),
        )
        interior = np.full(d, 0.5)
        got = cone.cone_rays(interior)
        assert got is not None
        assert {tuple(r) for r in np.round(got, 12)} == {tuple(r) for r in rays}
        rmax = rays.max()
        index = RegionIndex(d)
        index.add(0, cone, kth_g=np.zeros(d), interior=interior)

        def verdict_at(c):
            return int(index.prescreen_insert(np.full(d, c))[0])

        nudge = 1e-3 * safety  # far above rounding, far below the band
        # Upper edge d·m = tol − safety: inside is SAFE, just past it LP.
        assert verdict_at((tol - safety - nudge) / d) == SCREEN_SAFE
        assert verdict_at((tol - safety + nudge) / d) == SCREEN_LP
        assert verdict_at((tol - safety / 2) / d) == SCREEN_LP
        # Lower edge s = tol + safety: just short of it LP, past it EVICT.
        assert verdict_at((tol + safety - nudge) * rmax) == SCREEN_LP
        assert verdict_at((tol + safety + nudge) * rmax) == SCREEN_EVICT
        assert verdict_at((tol + 2 * safety) * rmax) == SCREEN_EVICT


#: Cone shapes for the screen property: ``degenerate`` kinds must make
#: ``cone_rays`` give up (the entry is LP); the rest must screen soundly.
_DEGENERATE_KINDS = ("zero_weight", "tie_at_query", "flat", "inhomogeneous")
_CONE_KINDS = ("plain", "duplicate_points") + _DEGENERATE_KINDS


@st.composite
def screened_cone(draw):
    """A GIR-shaped region (box rows + cone rows through the origin), its
    query vector, a k-th record and inserts around it, in d = 2..5."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    d = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(_CONE_KINDS))
    w = rng.random(d) * 0.8 + 0.1
    if kind == "zero_weight":
        w[rng.integers(d)] = 0.0  # the query vector sits on a box facet
    normals = rng.normal(size=(int(rng.integers(1, 2 * d + 1)), d))
    normals *= np.where(normals @ w < 0.0, -1.0, 1.0)[:, None]  # w inside
    if kind == "tie_at_query":
        # Two records scoring the same at w: their row passes through it.
        normals[0] -= (normals[0] @ w) / (w @ w) * w
    elif kind == "duplicate_points":
        normals = np.vstack([normals, np.zeros(d)])  # constrains nothing
    elif kind == "flat":
        normals = np.vstack([normals, -normals[0]])
    region = Polytope.from_unit_box(d).with_constraints(normals)
    if kind == "inhomogeneous":
        cap = np.zeros((1, d))
        cap[0, 0] = 1.0
        region = Polytope(np.vstack([region.A, cap]), np.append(region.b, 0.95))
    kth = rng.random(d)
    inserts = [rng.random(d), 0.8 + 0.2 * rng.random(d), kth.copy()]
    inserts += [kth + rng.normal(0.0, scale, d) for scale in (1e-3, 1e-6, 1e-9)]
    return kind, region, w, kth, inserts


class TestScreenProperty:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(screened_cone())
    def test_screen_never_decides_wrongly(self, case):
        """On plain and degenerate cones the screen never returns a wrong
        SAFE or EVICT; where the rays cannot be enumerated soundly (query
        vector on a facet, a score tie at it, a flat region, a row that is
        not a cone's) the entry is always LP."""
        kind, region, w, kth, inserts = case
        degenerate = kind in _DEGENERATE_KINDS
        if degenerate:
            assert region.cone_rays(w) is None
        index = RegionIndex(region.d)
        index.add(0, region, kth_g=kth, interior=w)
        for p in inserts:
            code = index.prescreen_insert(p)[0]
            delta = p - kth
            if degenerate:
                assert code == SCREEN_LP
            elif code == SCREEN_TIE:
                assert not delta.any()
            elif code in (SCREEN_SAFE, SCREEN_EVICT):
                lp = (delta > 0.0).any() and region.maximize(delta) > MEMBERSHIP_TOL
                assert lp == (code == SCREEN_EVICT)


class TestCachePrescreenIntegration:
    def test_cache_prescreen_partition_is_total(self, indexed_setup, rng):
        data, tree = indexed_setup
        cache = GIRCache()
        for _ in range(8):
            gir = compute_gir(tree, data, random_query(rng, 3), 8)
            cache.insert(gir, kth_g=data.points[gir.topk.kth_id])
        for p in (rng.random(3), np.full(3, 0.95)):
            pre = cache.prescreen_insert(p)
            combined = sorted(pre.safe + pre.ties + pre.evict + pre.candidates)
            assert combined == sorted(key for key, _ in cache.items())
            assert pre.screened == len(pre.safe) + len(pre.ties) + len(pre.evict)
        assert pre.evict  # the high insert is decided without an LP

    def test_entries_inserted_without_kth_g_are_candidates(
        self, indexed_setup, rng
    ):
        data, tree = indexed_setup
        cache = GIRCache()
        gir = compute_gir(tree, data, random_query(rng, 3), 8)
        cache.insert(gir)  # no kth_g: prescreen cannot clear it
        pre = cache.prescreen_insert(rng.random(3))
        assert pre.safe == () and pre.ties == ()
        assert len(pre.candidates) == 1


class TestLookupAgreement:
    """The stacked-matvec lookup and the per-entry scan agree."""

    def test_lookups_match_scan_on_mixed_stream(self, indexed_setup, rng):
        """On a mixed stream (cached query vectors and probes near them,
        then uniform probes) the stacked lookup and the per-entry scan
        agree on every outcome."""
        data, tree = indexed_setup
        cache, scan_cache = GIRCache(capacity=16), GIRCache(capacity=16)
        cached_queries = []
        while len(cache) < 16:
            q = rng.random(3) * 0.8 + 0.1
            gir = compute_gir(tree, data, q, 10)
            cache.insert(gir)
            scan_cache.insert(gir)
            cached_queries.append(q)
        near = cached_queries + [
            np.clip(q + rng.normal(0.0, 0.01, 3), 0.01, 1.0)
            for q in cached_queries
            for _ in range(5)
        ]
        uniform = list(rng.random((len(near), 3)))

        def outcome(hit):
            return None if hit is None else (hit.ids, hit.entry_key)

        def hits_of(probes):
            hits = 0
            for p in probes:
                expected = outcome(scan_cache.lookup_scan(p, 10))
                assert outcome(cache.lookup(p, 10)) == expected
                hits += expected is not None
            return hits

        assert hits_of(near) >= len(cached_queries)
        hits_of(uniform)

    def test_near_facet_membership_property(self, rng):
        """The stacked lookup never disagrees with the per-entry scan for
        weights within ±10·tol of cached facet boundaries — the tolerance
        worst case."""
        tol = 1e-9
        for d in (2, 4, 6):
            data = independent(400, d, seed=60 + d)
            tree = bulk_load_str(data)
            cache = GIRCache(capacity=32)
            scan_cache = GIRCache(capacity=32)
            girs = []
            queries = []
            for _ in range(6):
                q = rng.random(d) * 0.8 + 0.1
                gir = compute_gir(tree, data, q, 5)
                cache.insert(gir)
                scan_cache.insert(gir)
                girs.append(gir)
                queries.append(q)
            probes = []
            for gir, q in zip(girs, queries):
                A_n, b_n = gir.polytope.normalized_halfspaces()
                for row in range(min(len(b_n), 12)):
                    a = A_n[row]
                    # Project the cached query vector onto the facet's
                    # hyperplane, then nudge it to ±10·tol of the boundary.
                    base = q + (b_n[row] - a @ q) * a
                    for off in (-10 * tol, -tol, 0.0, tol, 10 * tol):
                        probes.append(base + off * a)
            for p in probes:
                hit = cache.lookup(p, 5)
                hit_s = scan_cache.lookup_scan(p, 5)
                assert (hit is None) == (hit_s is None)
                if hit is not None:
                    assert hit.ids == hit_s.ids
                    assert hit.entry_key == hit_s.entry_key
