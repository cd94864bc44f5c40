"""Tests for the vectorized region-membership index."""

import numpy as np
import pytest

from repro.core.caching import GIRCache, invalidated_by_insert
from repro.core.gir import compute_gir
from repro.core.region_index import (
    GridSignature,
    RegionIndex,
    SCREEN_LP,
    SCREEN_SAFE,
    SCREEN_TIE,
)
from repro.data.synthetic import independent
from repro.geometry.polytope import Polytope
from repro.index.bulkload import bulk_load_str
from tests.conftest import random_query


def random_region(rng, d: int, cuts: int = 3) -> Polytope:
    """A random cone-through-origin ∩ unit box (the GIR shape)."""
    normals = rng.normal(size=(cuts, d))
    return Polytope.from_unit_box(d).with_constraints(normals)


def flat_cells(grid: GridSignature, A_n: np.ndarray, b_n: np.ndarray) -> np.ndarray:
    """Reference registration: every row's minimum over every cell in one
    product, the expression ``GridSignature.register`` prunes top-down."""
    from repro.core.region_index import _GRID_SLACK

    digits = (np.arange(grid.n_cells)[:, None] // grid._strides[None, :]) % grid.g
    lo = digits.astype(np.float64) / grid.g
    hi = (digits + 1).astype(np.float64) / grid.g
    mins = lo @ np.maximum(A_n, 0.0).T + hi @ np.minimum(A_n, 0.0).T
    return np.flatnonzero((mins <= b_n + _GRID_SLACK).all(axis=1))


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
        for _ in range(100):
            x = rng.uniform(-0.1, 1.1, 3)
            mask = index.membership(x)
            expected = np.array([r.contains(x) for r in regions])
            assert (mask == expected).all()

    def test_membership_batch_matches_rows(self, rng):
        index = RegionIndex(3)
        regions = [random_region(rng, 3) for _ in range(7)]
        for key, region in enumerate(regions):
            index.add(key, region)
        X = rng.uniform(-0.1, 1.1, size=(60, 3))
        batch = index.membership_batch(X)
        assert batch.shape == (60, 7)
        for i in range(60):
            assert (batch[i] == index.membership(X[i])).all()

    def test_remove_splices_segments(self, rng):
        index = RegionIndex(3)
        regions = {key: random_region(rng, 3) for key in range(6)}
        for key, region in regions.items():
            index.add(key, region)
        assert index.remove(3)
        assert not index.remove(3)  # already gone
        del regions[3]
        assert index.keys() == [0, 1, 2, 4, 5]
        assert index.rows == sum(r.m for r in regions.values())
        for _ in range(60):
            x = rng.uniform(-0.1, 1.1, 3)
            expected = np.array([regions[k].contains(x) for k in index.keys()])
            assert (index.membership(x) == expected).all()

    def test_clear(self, rng):
        index = RegionIndex(2)
        index.add(0, random_region(rng, 2))
        index.clear()
        assert len(index) == 0 and index.rows == 0
        assert index.membership(np.array([0.5, 0.5])).shape == (0,)
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


class TestPrescreen:
    def test_safe_entries_agree_with_lp(self, indexed_setup, rng):
        """Every SAFE verdict must be confirmed by the exact LP test —
        the screen may be loose, never wrong."""
        data, tree = indexed_setup
        index = RegionIndex(3)
        girs = {}
        for key in range(12):
            gir = compute_gir(tree, data, random_query(rng, 3), 8)
            girs[key] = gir
            index.add(key, gir.polytope, kth_g=data.points[gir.topk.kth_id])
        checked_safe = 0
        for _ in range(60):
            p = rng.random(3)
            codes = index.prescreen_insert(p)
            for key, code in zip(index.keys(), codes):
                gir = girs[key]
                kth_g = data.points[gir.topk.kth_id]
                if code == SCREEN_SAFE:
                    checked_safe += 1
                    assert not invalidated_by_insert(gir, p, kth_g)
                elif code == SCREEN_TIE:
                    assert (p == kth_g).all()
        assert checked_safe > 0  # the screen actually fires

    def test_tie_detected_exactly(self, indexed_setup, rng):
        data, tree = indexed_setup
        gir = compute_gir(tree, data, random_query(rng, 3), 8)
        index = RegionIndex(3)
        index.add(0, gir.polytope, kth_g=data.points[gir.topk.kth_id])
        codes = index.prescreen_insert(data.points[gir.topk.kth_id])
        assert codes[0] == SCREEN_TIE

    def test_dominating_insert_not_screened(self, indexed_setup, rng):
        """A record strictly dominating the k-th result must survive the
        screen (and the LP must then invalidate the entry)."""
        data, tree = indexed_setup
        gir = compute_gir(tree, data, random_query(rng, 3), 8)
        kth_g = data.points[gir.topk.kth_id]
        index = RegionIndex(3)
        index.add(0, gir.polytope, kth_g=kth_g)
        above = np.clip(kth_g + 0.05, 0, 1)
        codes = index.prescreen_insert(above)
        assert codes[0] == SCREEN_LP
        assert invalidated_by_insert(gir, above, kth_g)

    def test_entries_without_kth_g_always_lp(self, rng):
        index = RegionIndex(3)
        index.add(0, random_region(rng, 3))
        codes = index.prescreen_insert(rng.random(3))
        assert codes[0] == SCREEN_LP

    def test_degenerate_region_falls_back_without_false_safe(self, rng):
        """An entry whose region has no usable vertex set (empty interior)
        must classify via the ball fallback / LP, never silently SAFE
        against a dominating insert."""
        # x1 <= 0 and x1 >= 0 inside the box: a 2-d face, no interior.
        flat = Polytope.from_unit_box(3).with_constraints(
            np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        )
        index = RegionIndex(3)
        index.add(0, flat, kth_g=np.array([0.2, 0.2, 0.2]))
        codes = index.prescreen_insert(np.array([0.9, 0.9, 0.9]))
        assert codes[0] == SCREEN_LP

    def test_screen_survives_add_remove_cycles(self, indexed_setup, rng):
        data, tree = indexed_setup
        index = RegionIndex(3)
        girs = {}
        for key in range(6):
            gir = compute_gir(tree, data, random_query(rng, 3), 6)
            girs[key] = gir
            index.add(key, gir.polytope, kth_g=data.points[gir.topk.kth_id])
        index.prescreen_insert(rng.random(3))  # materialize
        index.remove(2)
        del girs[2]
        gir = compute_gir(tree, data, random_query(rng, 3), 6)
        girs[99] = gir
        index.add(99, gir.polytope, kth_g=data.points[gir.topk.kth_id])
        p = rng.random(3)
        codes = index.prescreen_insert(p)
        assert len(codes) == len(index.keys())
        for key, code in zip(index.keys(), codes):
            if code == SCREEN_SAFE:
                g = girs[key]
                assert not invalidated_by_insert(
                    g, p, data.points[g.topk.kth_id]
                )


class TestCachePrescreenIntegration:
    def test_cache_prescreen_partition_is_total(self, indexed_setup, rng):
        data, tree = indexed_setup
        cache = GIRCache()
        for _ in range(8):
            gir = compute_gir(tree, data, random_query(rng, 3), 8)
            cache.insert(gir, kth_g=data.points[gir.topk.kth_id])
        pre = cache.prescreen_insert(rng.random(3))
        combined = sorted(pre.safe + pre.ties + pre.candidates)
        assert combined == sorted(cache.entry_keys())
        assert pre.screened == len(pre.safe) + len(pre.ties)

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


class TestGridSignature:
    """Admission-prescreen grid: zero false negatives, by construction."""

    def test_default_cells_budget(self):
        from repro.core.region_index import _GRID_TARGET_CELLS, default_grid_cells

        for d in range(1, 10):
            g = default_grid_cells(d)
            assert g >= 2
            assert g == 2 or g**d <= _GRID_TARGET_CELLS

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])  # g = 64, 16, 8, 5, 4
    def test_subdivision_registers_the_flat_cells(self, rng, d):
        """Top-down registration marks exactly the cells of the all-cells
        product — on real GIRs, on cones cut from the box (they touch its
        walls) and on thin slabs along a wall — and ``unregister`` undoes
        it."""
        data = independent(300, d, seed=40 + d)
        tree = bulk_load_str(data)
        regions = [
            compute_gir(tree, data, random_query(rng, d), 5).polytope
            for _ in range(6)
        ]
        regions += [random_region(rng, d, cuts) for cuts in (1, 2, 3, 5)]
        box = Polytope.from_unit_box(d)
        for axis in range(d):
            # x_axis >= 0.97 and x_axis <= 0.02: a layer or two of cells.
            for normal, bound in ((-1.0, -0.97), (1.0, 0.02)):
                row = np.zeros((1, d))
                row[0, axis] = normal
                regions.append(
                    Polytope(np.vstack([box.A, row]), np.append(box.b, bound))
                )
        grid = RegionIndex(d).grid
        expected = np.zeros(grid.n_cells, dtype=np.int64)
        for key, region in enumerate(regions):
            A_n, b_n = region.normalized_halfspaces()
            grid.register(key, A_n, b_n)
            cells = flat_cells(grid, A_n, b_n)
            np.testing.assert_array_equal(grid._cells[key], cells)
            assert 0 < cells.shape[0]
            expected[cells] += 1
        np.testing.assert_array_equal(grid._counts, expected)
        assert grid._counts_list == expected.tolist()
        for key in range(len(regions)):
            grid.unregister(key)
        assert not grid._counts.any() and not any(grid._counts_list)

    def test_grid_negatives_match_brute_force(self, rng):
        """Every grid 'certain miss' is a true all-False membership, and
        answers with the grid on equal answers with the grid off."""
        total_negatives = 0
        for d in (2, 3, 4):
            with_grid = RegionIndex(d)
            without = RegionIndex(d, grid_cells=0)
            regions = [random_region(rng, d) for _ in range(12)]
            for key, region in enumerate(regions):
                with_grid.add(key, region)
                without.add(key, region)
            X = rng.uniform(-0.05, 1.05, size=(500, d))
            got = with_grid.membership_batch(X)
            ref = without.membership_batch(X)
            np.testing.assert_array_equal(got, ref)
            for i in range(0, 500, 7):
                np.testing.assert_array_equal(
                    with_grid.membership(X[i]), ref[i]
                )
            stats = with_grid.grid_stats()
            assert stats["probes"] > 0
            total_negatives += stats["negatives"]
        # Certain misses must actually occur on uniform probes somewhere
        # (at low d a dozen cones can touch every cell), or the grid is
        # dead weight.
        assert total_negatives > 0

    def test_grid_maintenance_over_remove_and_clear(self, rng):
        index = RegionIndex(3)
        regions = {key: random_region(rng, 3) for key in range(8)}
        for key, region in regions.items():
            index.add(key, region)
        index.remove_many([1, 3, 5])
        X = rng.uniform(0.0, 1.0, size=(200, 3))
        ref = np.stack(
            [
                [regions[k].contains(x) for k in index.keys()]
                for x in X
            ]
        )
        np.testing.assert_array_equal(index.membership_batch(X), ref)
        index.clear()
        assert index.grid_stats()["registered_cells"] == 0

    def test_large_tol_bypasses_grid(self, rng):
        """Tolerances above GRID_SAFE_TOL must never be answered by the
        grid (the registration slack does not cover them)."""
        from repro.core.region_index import GRID_SAFE_TOL

        index = RegionIndex(3)
        index.add(0, random_region(rng, 3))
        x = rng.random(3)
        assert not index.grid.is_certain_miss(x, GRID_SAFE_TOL * 11)
        assert not index.grid.certain_miss_mask(x[None, :], GRID_SAFE_TOL * 11).any()

    def test_near_facet_membership_property(self, rng):
        """Grid prescreen + exact membership never disagrees with the
        per-entry scan for weights within ±10·tol of cached facet
        boundaries — the tolerance worst case (satellite requirement)."""
        tol = 1e-9
        for d in (2, 4, 6):
            data = independent(400, d, seed=60 + d)
            tree = bulk_load_str(data)
            grid_cache = GIRCache(capacity=32, grid=True)
            scan_cache = GIRCache(capacity=32, grid=False)
            girs = []
            queries = []
            attempts = 0
            while len(girs) < 6 and attempts < 120:
                attempts += 1
                q = rng.random(d) * 0.8 + 0.1
                gir = compute_gir(tree, data, q, 5)
                before = len(grid_cache)
                grid_cache.insert(gir)
                scan_cache.insert(gir)
                if len(grid_cache) > before:
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
                hit_g = grid_cache.lookup(p, 5)
                hit_s = scan_cache.lookup_scan(p, 5)
                assert (hit_g is None) == (hit_s is None)
                if hit_g is not None:
                    assert hit_g.ids == hit_s.ids
                    assert hit_g.entry_key == hit_s.entry_key
