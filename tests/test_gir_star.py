"""Tests for the order-insensitive GIR* (Section 7.1)."""

import numpy as np
import pytest

from repro.baselines.exhaustive import exhaustive_gir
from repro.core.gir import compute_gir
from repro.core.gir_star import compute_gir_star, prune_result_records
from repro.data.synthetic import independent
from repro.index.bulkload import bulk_load_str
from repro.query.linear_scan import scan_topk
from repro.scoring import LinearScoring
from tests.conftest import (
    assert_same_region,
    assert_same_region_lp,
    random_query,
)

METHODS = ["sp", "cp", "fp"]


class TestResultPruning:
    def test_dominators_pruned(self):
        # p0 dominates p1 => p0 prunable; p1, p2 survive.
        pts = np.array([[0.9, 0.9], [0.8, 0.8], [0.95, 0.1], [0.1, 0.2]])
        g = LinearScoring(2).transform(pts)
        surv = prune_result_records((0, 1, 2), pts, g)
        assert 0 not in surv
        assert set(surv) == {1, 2}

    def test_inner_hull_records_pruned(self):
        # p2 inside hull of {p0, p1, p3}: prunable.
        pts = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.52], [0.6, 0.6]])
        g = pts.copy()
        surv = prune_result_records((0, 1, 2, 3), pts, g)
        assert 2 not in surv

    def test_singleton_result(self):
        pts = np.array([[0.5, 0.5], [0.1, 0.1]])
        assert prune_result_records((0,), pts, pts) == [0]


@pytest.mark.parametrize("method", METHODS)
class TestAgainstOracle:
    def test_matches_exhaustive(self, small_ind_2d, rng, method):
        data, tree = small_ind_2d
        for _ in range(3):
            q = random_query(rng, 2)
            star = compute_gir_star(tree, data, q, 5, method=method)
            oracle = exhaustive_gir(data, q, 5, order_sensitive=False)
            assert_same_region(star, oracle, f"star-{method}")

    def test_matches_exhaustive_by_lp_containment(self, rng, method):
        """One small case through the LP containment predicate (the
        larger ones compare vertex sets)."""
        data = independent(80, 2, seed=43)
        tree = bulk_load_str(data)
        q = random_query(rng, 2)
        star = compute_gir_star(tree, data, q, 4, method=method)
        oracle = exhaustive_gir(data, q, 4, order_sensitive=False)
        assert_same_region_lp(star, oracle, f"star-{method}-lp")

    def test_matches_exhaustive_4d(self, small_ind_4d, rng, method):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        star = compute_gir_star(tree, data, q, 6, method=method)
        oracle = exhaustive_gir(data, q, 6, order_sensitive=False)
        assert_same_region(star, oracle, f"star-{method}-4d")

    def test_anti(self, small_anti_3d, rng, method):
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        star = compute_gir_star(tree, data, q, 8, method=method)
        oracle = exhaustive_gir(data, q, 8, order_sensitive=False)
        assert_same_region(star, oracle, f"star-{method}-anti")


class TestSemantics:
    def test_gir_star_contains_gir(self, small_ind_4d, rng):
        """Definition 2 is looser than Definition 1: GIR ⊆ GIR*."""
        data, tree = small_ind_4d
        for _ in range(3):
            q = random_query(rng, 4)
            gir = compute_gir(tree, data, q, 6, method="fp")
            star = compute_gir_star(tree, data, q, 6, method="fp")
            assert star.polytope.contains_polytope(gir.polytope)
            assert star.volume() >= gir.volume() - 1e-12

    def test_sampled_vectors_preserve_composition(self, small_ind_2d, rng):
        data, tree = small_ind_2d
        q = random_query(rng, 2)
        star = compute_gir_star(tree, data, q, 5, method="fp")
        comp = set(star.topk.ids)
        for q2 in star.polytope.sample(40, rng):
            if (q2 <= 1e-9).all():
                continue
            assert set(scan_topk(data.points, q2, 5).ids) == comp

    def test_order_may_change_inside_star(self, rng):
        """Find a case where GIR* strictly exceeds GIR (order flips)."""
        data = independent(300, 2, seed=51)
        tree = bulk_load_str(data)
        found = False
        for _ in range(20):
            q = random_query(rng, 2)
            gir = compute_gir(tree, data, q, 5)
            star = compute_gir_star(tree, data, q, 5)
            if star.volume() > gir.volume() * (1 + 1e-6) + 1e-12:
                found = True
                break
        assert found, "GIR* never exceeded GIR across 20 queries"

    def test_methods_agree(self, small_anti_3d, rng):
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        vols = [
            compute_gir_star(tree, data, q, 5, method=m).volume() for m in METHODS
        ]
        assert max(vols) - min(vols) <= 1e-12 + 1e-6 * max(vols)

    def test_query_inside(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        assert compute_gir_star(tree, data, q, 6).contains(q)

    def test_active_result_ids_subset(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        star = compute_gir_star(tree, data, q, 10)
        assert set(star.active_result_ids) <= set(star.topk.ids)

    def test_unknown_method(self, small_ind_2d):
        data, tree = small_ind_2d
        with pytest.raises(ValueError):
            compute_gir_star(tree, data, np.array([0.5, 0.5]), 5, method="zz")
