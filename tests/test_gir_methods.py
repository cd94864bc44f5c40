"""The central correctness property: SP ≡ CP ≡ FP ≡ exhaustive.

All three Phase-2 methods must produce the *same region* as the
straightforward full-scan half-space intersection of Section 3.3 — equality
is checked by mutual containment of the vertex sets (one small case keeps
the LP-based containment predicate in play) and identical volumes.
"""

import numpy as np
import pytest

from repro.baselines.exhaustive import exhaustive_gir
from repro.core.gir import compute_gir
from repro.data.synthetic import independent
from repro.index.bulkload import bulk_load_str
from tests.conftest import (
    assert_same_region,
    assert_same_region_lp,
    random_query,
)

METHODS = ["sp", "cp", "fp"]


@pytest.mark.parametrize("method", METHODS)
class TestAgainstOracle:
    def test_ind_2d(self, small_ind_2d, rng, method):
        data, tree = small_ind_2d
        for _ in range(3):
            q = random_query(rng, 2)
            gir = compute_gir(tree, data, q, 5, method=method)
            oracle = exhaustive_gir(data, q, 5)
            assert gir.topk.ids == oracle.topk.ids
            assert_same_region(gir, oracle, f"{method} 2d")

    def test_ind_4d(self, small_ind_4d, rng, method):
        data, tree = small_ind_4d
        for _ in range(3):
            q = random_query(rng, 4)
            gir = compute_gir(tree, data, q, 8, method=method)
            oracle = exhaustive_gir(data, q, 8)
            assert_same_region(gir, oracle, f"{method} 4d")

    def test_anti_3d(self, small_anti_3d, rng, method):
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10, method=method)
        oracle = exhaustive_gir(data, q, 10)
        assert_same_region(gir, oracle, f"{method} anti")

    def test_cor_3d(self, small_cor_3d, rng, method):
        data, tree = small_cor_3d
        q = random_query(rng, 3)
        gir = compute_gir(tree, data, q, 10, method=method)
        oracle = exhaustive_gir(data, q, 10)
        assert_same_region(gir, oracle, f"{method} cor")

    def test_k1(self, small_ind_2d, rng, method):
        """k=1: no ordering constraints, pure separation."""
        data, tree = small_ind_2d
        q = random_query(rng, 2)
        gir = compute_gir(tree, data, q, 1, method=method)
        oracle = exhaustive_gir(data, q, 1)
        assert len([h for h in gir.halfspaces if h.kind == "order"]) == 0
        assert_same_region(gir, oracle, f"{method} k1")

    def test_5d(self, rng, method):
        data = independent(600, 5, seed=31)
        tree = bulk_load_str(data)
        q = random_query(rng, 5)
        gir = compute_gir(tree, data, q, 5, method=method)
        oracle = exhaustive_gir(data, q, 5)
        assert_same_region(gir, oracle, f"{method} 5d")

    def test_volume_matches_oracle(self, small_ind_4d, rng, method):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        gir = compute_gir(tree, data, q, 10, method=method)
        oracle = exhaustive_gir(data, q, 10)
        assert gir.volume() == pytest.approx(oracle.volume(), rel=1e-6, abs=1e-15)


class TestMethodsAgree:
    def test_pairwise_volume_equality(self, small_anti_3d, rng):
        data, tree = small_anti_3d
        for _ in range(4):
            q = random_query(rng, 3)
            vols = [
                compute_gir(tree, data, q, 5, method=m).volume() for m in METHODS
            ]
            assert max(vols) - min(vols) <= 1e-12 + 1e-6 * max(vols)

    def test_candidate_hierarchy(self, small_ind_4d, rng):
        """FP considers ⊆ CP considers ⊆ SP considers (Figures 6 & 8)."""
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        sp = compute_gir(tree, data, q, 10, method="sp")
        cp = compute_gir(tree, data, q, 10, method="cp")
        fp = compute_gir(tree, data, q, 10, method="fp")
        assert set(cp_ids := [h.lower for h in cp.halfspaces if h.kind == "separation"]) <= set(
            h.lower for h in sp.halfspaces if h.kind == "separation"
        )
        assert fp.stats.phase2_candidates <= cp.stats.phase2_candidates
        assert cp.stats.phase2_candidates <= sp.stats.phase2_candidates

    def test_fp_io_at_most_sp(self, rng):
        """FP's Phase-2 I/O never exceeds SP's (Figure 15 shape)."""
        data = independent(8000, 3, seed=37)
        tree = bulk_load_str(data)
        q = random_query(rng, 3)
        sp = compute_gir(tree, data, q, 20, method="sp")
        fp = compute_gir(tree, data, q, 20, method="fp")
        assert fp.stats.io_pages_phase2 <= sp.stats.io_pages_phase2


class TestEdgeCases:
    def test_unknown_method(self, small_ind_2d):
        data, tree = small_ind_2d
        with pytest.raises(ValueError, match="unknown method"):
            compute_gir(tree, data, np.array([0.5, 0.5]), 5, method="xx")

    def test_k_equals_n_no_separation(self):
        data = independent(40, 2, seed=41)
        tree = bulk_load_str(data)
        q = np.array([0.6, 0.7])
        for m in METHODS:
            gir = compute_gir(tree, data, q, 40, method=m)
            assert all(h.kind != "separation" for h in gir.halfspaces)
            oracle = exhaustive_gir(data, q, 40)
            assert_same_region_lp(gir, oracle, f"{m} k=n")

    def test_result_attached(self, small_ind_2d, rng):
        data, tree = small_ind_2d
        q = random_query(rng, 2)
        gir = compute_gir(tree, data, q, 5)
        assert len(gir.topk.ids) == 5
        assert gir.method == "fp"

    def test_query_always_inside_own_gir(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        for _ in range(5):
            q = random_query(rng, 4)
            for m in METHODS:
                assert compute_gir(tree, data, q, 5, method=m).contains(q)

    def test_raw_array_accepted(self, small_ind_2d, rng):
        data, tree = small_ind_2d
        q = random_query(rng, 2)
        gir = compute_gir(tree, data.points, q, 5)
        assert gir.contains(q)

    def test_reuse_existing_run(self, small_ind_2d, rng):
        from repro.query.brs import brs_topk

        data, tree = small_ind_2d
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 5)
        gir = compute_gir(tree, data, q, 5, run=run)
        assert gir.topk.ids == run.result.ids
