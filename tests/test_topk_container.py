"""Tests for the TopKResult container and predicates module."""

import numpy as np
import pytest

from repro.geometry.predicates import affine_rank_basis, dominates
from repro.query.topk import TopKResult


class TestTopKResult:
    def make(self):
        return TopKResult(
            ids=(4, 7, 1), scores=(0.9, 0.8, 0.7), weights=np.array([0.5, 0.5])
        )

    def test_accessors(self):
        r = self.make()
        assert r.k == 3
        assert r.kth_id == 1
        assert r.kth_score == 0.7
        assert 7 in r
        assert 9 not in r

    def test_rejects_increasing_scores(self):
        with pytest.raises(ValueError, match="non-increasing"):
            TopKResult(ids=(1, 2), scores=(0.5, 0.9), weights=np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            TopKResult(ids=(1, 2), scores=(0.5,), weights=np.array([1.0]))


class TestDominance:
    def test_strict(self):
        assert dominates(np.array([0.5, 0.5]), np.array([0.4, 0.4]))

    def test_partial_tie(self):
        assert dominates(np.array([0.5, 0.5]), np.array([0.5, 0.4]))

    def test_equal_points_no_dominance(self):
        assert not dominates(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_incomparable(self):
        assert not dominates(np.array([0.6, 0.3]), np.array([0.3, 0.6]))
        assert not dominates(np.array([0.3, 0.6]), np.array([0.6, 0.3]))

    def test_transitivity_random(self, rng):
        for _ in range(200):
            a, b, c = rng.random((3, 4))
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestAffineRankBasis:
    def test_full_rank_selection(self):
        apex = np.zeros(3)
        cands = [np.eye(3)[i] for i in range(3)]
        assert affine_rank_basis(apex, cands, 3) == [0, 1, 2]

    def test_skips_dependent(self):
        apex = np.zeros(2)
        cands = [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0])]
        assert affine_rank_basis(apex, cands, 2) == [0, 2]

    def test_skips_apex_duplicates(self):
        apex = np.array([0.5, 0.5])
        cands = [apex.copy(), np.array([1.0, 0.5]), np.array([0.5, 1.0])]
        assert affine_rank_basis(apex, cands, 2) == [1, 2]

    def test_insufficient_rank(self):
        apex = np.zeros(3)
        cands = [np.array([1.0, 0, 0]), np.array([0.5, 0, 0])]
        assert len(affine_rank_basis(apex, cands, 3)) == 1
