"""Tests for BBS skyline computation."""

import numpy as np
import pytest

from repro.data.synthetic import anticorrelated, correlated, independent
from repro.index.bulkload import bulk_load_str
from repro.query.bbs import bbs_skyline, skyline_of_points
from repro.query.brs import brs_topk
from repro.query.linear_scan import scan_skyline
from tests.conftest import random_query


class TestInMemorySkyline:
    def test_simple(self):
        pts = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5], [0.2, 0.2]])
        got = skyline_of_points(pts, [0, 1, 2, 3])
        assert set(got) == {0, 1, 2}

    def test_empty(self):
        assert skyline_of_points(np.empty((0, 2)), []) == []

    def test_subset_ids(self):
        pts = np.array([[0.9, 0.1], [0.1, 0.9], [0.95, 0.95], [0.05, 0.05]])
        got = skyline_of_points(pts, [0, 1, 3])  # exclude dominator 2
        assert set(got) == {0, 1}

    def test_matches_scan_random(self, rng):
        pts = rng.random((300, 3))
        got = set(skyline_of_points(pts, list(range(300))))
        assert got == scan_skyline(pts)

    def test_anti_order_is_by_coordinate_sum(self):
        """On a wide anti-correlated skyline the ids come back in
        non-increasing coordinate sum, and as the exact skyline's set."""
        pts = anticorrelated(2000, 4, seed=5).points
        got = skyline_of_points(pts, list(range(2000)))
        sums = pts[got].sum(axis=1)
        assert len(got) > 50 and (np.diff(sums) <= 0).all()
        assert set(got) == scan_skyline(pts)

    def test_duplicates_both_kept(self):
        """Records equal in all dimensions do not dominate each other."""
        pts = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert set(skyline_of_points(pts, [0, 1])) == {0, 1}


class TestBBSFresh:
    @pytest.mark.parametrize("gen", [independent, anticorrelated, correlated])
    def test_matches_scan(self, gen, rng):
        data = gen(600, 3, seed=21)
        tree = bulk_load_str(data)
        got = bbs_skyline(tree, data.points, weights=np.ones(3))
        assert set(got) == scan_skyline(data.points)

    def test_with_exclusions(self, rng):
        data = independent(500, 2, seed=22)
        tree = bulk_load_str(data)
        exclude = set(range(0, 50))
        got = bbs_skyline(tree, data.points, weights=np.ones(2), exclude=exclude)
        assert set(got) == scan_skyline(data.points, exclude=exclude)
        assert not (set(got) & exclude)

    def test_requires_weights_without_run(self, small_ind_2d):
        data, tree = small_ind_2d
        with pytest.raises(ValueError, match="weights"):
            bbs_skyline(tree, data.points)


class TestBBSResume:
    """The paper's variant: resume from the BRS run (Section 5.1)."""

    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_skyline_of_nonresult_records(self, small_ind_4d, rng, k):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        run = brs_topk(tree, data.points, q, k)
        got = bbs_skyline(tree, data.points, run=run)
        expected = scan_skyline(data.points, exclude=set(run.result.ids))
        assert set(got) == expected

    def test_anti_skyline_resume(self, small_anti_3d, rng):
        data, tree = small_anti_3d
        q = random_query(rng, 3)
        run = brs_topk(tree, data.points, q, 10)
        got = bbs_skyline(tree, data.points, run=run)
        assert set(got) == scan_skyline(data.points, exclude=set(run.result.ids))

    def test_zero_weight_query_resume(self, small_ind_2d):
        """Maxscore ordering stays dominance-compatible with zero weights."""
        data, tree = small_ind_2d
        q = np.array([0.7, 0.0])
        run = brs_topk(tree, data.points, q, 5)
        got = bbs_skyline(tree, data.points, run=run)
        assert set(got) == scan_skyline(data.points, exclude=set(run.result.ids))

    def test_resume_does_not_refetch_encountered(self, small_ind_2d, rng):
        """Resuming charges strictly fewer page reads than a fresh BBS."""
        data, tree = small_ind_2d
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 20, metered=False)

        tree.store.reset_meter()
        bbs_skyline(tree, data.points, run=run)
        resumed = tree.store.stats.page_reads

        tree.store.reset_meter()
        bbs_skyline(
            tree, data.points, weights=q, exclude=set(run.result.ids)
        )
        fresh = tree.store.stats.page_reads
        assert resumed <= fresh

    def test_run_heap_not_consumed(self, small_ind_2d, rng):
        """bbs_skyline drains a copy; the BRS run stays reusable."""
        data, tree = small_ind_2d
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 5)
        before = len(run.heap)
        bbs_skyline(tree, data.points, run=run)
        assert len(run.heap) == before
