"""Tests for BRS top-k search."""

import heapq
import itertools
from collections import Counter

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic import independent
from repro.index.bulkload import bulk_load_str
from repro.query.brs import brs_topk
from repro.query.linear_scan import scan_topk
from repro.scoring import LinearScoring, polynomial_scoring
from tests.conftest import random_query


def record_at_a_time_brs(tree, points, weights, k, scorer):
    """Reference BRS that scores one record (one MBB corner) per call and
    offers every fetched record to the interim top-k — the loop the
    per-node ``_drain_heap`` replaced. Returns ``(ids, encountered key order, retained (node_id, level)
    multiset, node accesses, leaf accesses)``."""
    interim, encountered, heap = [], {}, []
    seq = itertools.count()

    def consider(rid):
        encountered[rid] = None
        p = points[rid]
        item = (float(scorer.score(p, weights)), float(p.sum()), rid)
        if len(interim) < k:
            heapq.heappush(interim, item)
        elif item > interim[0]:
            heapq.heapreplace(interim, item)

    def push(hi, node_id, level):
        key = (-float(scorer.score(hi, weights)), -float(hi.sum()), next(seq))
        heapq.heappush(heap, (key, node_id, level))

    def expand(node):
        for i, child_id in enumerate(node.ids.tolist()):
            if node.is_leaf:
                consider(child_id)
            else:
                push(node.hi[i], child_id, node.level - 1)

    expand(tree._node(tree.root_id))
    nodes, leaves = 1, int(tree.height == 1)
    while heap and not (len(interim) == k and interim[0][0] >= -heap[0][0][0]):
        node = tree._node(heapq.heappop(heap)[1])
        nodes += 1
        leaves += int(node.is_leaf)
        expand(node)
    ids = tuple(rid for _, _, rid in sorted(interim, reverse=True))
    order = [rid for rid in encountered if rid not in ids]
    return ids, order, Counter((nid, lvl) for _, nid, lvl in heap), nodes, leaves


def observed(run):
    return (
        run.result.ids,
        run.encountered.tolist(),
        Counter((e.node_id, e.level) for e in run.heap),
        run.node_accesses,
        run.leaf_accesses,
    )


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_scan_2d(self, small_ind_2d, rng, k):
        data, tree = small_ind_2d
        for _ in range(5):
            q = random_query(rng, 2)
            run = brs_topk(tree, data.points, q, k)
            ref = scan_topk(data.points, q, k)
            assert run.result.ids == ref.ids
            assert np.allclose(run.result.scores, ref.scores)

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_matches_scan_4d(self, small_ind_4d, rng, k):
        data, tree = small_ind_4d
        for _ in range(5):
            q = random_query(rng, 4)
            run = brs_topk(tree, data.points, q, k)
            assert run.result.ids == scan_topk(data.points, q, k).ids

    def test_matches_scan_anti(self, small_anti_3d, rng):
        data, tree = small_anti_3d
        for _ in range(5):
            q = random_query(rng, 3)
            run = brs_topk(tree, data.points, q, 10)
            assert run.result.ids == scan_topk(data.points, q, 10).ids

    def test_scores_decreasing(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        run = brs_topk(tree, data.points, random_query(rng, 4), 25)
        scores = list(run.result.scores)
        assert scores == sorted(scores, reverse=True)

    def test_zero_weight_dimension(self, small_ind_2d):
        """Weights may be zero on some axes (ties broken consistently)."""
        data, tree = small_ind_2d
        q = np.array([1.0, 0.0])
        run = brs_topk(tree, data.points, q, 5)
        assert run.result.ids == scan_topk(data.points, q, 5).ids

    def test_monotone_scorer(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        scorer = polynomial_scoring([4, 3, 2, 1])
        q = random_query(rng, 4)
        run = brs_topk(tree, data.points, q, 10, scorer=scorer)
        assert run.result.ids == scan_topk(data.points, q, 10, scorer=scorer).ids

    def test_k_equals_n(self):
        data = independent(30, 2, seed=3)
        tree = bulk_load_str(data)
        q = np.array([0.5, 0.5])
        run = brs_topk(tree, data.points, q, 30)
        assert len(run.result.ids) == 30
        assert run.encountered.size == 0


class TestValidation:
    def test_rejects_negative_weights(self, small_ind_2d):
        data, tree = small_ind_2d
        with pytest.raises(ValueError, match="non-negative"):
            brs_topk(tree, data.points, np.array([-0.1, 0.5]), 5)

    def test_rejects_k_too_large(self, small_ind_2d):
        data, tree = small_ind_2d
        with pytest.raises(ValueError, match="exceeds"):
            brs_topk(tree, data.points, np.array([0.5, 0.5]), data.n + 1)

    def test_rejects_k_zero(self, small_ind_2d):
        data, tree = small_ind_2d
        with pytest.raises(ValueError, match="positive"):
            brs_topk(tree, data.points, np.array([0.5, 0.5]), 0)

    def test_rejects_wrong_shape(self, small_ind_2d):
        data, tree = small_ind_2d
        with pytest.raises(ValueError, match="shape"):
            brs_topk(tree, data.points, np.array([0.5, 0.5, 0.5]), 5)


class TestRetainedState:
    def test_encountered_excludes_result(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        run = brs_topk(tree, data.points, random_query(rng, 4), 10)
        assert not (set(run.encountered) & set(run.result.ids))

    def test_heap_entries_cover_unseen_records(self, small_ind_2d, rng):
        """Every record is either in R, in T, or under a retained heap MBB."""
        data, tree = small_ind_2d
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 5)
        covered = set(run.result.ids) | set(run.encountered)
        for rid, p in enumerate(data.points):
            if rid in covered:
                continue
            assert any(((e.lo <= p) & (p <= e.hi)).all() for e in run.heap), rid

    def test_heap_maxscores_below_kth(self, small_ind_4d, rng):
        """Termination condition: retained entries cannot beat the k-th."""
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        run = brs_topk(tree, data.points, q, 10)
        for e in run.heap:
            assert e.maxscore <= run.result.kth_score + 1e-12

    def test_io_optimality_proxy(self, rng):
        """BRS reads no more leaves than records it put in R ∪ T require."""
        data = independent(3000, 2, seed=13)
        tree = bulk_load_str(data)
        tree.store.reset_meter()
        run = brs_topk(tree, data.points, random_query(rng, 2), 10)
        # Every fetched leaf contributed at least one encountered/result rec.
        assert tree.store.stats.leaf_reads <= len(run.encountered) + 10

    def test_unmetered_run_charges_nothing(self, small_ind_2d, rng):
        data, tree = small_ind_2d
        tree.store.reset_meter()
        brs_topk(tree, data.points, random_query(rng, 2), 5, metered=False)
        assert tree.store.stats.page_reads == 0


class TestPerNodeScoringMatchesRecordAtATime:
    """One product per fetched node and heap work only for contenders
    change nothing observable — including with every point stored twice,
    where score and coordinate-sum ties are broken by rid."""

    @pytest.fixture(scope="class")
    def duplicated(self):
        half = independent(450, 3, seed=29).points
        data = Dataset(np.vstack([half, half]), name="dup")
        return data, bulk_load_str(data)

    @pytest.mark.parametrize("scorer", [LinearScoring(3), polynomial_scoring([3, 2, 1])])
    def test_fresh_runs(self, duplicated, rng, scorer):
        data, tree = duplicated
        for _ in range(8):
            q = random_query(rng, 3)
            run = brs_topk(tree, data.points, q, 7, scorer=scorer, metered=False)
            assert observed(run) == record_at_a_time_brs(
                tree, data.points, q, 7, scorer
            )
            # k is odd: the k-th place splits a duplicated pair by rid.
            assert run.result.ids == scan_topk(data.points, q, 7, scorer=scorer).ids

    def test_single_leaf_tree(self, rng):
        data = independent(6, 2, seed=3)
        tree = bulk_load_str(data)
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 3, metered=False)
        assert observed(run) == record_at_a_time_brs(
            tree, data.points, q, 3, LinearScoring(2)
        )


class TestStaleRuns:
    def test_fresh_search_after_mutation_is_equivalent(self, rng):
        """After a mutation, a from-scratch search at a deeper k equals
        ground truth: the run captured before the insert is simply
        dropped, never continued."""
        data = independent(600, 3, seed=25)
        tree = bulk_load_str(data)
        q = random_query(rng, 3)
        brs_topk(tree, data.points, q, 5)  # original (now stale) run
        new_point = np.array([0.95, 0.9, 0.92])
        tree.insert(new_point, data.n)
        points = np.vstack([data.points, new_point[None, :]])
        run = brs_topk(tree, points, q, 12)
        assert run.result.ids == scan_topk(points, q, 12).ids
