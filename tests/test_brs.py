"""Tests for BRS top-k search."""

import heapq
import itertools
from collections import Counter

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic import independent
from repro.index.bulkload import bulk_load_str
from repro.query.brs import brs_topk, resume_brs_topk
from repro.query.linear_scan import scan_topk
from repro.scoring import LinearScoring, polynomial_scoring
from tests.conftest import random_query


def record_at_a_time_brs(tree, points, weights, k, scorer, prior=None):
    """Reference BRS that scores one record (one MBB corner) per call and
    offers every fetched record to the interim top-k — the loop the
    per-node ``_drain_heap`` replaced. ``prior`` resumes a finished run.
    Returns ``(ids, encountered key order, retained (node_id, level)
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

    def push(mbb, node_id, level):
        key = (-float(scorer.score(mbb.hi, weights)), -float(mbb.hi.sum()), next(seq))
        heapq.heappush(heap, (key, node_id, level))

    def expand(node):
        for e in node.entries:
            if node.is_leaf:
                consider(e.child_id)
            else:
                push(e.mbb, e.child_id, node.level - 1)

    if prior is None:
        expand(tree._node(tree.root_id))
        nodes, leaves = 1, int(tree.height == 1)
    else:
        for rid in (*prior.result.ids, *prior.encountered):
            consider(rid)
        for e in prior.heap:
            push(e.mbb, e.node_id, e.level)
        nodes, leaves = prior.node_accesses, prior.leaf_accesses
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
        list(run.encountered),
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
        assert run.encountered == {}


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
            assert any(e.mbb.contains_point(p) for e in run.heap), rid

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
    def test_fresh_and_resumed_runs(self, duplicated, rng, scorer):
        data, tree = duplicated
        for _ in range(8):
            q = random_query(rng, 3)
            shallow = brs_topk(tree, data.points, q, 7, scorer=scorer, metered=False)
            assert observed(shallow) == record_at_a_time_brs(
                tree, data.points, q, 7, scorer
            )
            # k is odd: the k-th place splits a duplicated pair by rid.
            assert shallow.result.ids == scan_topk(data.points, q, 7, scorer=scorer).ids
            q2 = np.clip(q + rng.normal(0, 0.02, 3), 0.01, 1.0)
            deep = resume_brs_topk(
                tree, data.points, shallow, q2, 30, scorer=scorer, metered=False
            )
            assert observed(deep) == record_at_a_time_brs(
                tree, data.points, q2, 30, scorer, prior=shallow
            )

    def test_single_leaf_tree(self, rng):
        data = independent(6, 2, seed=3)
        tree = bulk_load_str(data)
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 3, metered=False)
        assert observed(run) == record_at_a_time_brs(
            tree, data.points, q, 3, LinearScoring(2)
        )


class TestResume:
    """resume_brs_topk: continuing a finished run to a deeper k."""

    def test_resume_same_weights_matches_scratch(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        for _ in range(5):
            q = random_query(rng, 4)
            shallow = brs_topk(tree, data.points, q, 5, metered=False)
            resumed = resume_brs_topk(tree, data.points, shallow, q, 25, metered=False)
            assert resumed.result.ids == scan_topk(data.points, q, 25).ids
            assert np.allclose(
                resumed.result.scores, scan_topk(data.points, q, 25).scores
            )

    def test_resume_with_shifted_weights(self, small_anti_3d, rng):
        """The resumed search is exact even under a different query vector
        (the serving layer resumes for any vector inside the cached GIR)."""
        data, tree = small_anti_3d
        for _ in range(5):
            q = random_query(rng, 3)
            shallow = brs_topk(tree, data.points, q, 5, metered=False)
            q2 = np.clip(q + rng.normal(0, 0.02, 3), 0.01, 1.0)
            resumed = resume_brs_topk(tree, data.points, shallow, q2, 20, metered=False)
            assert resumed.result.ids == scan_topk(data.points, q2, 20).ids

    def test_resume_reads_fewer_pages_than_scratch(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        tree.store.reset_meter()
        shallow = brs_topk(tree, data.points, q, 10)
        tree.store.reset_meter()
        resume_brs_topk(tree, data.points, shallow, q, 30)
        resumed_pages = tree.store.stats.page_reads
        tree.store.reset_meter()
        brs_topk(tree, data.points, q, 30)
        scratch_pages = tree.store.stats.page_reads
        assert resumed_pages < scratch_pages

    def test_resume_leaves_input_run_untouched(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        shallow = brs_topk(tree, data.points, q, 5, metered=False)
        heap_before = list(shallow.heap)
        enc_before = dict(shallow.encountered)
        resume_brs_topk(tree, data.points, shallow, q, 25, metered=False)
        assert shallow.heap == heap_before
        assert shallow.encountered.keys() == enc_before.keys()
        # Resumable twice: a second resume gives the same answer.
        again = resume_brs_topk(tree, data.points, shallow, q, 25, metered=False)
        assert again.result.ids == scan_topk(data.points, q, 25).ids

    def test_resume_shallower_k_is_noop_read(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        run = brs_topk(tree, data.points, q, 10, metered=False)
        tree.store.reset_meter()
        resumed = resume_brs_topk(tree, data.points, run, q, 10)
        assert tree.store.stats.page_reads == 0
        assert resumed.result.ids == run.result.ids


class TestStaleRuns:
    def test_resume_raises_after_insert(self, rng):
        from repro.query.brs import StaleRunError

        data = independent(500, 2, seed=23)
        tree = bulk_load_str(data)
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 5)
        assert run.tree_mutations == tree.mutations
        tree.insert(np.array([0.99, 0.99]), data.n)
        points = np.vstack([data.points, [[0.99, 0.99]]])
        with pytest.raises(StaleRunError):
            resume_brs_topk(tree, points, run, q, 10)

    def test_resume_raises_after_delete(self, rng):
        from repro.query.brs import StaleRunError

        data = independent(500, 2, seed=24)
        tree = bulk_load_str(data)
        q = random_query(rng, 2)
        run = brs_topk(tree, data.points, q, 5)
        victim = next(rid for rid in range(data.n) if rid not in run.result.ids)
        assert tree.delete(data.points[victim], victim)
        with pytest.raises(StaleRunError):
            resume_brs_topk(tree, data.points, run, q, 10)

    def test_resume_on_unmutated_tree_matches_scratch(self, small_ind_4d, rng):
        data, tree = small_ind_4d
        q = random_query(rng, 4)
        run = brs_topk(tree, data.points, q, 5)
        q2 = q * (1 + rng.normal(0, 0.01, 4))
        resumed = resume_brs_topk(tree, data.points, run, q2, 20)
        scratch = brs_topk(tree, data.points, q2, 20)
        assert resumed.result.ids == scratch.result.ids

    def test_fresh_search_after_mutation_is_equivalent(self, rng):
        """The dynamic path's fallback: after a mutation, a from-scratch
        search at the deeper k equals ground truth (what resume would have
        had to produce)."""
        data = independent(600, 3, seed=25)
        tree = bulk_load_str(data)
        q = random_query(rng, 3)
        brs_topk(tree, data.points, q, 5)  # original (now stale) run
        new_point = np.array([0.95, 0.9, 0.92])
        tree.insert(new_point, data.n)
        points = np.vstack([data.points, new_point[None, :]])
        run = brs_topk(tree, points, q, 12)
        assert run.result.ids == scan_topk(points, q, 12).ids
