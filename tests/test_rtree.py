"""Tests for the dynamic R*-tree."""

import numpy as np
import pytest

from repro.data.synthetic import independent
from repro.index.rtree import RStarTree
from repro.index.storage import PageStore


def build_by_insertion(points: np.ndarray, **kwargs) -> RStarTree:
    tree = RStarTree(points.shape[1], **kwargs)
    for rid, p in enumerate(points):
        tree.insert(p, rid)
    return tree


class TestInsertion:
    def test_single_insert(self):
        tree = RStarTree(2)
        tree.insert(np.array([0.5, 0.5]), 0)
        assert tree.size == 1
        tree.validate()

    def test_many_inserts_validate(self):
        pts = independent(500, 2, seed=1).points
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        assert tree.size == 500
        assert tree.height >= 3
        tree.validate()

    def test_inserts_3d(self):
        pts = independent(300, 3, seed=2).points
        tree = build_by_insertion(pts, leaf_capacity=6, internal_capacity=6)
        tree.validate()

    def test_all_points_findable(self):
        pts = independent(200, 2, seed=3).points
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        found = sorted(tree.range_query(np.zeros(2), np.ones(2)))
        assert found == list(range(200))

    def test_wrong_dimension_rejected(self):
        tree = RStarTree(3)
        with pytest.raises(ValueError):
            tree.insert(np.array([0.5, 0.5]), 0)

    def test_duplicate_points_allowed(self):
        tree = RStarTree(2, leaf_capacity=4, internal_capacity=4)
        for rid in range(20):
            tree.insert(np.array([0.5, 0.5]), rid)
        assert tree.size == 20
        tree.validate()

    def test_capacity_too_small_rejected(self):
        with pytest.raises(ValueError):
            RStarTree(2, leaf_capacity=1)


class TestRangeQuery:
    def test_window(self):
        pts = independent(400, 2, seed=4).points
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        lo, hi = np.array([0.2, 0.3]), np.array([0.6, 0.7])
        expected = {
            i for i, p in enumerate(pts) if (p >= lo).all() and (p <= hi).all()
        }
        assert set(tree.range_query(lo, hi)) == expected

    def test_empty_window(self):
        pts = independent(100, 2, seed=5).points
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        got = tree.range_query(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
        assert got == []

    def test_metered_window_charges_io(self):
        pts = independent(200, 2, seed=6).points
        store = PageStore()
        tree = RStarTree(2, store=store, leaf_capacity=8, internal_capacity=8)
        for rid, p in enumerate(pts):
            tree.insert(p, rid)
        store.reset_meter()
        tree.range_query(np.zeros(2), np.ones(2), metered=True)
        assert store.stats.page_reads > 0


class TestDeletion:
    def test_delete_existing(self):
        pts = independent(150, 2, seed=7).points
        tree = build_by_insertion(pts, leaf_capacity=6, internal_capacity=6)
        assert tree.delete(pts[42], 42)
        assert tree.size == 149
        assert 42 not in tree.range_query(np.zeros(2), np.ones(2))
        tree.validate()

    def test_delete_missing_returns_false(self):
        pts = independent(50, 2, seed=8).points
        tree = build_by_insertion(pts, leaf_capacity=6, internal_capacity=6)
        assert not tree.delete(np.array([0.123, 0.456]), 9999)
        assert tree.size == 50

    def test_delete_all(self):
        pts = independent(80, 2, seed=9).points
        tree = build_by_insertion(pts, leaf_capacity=5, internal_capacity=5)
        for rid, p in enumerate(pts):
            assert tree.delete(p, rid)
        assert tree.size == 0
        assert tree.range_query(np.zeros(2), np.ones(2)) == []

    def test_delete_then_reinsert(self):
        pts = independent(120, 3, seed=10).points
        tree = build_by_insertion(pts, leaf_capacity=6, internal_capacity=6)
        for rid in range(0, 60):
            tree.delete(pts[rid], rid)
        for rid in range(0, 60):
            tree.insert(pts[rid], rid)
        assert tree.size == 120
        tree.validate()
        assert sorted(tree.range_query(np.zeros(3), np.ones(3))) == list(range(120))


class TestStructure:
    def test_parent_mbbs_tight(self):
        pts = independent(300, 2, seed=11).points
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        tree.validate()  # includes tight-MBB assertion

    def test_height_grows_logarithmically(self):
        pts = independent(1000, 2, seed=12).points
        tree = build_by_insertion(pts, leaf_capacity=16, internal_capacity=16)
        assert tree.height <= 5

    def test_fetch_is_metered(self):
        store = PageStore()
        tree = RStarTree(2, store=store)
        tree.insert(np.array([0.1, 0.2]), 0)
        store.reset_meter()
        tree.fetch(tree.root_id)
        assert store.stats.page_reads == 1


class TestRangeQueryDegenerate:
    def test_duplicated_coordinates_zero_volume_mbbs(self):
        """Regression: descent used `overlap > 0`, which skips axis-flat
        subtree MBBs produced by duplicated coordinate values."""
        rng = np.random.default_rng(21)
        pts = rng.random((300, 2))
        pts[:, 0] = np.round(pts[:, 0] * 4) / 4  # five distinct x values
        tree = build_by_insertion(pts, leaf_capacity=4, internal_capacity=4)
        for lo, hi in [
            ((0.25, 0.2), (0.25, 0.9)),  # zero-width window on a flat axis
            ((0.2, 0.2), (0.5, 0.5)),
            ((0.0, 0.0), (1.0, 1.0)),
        ]:
            lo, hi = np.array(lo), np.array(hi)
            expected = {
                i for i, p in enumerate(pts) if (p >= lo).all() and (p <= hi).all()
            }
            assert set(tree.range_query(lo, hi)) == expected

    def test_boundary_touching_window(self):
        """A window that only touches an MBB face must still descend."""
        pts = np.array([[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8], [0.5, 0.5]])
        tree = build_by_insertion(pts, leaf_capacity=4, internal_capacity=4)
        got = tree.range_query(np.array([0.8, 0.0]), np.array([1.0, 1.0]))
        assert sorted(got) == [2, 3]


class TestDeleteHeavyStress:
    @pytest.mark.parametrize("caps", [(8, 8), (6, 5)])
    def test_validate_after_every_deletion(self, caps):
        """Condense-tree must never drop orphaned entries: every structural
        invariant (including the size == indexed-points count) holds after
        each of 250 deletions in random order."""
        rng = np.random.default_rng(33)
        pts = rng.random((250, 3))
        tree = build_by_insertion(pts, leaf_capacity=caps[0], internal_capacity=caps[1])
        for rid in rng.permutation(250):
            assert tree.delete(pts[rid], int(rid))
            tree.validate()
        assert tree.size == 0

    def test_duplicated_coordinates_delete_stress(self):
        rng = np.random.default_rng(34)
        pts = rng.random((200, 2))
        pts[:, 0] = np.round(pts[:, 0] * 3) / 3
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        for rid in rng.permutation(200):
            assert tree.delete(pts[rid], int(rid))
            tree.validate()
            remaining = tree.range_query(np.zeros(2), np.ones(2))
            assert len(remaining) == tree.size

    def test_orphan_at_root_level_is_reinserted(self):
        """An orphaned subtree entry whose level equals the root's must be
        appended into the root, not silently discarded (the old guard
        dropped exactly this case)."""
        from repro.index.mbb import MBB
        from repro.index.node import NodeEntry, Node

        rng = np.random.default_rng(35)
        pts = rng.random((120, 2))
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        root_level = tree.root().level
        assert root_level >= 1
        # Build a level-correct sibling subtree whose top sits one level
        # below the root, and reinsert its entry at the root's own level.
        extra = rng.random((6, 2))
        leaf = Node(tree.store.allocate(), level=0)
        for i, p in enumerate(extra):
            leaf.entries.append(NodeEntry(MBB.of_point(p), 200 + i))
        tree.store.write(leaf)
        top = leaf
        for level in range(1, root_level):
            wrap = Node(
                tree.store.allocate(),
                level=level,
                entries=[NodeEntry(top.mbb(), top.node_id)],
            )
            tree.store.write(wrap)
            top = wrap
        entry = NodeEntry(top.mbb(), top.node_id)
        tree._reinserted_levels = set()
        tree._pending = [(entry, root_level)]
        while tree._pending:
            pending_entry, lvl = tree._pending.pop()
            tree._insert_at_level(pending_entry, lvl)
        tree.size += 6
        tree.validate(check_fill=False)  # single-entry wraps are underfull
        found = tree.range_query(np.zeros(2), np.ones(2))
        assert len(found) == 126
        assert {200 + i for i in range(6)} <= set(found)


class TestMutationCounter:
    def test_counts_inserts_and_deletes(self):
        rng = np.random.default_rng(36)
        pts = rng.random((40, 2))
        tree = RStarTree(2, leaf_capacity=6, internal_capacity=6)
        assert tree.size == 0
        for rid, p in enumerate(pts):
            tree.insert(p, rid)
        assert tree.size == 40
        assert tree.delete(pts[0], 0)
        assert tree.size == 39
        # A failed delete changes nothing.
        assert not tree.delete(np.array([0.5, 0.5]), 9999)
        assert tree.size == 39
