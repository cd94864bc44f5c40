"""Tests for the dynamic R*-tree."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tolerances import EXACT_TOL
from repro.data.dataset import Dataset
from repro.data.synthetic import independent
from repro.index.bulkload import bulk_load_str
from repro.index.rtree import RStarTree
from repro.index.serde import encode_node
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
    @pytest.mark.parametrize("caps", [(8, 8), (6, 5), (4, 4)])
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
        from repro.index.node import Node

        rng = np.random.default_rng(35)
        pts = rng.random((120, 2))
        tree = build_by_insertion(pts, leaf_capacity=8, internal_capacity=8)
        root_level = tree.root().level
        assert root_level >= 1
        # Build a level-correct sibling subtree whose top sits one level
        # below the root, and reinsert its entry at the root's own level.
        extra = rng.random((6, 2))
        leaf = Node(tree.store.allocate(), 0, extra, None, 200 + np.arange(6))
        tree.store.write(leaf)
        top = leaf
        for level in range(1, root_level):
            lo, hi = top.bounds()
            wrap = Node(
                tree.store.allocate(), level, lo[None], hi[None], np.array([top.node_id])
            )
            tree.store.write(wrap)
            top = wrap
        entry = (*top.bounds(), top.node_id)
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



#: Coordinates drawn from a coarse grid make exact duplicates and
#: axis-flat (zero-volume) boxes common; free floats mix in the rest.
coordinate = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
)


@st.composite
def write_streams(draw):
    """``(d, caps, window, ops)``: an interleaving of inserts (``point``)
    and deletes (``index`` into the live records, modulo their count)."""
    d = draw(st.integers(2, 3))
    caps = draw(st.sampled_from([(4, 4), (6, 5)]))
    point = st.lists(coordinate, min_size=d, max_size=d)
    op = st.one_of(
        st.tuples(st.just("insert"), point),
        st.tuples(st.just("delete"), st.integers(0, 10_000)),
    )
    ops = draw(st.lists(op, min_size=1, max_size=90))
    corners = draw(st.lists(point, min_size=2, max_size=2))
    window = np.minimum(*map(np.array, corners)), np.maximum(*map(np.array, corners))
    return d, caps, window, ops


class TestWriteInterleavingProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(write_streams())
    def test_validate_and_range_query_after_every_write(self, stream):
        """Any interleaving of inserts and deletes over duplicate and
        axis-flat points keeps every structural invariant, and a window
        query answers what a numpy scan of the live records does."""
        d, caps, (lo, hi), ops = stream
        tree = RStarTree(d, leaf_capacity=caps[0], internal_capacity=caps[1])
        live: dict[int, np.ndarray] = {}
        next_rid = 0
        for kind, arg in ops:
            if kind == "insert":
                p = np.array(arg, dtype=np.float64)
                tree.insert(p, next_rid)
                live[next_rid] = p
                next_rid += 1
            elif live:
                rid = list(live)[arg % len(live)]
                assert tree.delete(live.pop(rid), rid)
            tree.validate()
            rids = np.array(list(live), dtype=np.int64)
            pts = np.array([live[r] for r in rids]).reshape(-1, d)
            # The window is closed, within the tree's EXACT_TOL.
            inside = ((pts >= lo - EXACT_TOL) & (pts <= hi + EXACT_TOL)).all(axis=1)
            assert sorted(tree.range_query(lo, hi)) == sorted(rids[inside].tolist())
            assert sorted(tree.range_query(np.zeros(d), np.ones(d))) == sorted(live)

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


def tree_digest(tree: RStarTree) -> str:
    """SHA-256 over every node's page bytes (``iter_nodes`` order) plus the
    root id, height and size: equal digests mean the same tree, down to
    entry order, node ids and every coordinate bit."""
    h = hashlib.sha256()
    for node in tree.iter_nodes():
        h.update(encode_node(node, tree.store.page_size, tree.d))
    h.update(f"{tree.root_id},{tree.height},{tree.size}".encode())
    return h.hexdigest()


class TestTreeIdentity:
    """Golden digests of an STR bulk load and of a fixed write stream.

    The 512-byte page forces every R* mechanism: splits, forced
    reinserts, condense and root shrink all happen in the stream (inserts
    include exact duplicates and points in the ``[0.8, 1]^d`` corner). A
    change to any split, reinsert or choose-subtree decision, to entry
    order or to node-id allocation changes a digest.
    """

    BUMP = (
        "a page-layout change must bump serde.FORMAT_VERSION, then update "
        "this digest"
    )

    GOLDEN = {
        2: (
            240,
            "14bd4b6ba3ae6731841b856b7f390c3371d89170593a9502a460c51c87e9ac08",
            "bc3cc9044be21bec2fdc143bdfb957e8caa18c00b9e4be98e7d4b2aba896c49b",
        ),
        4: (
            200,
            "8b8e0696d6bd88ebca9efdebbe320a1d521f4dba9f4712bda3958ad9ec468dea",
            "7434c4a5383b3969fb1eee476d40aaf597919a02cd66a577d5516536366d6945",
        ),
    }

    @pytest.mark.parametrize("d", [2, 4])
    def test_bulk_load_and_write_stream_digests(self, d):
        n, bulk_digest, stream_digest = self.GOLDEN[d]
        rng = np.random.default_rng(40 + d)
        pts = rng.random((n, d))
        tree = bulk_load_str(Dataset(pts), store=PageStore(page_size=512))
        assert tree_digest(tree) == bulk_digest, self.BUMP

        live = {rid: pts[rid] for rid in range(n)}
        next_rid = n
        inserts = deletes = 0
        while inserts < 400 or deletes < 200:
            # Delete-heavy until 60 inserts (the tree shrinks), then
            # insert-heavy (it grows again).
            p_delete = 0.9 if inserts < 60 else 0.2
            if deletes < 200 and (inserts >= 400 or rng.random() < p_delete):
                rid = list(live)[int(rng.integers(len(live)))]
                assert tree.delete(live.pop(rid), rid)
                deletes += 1
                continue
            kind = rng.integers(3)
            if kind == 0 and live:  # an exact duplicate of a live record
                p = live[list(live)[int(rng.integers(len(live)))]].copy()
            elif kind == 1:
                p = 0.8 + 0.2 * rng.random(d)
            else:
                p = rng.random(d)
            tree.insert(p, next_rid)
            live[next_rid] = p
            next_rid += 1
            inserts += 1
        tree.validate(check_fill=False)
        assert tree.size == len(live)
        assert tree_digest(tree) == stream_digest, self.BUMP
