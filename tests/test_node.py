"""Tests for node layout and entry semantics."""

import numpy as np
import pytest

from repro.index.node import Node, node_capacities


def leaf(points, node_id=0):
    points = np.asarray(points, dtype=np.float64)
    return Node(node_id, 0, points, None, np.arange(len(points), dtype=np.int64))


class TestNode:
    def test_leaf_rows_are_points(self):
        """A leaf row is its record's point, a degenerate box: ``hi is lo``."""
        node = Node(0, 0, np.array([[0.3, 0.7]]), None, np.array([42], dtype=np.int64))
        assert node.hi is node.lo
        assert np.array_equal(node.lo[0], [0.3, 0.7])
        assert node.ids[0] == 42

    def test_leaf_flag(self):
        assert Node.empty(0, 0, 2).is_leaf
        assert not Node.empty(0, 1, 2).is_leaf

    def test_mbb_union_of_entries(self):
        lo, hi = leaf([[0.1, 0.8], [0.6, 0.2]]).bounds()
        assert np.allclose(lo, [0.1, 0.2])
        assert np.allclose(hi, [0.6, 0.8])

    def test_mbb_of_empty_node_raises(self):
        with pytest.raises(ValueError, match="no entries"):
            Node.empty(0, 0, 2).bounds()

    def test_len(self):
        assert len(leaf([[0.1, 0.8]])) == 1

    def test_writes_install_new_arrays(self):
        """Appending, replacing a row and keeping rows never write into
        arrays a reader may hold a view of."""
        node = Node(
            5, 1, np.zeros((2, 2)), np.ones((2, 2)), np.array([7, 8], dtype=np.int64)
        )
        lo, hi, ids = node.lo, node.hi, node.ids
        row = node.hi[0]
        node.set_row(0, np.full(2, 0.5), np.full(2, 0.75))
        node.append(np.full(2, 0.25), np.full(2, 0.5), 9)
        node.keep(np.array([2, 0]))
        assert np.array_equal(row, [1.0, 1.0])
        assert np.array_equal(lo, np.zeros((2, 2))) and np.array_equal(hi, np.ones((2, 2)))
        assert ids.tolist() == [7, 8]
        assert node.ids.tolist() == [9, 7]
        assert np.array_equal(node.lo, [[0.25, 0.25], [0.5, 0.5]])
        assert np.array_equal(node.hi, [[0.5, 0.5], [0.75, 0.75]])

    def test_leaf_keeps_hi_is_lo_through_writes(self):
        node = leaf([[0.1, 0.8], [0.6, 0.2]])
        node.append(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 2)
        assert node.hi is node.lo
        node.keep(node.ids != 0)
        assert node.hi is node.lo and node.ids.tolist() == [1, 2]


class TestCapacityArithmetic:
    def test_internal_capacity_below_leaf(self):
        """Internal entries store a full MBB, so fan-out is smaller."""
        for d in range(2, 9):
            leaf, internal = node_capacities(4096, d)
            assert internal <= leaf

    def test_scaling_with_page_size(self):
        small_leaf, _ = node_capacities(2048, 4)
        big_leaf, _ = node_capacities(8192, 4)
        assert big_leaf > 2 * small_leaf * 0.9  # roughly proportional
