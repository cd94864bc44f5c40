"""Tests for minimum bounding boxes: the row-stack geometry the tree uses,
and the single-box ``MBB`` value type."""

import numpy as np
import pytest

from repro.index.mbb import (
    MBB,
    box_areas,
    box_margins,
    box_overlaps,
    boxes_contain,
    boxes_intersect,
)
from repro.index.node import Node


def box(lo, hi):
    return np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)


class TestConstruction:
    def test_of_point_degenerate(self):
        """A leaf row is its point's degenerate box: zero area, and it
        contains the point."""
        p = np.array([0.3, 0.7])
        assert box_areas(p, p) == 0.0
        assert boxes_contain(p, p, p)

    def test_of_points(self):
        m = MBB.of_points(np.array([[0.1, 0.9], [0.5, 0.2]]))
        assert np.allclose(m.lo, [0.1, 0.2])
        assert np.allclose(m.hi, [0.5, 0.9])

    def test_of_points_rejects_empty(self):
        with pytest.raises(ValueError):
            MBB.of_points(np.empty((0, 2)))

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            MBB(np.array([0.5, 0.5]), np.array([0.4, 0.6]))

    def test_union_of_rejects_empty(self):
        """The union of zero rows (an empty node's bounds) is an error."""
        with pytest.raises(ValueError):
            Node.empty(0, 1, 2).bounds()


class TestGeometry:
    def test_union(self):
        """The union of two boxes is their parent row: a node's bounds."""
        node = Node(
            0, 1, np.array([[0.0, 0.0], [0.4, 0.2]]), np.array([[0.5, 0.5], [0.9, 0.3]]),
            np.array([1, 2], dtype=np.int64),
        )
        lo, hi = node.bounds()
        assert np.allclose(lo, [0.0, 0.0])
        assert np.allclose(hi, [0.9, 0.5])

    def test_area_margin(self):
        lo, hi = box([0.0, 0.0], [0.5, 0.2])
        assert box_areas(lo, hi) == pytest.approx(0.1)
        assert box_margins(lo, hi) == pytest.approx(0.7)

    def test_overlap_positive(self):
        a = box([0.0, 0.0], [0.5, 0.5])
        b = box([0.25, 0.25], [0.75, 0.75])
        assert box_overlaps(*a, *b) == pytest.approx(0.0625)
        assert box_overlaps(*b, *a) == pytest.approx(0.0625)

    def test_overlap_disjoint(self):
        a = box([0.0, 0.0], [0.2, 0.2])
        b = box([0.5, 0.5], [0.9, 0.9])
        assert box_overlaps(*a, *b) == 0.0

    def test_overlap_touching_is_zero(self):
        a = box([0.0, 0.0], [0.5, 0.5])
        b = box([0.5, 0.0], [1.0, 0.5])
        assert box_overlaps(*a, *b) == 0.0

    def test_enlargement_point(self):
        lo, hi = box([0.0, 0.0], [0.5, 0.5])
        p = np.array([1.0, 0.5])
        grown = box_areas(np.minimum(lo, p), np.maximum(hi, p)) - box_areas(lo, hi)
        assert grown == pytest.approx(0.25)

    def test_enlargement_contained_is_zero(self):
        lo, hi = box([0.0, 0.0], [0.5, 0.5])
        p = np.array([0.25, 0.25])
        assert box_areas(np.minimum(lo, p), np.maximum(hi, p)) - box_areas(lo, hi) == 0.0

    def test_row_stacks_match_one_box_at_a_time(self, rng):
        """Over ``(m, d)`` stacks and ``(m, m, d)`` broadcasts, every value
        is bit-equal to the same function on that one box."""
        for d in (2, 4, 8):
            lo = rng.random((12, d)) * 0.6
            hi = lo + rng.random((12, d)) * 0.4
            hi[3, 1] = lo[3, 1]  # a flat box
            areas, margins = box_areas(lo, hi), box_margins(lo, hi)
            pairs = box_overlaps(lo[:, None], hi[:, None], lo[None], hi[None])
            for i in range(12):
                assert areas[i] == box_areas(lo[i], hi[i])
                assert margins[i] == box_margins(lo[i], hi[i])
                for j in range(12):
                    assert pairs[i, j] == box_overlaps(lo[i], hi[i], lo[j], hi[j])
            assert (pairs[3] == 0.0).all() and (pairs[:, 3] == 0.0).all()

    def test_center(self):
        m = MBB(np.array([0.0, 0.2]), np.array([0.4, 0.8]))
        assert np.allclose(m.center(), [0.2, 0.5])


class TestScoreBounds:
    def test_maxscore_nonnegative_weights(self):
        m = MBB(np.array([0.1, 0.2]), np.array([0.5, 0.9]))
        w = np.array([1.0, 2.0])
        assert m.maxscore(w) == pytest.approx(0.5 + 1.8)

    def test_minscore(self):
        m = MBB(np.array([0.1, 0.2]), np.array([0.5, 0.9]))
        w = np.array([1.0, 2.0])
        assert m.minscore(w) == pytest.approx(0.1 + 0.4)

    def test_maxscore_negative_weight_uses_lo(self):
        m = MBB(np.array([0.1, 0.2]), np.array([0.5, 0.9]))
        w = np.array([-1.0, 1.0])
        assert m.maxscore(w) == pytest.approx(-0.1 + 0.9)

    def test_maxscore_bounds_every_contained_point(self):
        rng = np.random.default_rng(3)
        m = MBB(np.array([0.2, 0.3, 0.1]), np.array([0.6, 0.8, 0.5]))
        w = rng.random(3)
        pts = m.lo + rng.random((100, 3)) * (m.hi - m.lo)
        assert (pts @ w <= m.maxscore(w) + 1e-12).all()


class TestDominance:
    def test_dominated_by_point_above(self):
        m = MBB(np.array([0.1, 0.1]), np.array([0.4, 0.4]))
        assert m.dominated_by(np.array([0.5, 0.5]))

    def test_not_dominated_by_equal_corner(self):
        m = MBB(np.array([0.1, 0.1]), np.array([0.4, 0.4]))
        assert not m.dominated_by(np.array([0.4, 0.4]))

    def test_not_dominated_partially(self):
        m = MBB(np.array([0.1, 0.1]), np.array([0.4, 0.4]))
        assert not m.dominated_by(np.array([0.9, 0.3]))


class TestEquality:
    def test_eq(self):
        a = MBB(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        b = MBB(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        assert a == b

    def test_neq(self):
        a = MBB(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        b = MBB(np.array([0.0, 0.0]), np.array([0.5, 0.6]))
        assert a != b


class TestIntersects:
    def test_overlapping_boxes(self):
        a = box([0.0, 0.0], [0.5, 0.5])
        b = box([0.4, 0.4], [0.9, 0.9])
        assert boxes_intersect(*a, *b) and boxes_intersect(*b, *a)

    def test_disjoint_boxes(self):
        a = box([0.0, 0.0], [0.3, 0.3])
        b = box([0.5, 0.5], [0.9, 0.9])
        assert not boxes_intersect(*a, *b) and not boxes_intersect(*b, *a)

    def test_touching_faces_intersect_despite_zero_overlap(self):
        a = box([0.0, 0.0], [0.5, 0.5])
        b = box([0.5, 0.0], [0.9, 0.5])
        assert box_overlaps(*a, *b) == 0.0
        assert boxes_intersect(*a, *b)

    def test_flat_box_inside_window(self):
        """Axis-flat boxes (duplicated coordinate values) have zero volume
        but must still register as intersecting."""
        window = box([0.2, 0.2], [0.6, 0.6])
        flat = box([0.25, 0.3], [0.25, 0.5])
        assert box_overlaps(*window, *flat) == 0.0
        assert boxes_intersect(*window, *flat)
        assert boxes_intersect(*flat, *window)

    def test_point_box(self):
        window = box([0.2, 0.2], [0.6, 0.6])
        points = np.array([[0.4, 0.4], [0.7, 0.4]])
        assert boxes_intersect(*window, points, points).tolist() == [True, False]
        assert boxes_contain(*window, points).tolist() == [True, False]
