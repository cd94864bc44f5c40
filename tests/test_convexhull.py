"""Tests for the Qhull-backed hull helpers."""

import numpy as np
from scipy.spatial import ConvexHull

from repro.geometry.convexhull import hull_vertex_ids, qhull_facet_count


def qhull_vertices(points: np.ndarray) -> set[int]:
    return set(int(v) for v in ConvexHull(points).vertices)


class TestQhullHelpers:
    def test_vertex_ids_match_qhull(self, rng):
        pts = rng.random((100, 3))
        assert hull_vertex_ids(pts) == qhull_vertices(pts)

    def test_small_input_returns_all(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert hull_vertex_ids(pts) == {0, 1}

    def test_degenerate_fallback_returns_all(self):
        pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3], [4, 4]], dtype=float)
        got = hull_vertex_ids(pts)
        assert got == {0, 1, 2, 3, 4}  # safe over-approximation

    def test_facet_count_square(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        assert qhull_facet_count(pts) == 4

