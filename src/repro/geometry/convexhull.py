"""Convex hulls through Qhull.

CP and GIR* prune their candidates to convex-hull vertices, and Fig 8
reports hull facet counts. All go through ``scipy.spatial.ConvexHull`` —
the same Qhull library the paper links against — with degeneracy
fallbacks:

* :func:`hull_vertex_ids` — indices of the hull vertices;
* :func:`qhull_facet_count` — number of simplicial facets.

FP's incremental hull update (beneath-and-beyond through the horizon
ridges, Section 6.3.1) lives in :class:`repro.geometry.FacetFan`, which
keeps only the facets incident to the apex.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

__all__ = ["hull_vertex_ids", "qhull_facet_count"]


def hull_vertex_ids(points: np.ndarray) -> set[int]:
    """Indices of hull vertices via qhull, with degeneracy fallbacks.

    Inputs smaller than ``d + 2`` points, or inputs spanning a
    lower-dimensional flat, fall back to returning all (distinct) points —
    a safe over-approximation for CP's pruning purposes (extra records only
    add redundant half-spaces; they never change the GIR).
    """
    points = np.asarray(points, dtype=np.float64)
    m, d = points.shape
    if m <= d + 1:
        return set(range(m))
    try:
        return set(int(v) for v in ConvexHull(points).vertices)
    except QhullError:
        try:
            return set(int(v) for v in ConvexHull(points, qhull_options="QJ").vertices)
        except QhullError:
            return set(range(m))


def qhull_facet_count(points: np.ndarray) -> int:
    """Number of (simplicial) facets of the hull of ``points`` via qhull."""
    points = np.asarray(points, dtype=np.float64)
    try:
        return int(ConvexHull(points).simplices.shape[0])
    except QhullError:
        return int(ConvexHull(points, qhull_options="QJ").simplices.shape[0])
