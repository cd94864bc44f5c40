"""Minimum bounding boxes (MBBs) and their score bounds.

The R-tree organises entries by axis-aligned minimum bounding boxes. For
top-k processing with non-negative weight vectors, the *maxscore* of an MBB
— the largest score any point inside it can achieve — is attained at its top
corner (the paper defines it as the max over the MBB's corners, which for a
monotone function is the top corner). The BRS and BBS algorithms order their
search heaps by this bound, on the ``hi`` rows of a node.

The tree stores boxes as ``(m, d)`` ``lo`` / ``hi`` row stacks
(:mod:`repro.index.node`), and the functions here are the box geometry
over such stacks: every argument broadcasts over leading axes, ``d`` is
the last axis, and each row's value is bit-equal to the same function on
that one box alone. :class:`MBB` is a single validated box.
"""

from __future__ import annotations

import numpy as np
from repro.core.tolerances import EXACT_TOL

__all__ = [
    "MBB",
    "box_areas",
    "box_margins",
    "box_overlaps",
    "boxes_intersect",
    "boxes_contain",
]


def box_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Volumes of the boxes (the R*-tree literature calls them areas)."""
    return np.prod(hi - lo, axis=-1)


def box_margins(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of edge lengths (×2^(d-1) in the R* paper; the constant factor
    does not affect argmin comparisons, so this is the plain sum)."""
    return np.sum(hi - lo, axis=-1)


def box_overlaps(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray
) -> np.ndarray:
    """Volumes of the intersections of boxes ``a`` and ``b``: 0 when some
    extent is ≤ 0 (disjoint, touching or flat)."""
    ext = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    return np.where((ext <= 0).any(axis=-1), 0.0, np.prod(ext, axis=-1))


def boxes_intersect(
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
    atol: float = EXACT_TOL,
) -> np.ndarray:
    """True where boxes ``a`` and ``b`` share at least one point (a
    closed-box test).

    Unlike ``box_overlaps(...) > 0`` this is exact for zero-volume
    contacts: boxes that merely touch at a face/edge/corner, and degenerate
    (axis-flat or point) boxes, still intersect. R-tree window descent
    must use this predicate — a volume test silently skips subtrees whose
    bounding boxes are flat along some axis (e.g. duplicated coordinate
    values).
    """
    return (lo_b <= hi_a + atol).all(axis=-1) & (lo_a <= hi_b + atol).all(axis=-1)


def boxes_contain(
    lo: np.ndarray, hi: np.ndarray, points: np.ndarray, atol: float = EXACT_TOL
) -> np.ndarray:
    """True where box ``[lo, hi]`` contains the point (closed, within
    ``atol``)."""
    return (points >= lo - atol).all(axis=-1) & (points <= hi + atol).all(axis=-1)


class MBB:
    """Axis-aligned box ``[lo, hi]`` in ``[0, 1]^d``.

    The tree holds no ``MBB`` objects. This is the public single-box value
    type: :meth:`repro.geometry.incident_facets.FacetFan.mbb_sees` takes
    one, and its score bounds and dominance test are the per-box forms of
    what BRS, BBS and FP compute over a node's rows.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if (lo > hi + EXACT_TOL).any():
            raise ValueError("MBB requires lo <= hi in every dimension")
        self.lo = lo
        self.hi = hi

    @classmethod
    def of_points(cls, points: np.ndarray) -> "MBB":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (m, d) array of points")
        return cls(points.min(axis=0), points.max(axis=0))

    @property
    def d(self) -> int:
        return int(self.lo.shape[0])

    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    # -- score bounds -----------------------------------------------------------

    def maxscore(self, weights: np.ndarray) -> float:
        """Upper bound on the score of any point in the box.

        For non-negative weights this is the score of the top corner ``hi``;
        in general it is attained corner-wise: take ``hi_i`` where ``w_i > 0``
        and ``lo_i`` otherwise.
        """
        w = np.asarray(weights, dtype=np.float64)
        return float(np.where(w >= 0, self.hi, self.lo) @ w)

    def minscore(self, weights: np.ndarray) -> float:
        """Lower bound on the score of any point in the box."""
        w = np.asarray(weights, dtype=np.float64)
        return float(np.where(w >= 0, self.lo, self.hi) @ w)

    # -- dominance (used by BBS pruning) ------------------------------------------

    def dominated_by(self, point: np.ndarray) -> bool:
        """True if ``point`` dominates the *entire* box.

        A record dominates the whole box iff it dominates the box's top
        corner (every point in the box is ≤ the top corner component-wise).
        """
        p = np.asarray(point, dtype=np.float64)
        return bool((p >= self.hi).all() and (p > self.hi).any())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBB):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MBB(lo={self.lo.tolist()}, hi={self.hi.tolist()})"
