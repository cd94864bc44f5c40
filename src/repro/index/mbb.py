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
that one box alone. There is no single-box type: one box is a stack of
one row.
"""

from __future__ import annotations

import numpy as np
from repro.core.tolerances import EXACT_TOL

__all__ = [
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

