"""The hot-loop kernels of the serving and miss paths, in numpy.

The serving hot path bottoms out in a handful of tiny dense loops: the
segmented membership reduction of :class:`~repro.core.region_index.RegionIndex`
(one matmul of a query batch against all cached half-space rows plus a
per-entry AND), the facet-visibility tests inside the FP fan refinement
(:mod:`repro.core.phase2_fp` / :class:`~repro.geometry.incident_facets.FacetFan`)
and the screen bound of the insert prescreen. They live here, one
implementation each, so a change to one of them is a change to this
module only. Every kernel takes row stacks: a single query vector, point
or box is a batch of one row, and there is no single-row twin.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend_info",
    "segmented_membership_batch",
    "segmented_max",
    "boxes_any_above",
    "facet_heights",
    "dominated_mask",
]


def segmented_membership_batch(
    A: np.ndarray, b: np.ndarray, offsets: np.ndarray, X: np.ndarray, tol: float
) -> np.ndarray:
    """Per-segment AND of ``X @ Aᵀ <= b + tol`` over row segments.

    ``offsets`` has one more element than there are segments; segment ``i``
    owns rows ``offsets[i]:offsets[i+1]``. ``X`` is ``(q, d)``; returns
    boolean ``(q, n_segments)``.
    """
    ok = X @ A.T <= b + tol
    return np.logical_and.reduceat(ok, offsets[:-1], axis=1)


def segmented_max(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment max of a stacked value vector (segments as in
    :func:`segmented_membership_batch`)."""
    return np.maximum.reduceat(values, offsets[:-1])


def boxes_any_above(
    pos: np.ndarray,
    neg: np.ndarray,
    offsets: np.ndarray,
    his: np.ndarray,
    los: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Can any point of each box ``[lo, hi]`` lie above some facet?

    ``his`` / ``los`` are ``(m, d)`` box corners and the result is one
    boolean per box. ``pos`` / ``neg`` are the clamped facet normals
    ``max(n, 0)`` / ``min(n, 0)``: the max of a linear function over a box
    is corner-separable. FP's disk step tests a whole heap (or a fetched
    node's children) with one call.
    """
    best = his @ pos.T + los @ neg.T
    return (best - offsets > eps).any(axis=1)


def facet_heights(
    points: np.ndarray, normals: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Signed height of every point over every facet, ``(m, F)``; positive
    means above. ``FacetFan.add_points`` keeps this matrix current across
    insertions instead of re-testing the pending batch."""
    return points @ normals.T - offsets


def dominated_mask(apex: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Which rows of ``points`` are dominated by ``apex`` (component-wise
    ``>=`` everywhere, ``>`` somewhere)? FP's record dominance filter."""
    return (apex >= points).all(axis=1) & (apex > points).any(axis=1)


def backend_info() -> dict:
    """Provenance blob for benchmark reports: which kernels ran."""
    return {"active": "numpy"}
