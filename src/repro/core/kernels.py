"""Compiled hot-loop kernels with pure-numpy fallbacks.

The serving hot path bottoms out in a handful of tiny dense loops: the
segmented membership reduction of :class:`~repro.core.region_index.RegionIndex`
(one matvec over all cached half-space rows plus a per-entry AND), the
facet-visibility tests inside the FP fan refinement
(:mod:`repro.core.phase2_fp` / :class:`~repro.geometry.incident_facets.FacetFan`)
and the grid-signature cell math of the cache admission prescreen. Each of
them has two implementations here:

* a **numpy fallback** — exactly the vectorized expressions the callers
  used inline before this module existed; always available;
* a **numba-jitted variant** — the same loop compiled with
  ``numba.njit(cache=True)``, which wins by fusing the matvec with the
  segment reduction (early exit per segment, no temporaries).

Selection happens **once at import time**: the jitted variants are active
iff ``numba`` is importable *and* the ``REPRO_NO_JIT`` environment
variable is unset/empty. :data:`ACTIVE_BACKEND` records the decision
(``"numba"`` / ``"numpy"``) so tests, benchmarks and bug reports can state
which code actually ran. ``fastmath`` stays **off** so the compiled loops
perform the same IEEE operations in the same order as the fallbacks —
the bit-equivalence contract ``tests/test_kernels.py`` enforces whenever
numba is present.

Every kernel is also exported under its implementation-specific name
(``*_numpy`` and, when numba is importable, ``*_numba``), so equivalence
tests and the admission benchmark can race both paths inside one process
regardless of which one is active.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "ACTIVE_BACKEND",
    "NUMBA_AVAILABLE",
    "JIT_DISABLED_BY_ENV",
    "segmented_membership",
    "segmented_membership_batch",
    "segmented_max",
    "above_mask",
    "any_above",
    "box_any_above",
    "boxes_any_above",
    "facet_heights",
    "dominated_mask",
    "segmented_membership_numpy",
    "segmented_membership_batch_numpy",
    "segmented_max_numpy",
    "above_mask_numpy",
    "any_above_numpy",
    "box_any_above_numpy",
    "boxes_any_above_numpy",
    "facet_heights_numpy",
    "dominated_mask_numpy",
]

#: True when ``REPRO_NO_JIT`` is set to a non-empty value — the escape
#: hatch that forces the numpy fallbacks even with numba installed.
JIT_DISABLED_BY_ENV = bool(os.environ.get("REPRO_NO_JIT", ""))

try:  # pragma: no cover - exercised only where numba is installed
    if JIT_DISABLED_BY_ENV:
        raise ImportError("jit disabled via REPRO_NO_JIT")
    import numba

    NUMBA_AVAILABLE = True
except ImportError:
    numba = None
    NUMBA_AVAILABLE = False


# -- numpy fallbacks ----------------------------------------------------------
#
# These are the reference semantics: byte-for-byte the expressions the
# callers inlined before this module existed.


def segmented_membership_numpy(
    A: np.ndarray, b: np.ndarray, offsets: np.ndarray, x: np.ndarray, tol: float
) -> np.ndarray:
    """Per-segment AND of ``A @ x <= b + tol`` over row segments.

    ``offsets`` has one more element than there are segments; segment ``i``
    owns rows ``offsets[i]:offsets[i+1]``. Returns a boolean array with one
    entry per segment.
    """
    ok = A @ x <= b + tol
    return np.logical_and.reduceat(ok, offsets[:-1])


def segmented_membership_batch_numpy(
    A: np.ndarray, b: np.ndarray, offsets: np.ndarray, X: np.ndarray, tol: float
) -> np.ndarray:
    """Batched :func:`segmented_membership_numpy`: ``X`` is ``(q, d)``,
    returns boolean ``(q, n_segments)``."""
    ok = X @ A.T <= b + tol
    return np.logical_and.reduceat(ok, offsets[:-1], axis=1)


def segmented_max_numpy(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment max of a stacked value vector (see membership for the
    segment convention)."""
    return np.maximum.reduceat(values, offsets[:-1])


def above_mask_numpy(
    normals: np.ndarray, offsets: np.ndarray, point: np.ndarray, eps: float
) -> np.ndarray:
    """Which facets (rows of ``normals`` / entries of ``offsets``) does
    ``point`` lie strictly above? The FP fan's per-point visibility test."""
    return normals @ point - offsets > eps


def any_above_numpy(
    points: np.ndarray, normals: np.ndarray, offsets: np.ndarray, eps: float
) -> np.ndarray:
    """Per-point: is the point above at least one facet? ``points`` is
    ``(m, d)``; the batched prefilter of ``FacetFan.add_points``."""
    return (points @ normals.T - offsets > eps).any(axis=1)


def box_any_above_numpy(
    pos: np.ndarray,
    neg: np.ndarray,
    offsets: np.ndarray,
    hi: np.ndarray,
    lo: np.ndarray,
    eps: float,
) -> bool:
    """Can any point of the box ``[lo, hi]`` lie above some facet?

    ``pos`` / ``neg`` are the clamped facet normals ``max(n, 0)`` /
    ``min(n, 0)`` — the max of a linear function over a box is
    corner-separable. This is the node-pruning test of FP's disk step.
    """
    best = pos @ hi + neg @ lo
    return bool((best - offsets > eps).any())


def boxes_any_above_numpy(
    pos: np.ndarray,
    neg: np.ndarray,
    offsets: np.ndarray,
    his: np.ndarray,
    los: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Batched :func:`box_any_above_numpy`: ``his`` / ``los`` are ``(m, d)``
    box corners, the result is one boolean per box. FP's disk step tests a
    whole heap (or a fetched node's children) with one call."""
    best = his @ pos.T + los @ neg.T
    return (best - offsets > eps).any(axis=1)


def facet_heights_numpy(
    points: np.ndarray, normals: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Signed height of every point over every facet, ``(m, F)``; positive
    means above. ``FacetFan.add_points`` keeps this matrix current across
    insertions instead of re-testing the pending batch."""
    return points @ normals.T - offsets


def dominated_mask_numpy(apex: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Which rows of ``points`` are dominated by ``apex`` (component-wise
    ``>=`` everywhere, ``>`` somewhere)? FP's record dominance filter."""
    return (apex >= points).all(axis=1) & (apex > points).any(axis=1)


# -- numba variants -----------------------------------------------------------

if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(cache=True)
    def segmented_membership_numba(A, b, offsets, x, tol):
        n = offsets.shape[0] - 1
        d = A.shape[1]
        out = np.empty(n, dtype=np.bool_)
        for i in range(n):
            ok = True
            for r in range(offsets[i], offsets[i + 1]):
                acc = 0.0
                for j in range(d):
                    acc += A[r, j] * x[j]
                if not (acc <= b[r] + tol):
                    ok = False
                    break
            out[i] = ok
        return out

    @numba.njit(cache=True)
    def segmented_membership_batch_numba(A, b, offsets, X, tol):
        q = X.shape[0]
        n = offsets.shape[0] - 1
        d = A.shape[1]
        out = np.empty((q, n), dtype=np.bool_)
        for p in range(q):
            for i in range(n):
                ok = True
                for r in range(offsets[i], offsets[i + 1]):
                    acc = 0.0
                    for j in range(d):
                        acc += A[r, j] * X[p, j]
                    if not (acc <= b[r] + tol):
                        ok = False
                        break
                out[p, i] = ok
        return out

    @numba.njit(cache=True)
    def segmented_max_numba(values, offsets):
        n = offsets.shape[0] - 1
        out = np.empty(n, dtype=values.dtype)
        for i in range(n):
            best = values[offsets[i]]
            for r in range(offsets[i] + 1, offsets[i + 1]):
                if values[r] > best:
                    best = values[r]
            out[i] = best
        return out

    @numba.njit(cache=True)
    def above_mask_numba(normals, offsets, point, eps):
        m = normals.shape[0]
        d = normals.shape[1]
        out = np.empty(m, dtype=np.bool_)
        for i in range(m):
            acc = 0.0
            for j in range(d):
                acc += normals[i, j] * point[j]
            out[i] = acc - offsets[i] > eps
        return out

    @numba.njit(cache=True)
    def any_above_numba(points, normals, offsets, eps):
        m = points.shape[0]
        f = normals.shape[0]
        d = normals.shape[1]
        out = np.empty(m, dtype=np.bool_)
        for p in range(m):
            seen = False
            for i in range(f):
                acc = 0.0
                for j in range(d):
                    acc += points[p, j] * normals[i, j]
                if acc - offsets[i] > eps:
                    seen = True
                    break
            out[p] = seen
        return out

    @numba.njit(cache=True)
    def box_any_above_numba(pos, neg, offsets, hi, lo, eps):
        f = pos.shape[0]
        d = pos.shape[1]
        for i in range(f):
            acc = 0.0
            for j in range(d):
                acc += pos[i, j] * hi[j] + neg[i, j] * lo[j]
            if acc - offsets[i] > eps:
                return True
        return False

    @numba.njit(cache=True)
    def boxes_any_above_numba(pos, neg, offsets, his, los, eps):
        m = his.shape[0]
        f = pos.shape[0]
        d = pos.shape[1]
        out = np.empty(m, dtype=np.bool_)
        for p in range(m):
            seen = False
            for i in range(f):
                acc = 0.0
                for j in range(d):
                    acc += his[p, j] * pos[i, j] + los[p, j] * neg[i, j]
                if acc - offsets[i] > eps:
                    seen = True
                    break
            out[p] = seen
        return out

    @numba.njit(cache=True)
    def facet_heights_numba(points, normals, offsets):
        m = points.shape[0]
        f = normals.shape[0]
        d = normals.shape[1]
        out = np.empty((m, f), dtype=np.float64)
        for p in range(m):
            for i in range(f):
                acc = 0.0
                for j in range(d):
                    acc += points[p, j] * normals[i, j]
                out[p, i] = acc - offsets[i]
        return out

    @numba.njit(cache=True)
    def dominated_mask_numba(apex, points):
        m = points.shape[0]
        d = points.shape[1]
        out = np.empty(m, dtype=np.bool_)
        for p in range(m):
            all_ge = True
            any_gt = False
            for j in range(d):
                if apex[j] < points[p, j]:
                    all_ge = False
                    break
                if apex[j] > points[p, j]:
                    any_gt = True
            out[p] = all_ge and any_gt
        return out


# -- import-time selection ----------------------------------------------------

if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed
    ACTIVE_BACKEND = "numba"
    segmented_membership = segmented_membership_numba
    segmented_membership_batch = segmented_membership_batch_numba
    segmented_max = segmented_max_numba
    above_mask = above_mask_numba
    any_above = any_above_numba
    box_any_above = box_any_above_numba
    boxes_any_above = boxes_any_above_numba
    facet_heights = facet_heights_numba
    dominated_mask = dominated_mask_numba
else:
    ACTIVE_BACKEND = "numpy"
    segmented_membership = segmented_membership_numpy
    segmented_membership_batch = segmented_membership_batch_numpy
    segmented_max = segmented_max_numpy
    above_mask = above_mask_numpy
    any_above = any_above_numpy
    box_any_above = box_any_above_numpy
    boxes_any_above = boxes_any_above_numpy
    facet_heights = facet_heights_numpy
    dominated_mask = dominated_mask_numpy


def backend_info() -> dict:
    """Provenance blob for benchmark reports: which kernels actually ran."""
    return {
        "active": ACTIVE_BACKEND,
        "numba_available": NUMBA_AVAILABLE,
        "jit_disabled_by_env": JIT_DISABLED_BY_ENV,
    }
