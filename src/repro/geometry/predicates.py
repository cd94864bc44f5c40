"""Geometric predicates with explicit tolerances.

All floating-point sidedness decisions in the library go through this module
so that tolerance policy lives in one place. The paper assumes tie-free
data (Section 6.1); the tolerances below only guard against floating-point
noise, not against genuinely degenerate inputs.
"""

from __future__ import annotations

import numpy as np
from repro.core.tolerances import MEMBERSHIP_TOL, PREDICATE_EPS

__all__ = [
    "EPS",
    "dominates",
    "affine_rank_basis",
]

#: Default absolute tolerance for sidedness tests on unit-cube data.
EPS = PREDICATE_EPS


def dominates(p: np.ndarray, q: np.ndarray) -> bool:
    """True if record ``p`` dominates record ``q``.

    Dominance per Section 5.1: ``p`` is no smaller than ``q`` in every
    dimension and strictly larger in at least one.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return bool((p >= q).all() and (p > q).any())


def affine_rank_basis(
    apex: np.ndarray, candidates: list[np.ndarray], target_rank: int, tol: float = MEMBERSHIP_TOL
) -> list[int]:
    """Greedily select candidate indices whose offsets from ``apex`` are
    linearly independent, until ``target_rank`` directions are found.

    Used to seed the FP facet fan with an initial full-dimensional simplex.
    Returns the selected indices (may be fewer than ``target_rank`` when the
    candidates span a lower-dimensional flat).
    """
    apex = np.asarray(apex, dtype=np.float64)
    basis: list[np.ndarray] = []
    chosen: list[int] = []
    for idx, cand in enumerate(candidates):
        if len(chosen) >= target_rank:
            break
        v = np.asarray(cand, dtype=np.float64) - apex
        norm = np.linalg.norm(v)
        if norm <= tol:
            continue
        # Gram-Schmidt residual against the current basis.
        residual = v.copy()
        for b in basis:
            residual -= (residual @ b) * b
        res_norm = np.linalg.norm(residual)
        if res_norm > tol * max(1.0, norm):
            basis.append(residual / res_norm)
            chosen.append(idx)
    return chosen
