"""Scoring functions for top-k queries.

The paper's default is the linear function ``S(p, q) = q · p`` (Section 3.1).
Section 7.2 extends SP to the broader family ``S(p, q) = Σ w_i g_i(p)`` with
per-dimension monotone component functions ``g_i`` — the evaluation uses a
"Polynomial" and a "Mixed" instance (Figure 19).

Every scoring function here exposes a :meth:`transform` that maps records
from data space into *g-space*, where the score is again a plain dot product
with the weight vector. All GIR machinery (half-spaces, hulls, fans) then
operates on transformed points unchanged, exactly as Section 7.2 derives:
``S(p, q') ≥ S(p', q') ⇔ (g(p) − g(p')) · q' ≥ 0``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from repro.core.tolerances import EXACT_TOL

__all__ = [
    "ScoringFunction",
    "LinearScoring",
    "MonotoneScoring",
    "polynomial_scoring",
    "mixed_scoring",
]


class ScoringFunction:
    """Base class: a monotone per-dimension scoring function.

    Subclasses define :meth:`transform`; all scores are
    ``transform(points) @ weights``. Monotonicity (each ``g_i``
    non-decreasing) is what makes MBB top corners valid maxscore points and
    keeps skyline pruning sound.
    """

    name = "abstract"

    def __init__(self, d: int) -> None:
        if d <= 0:
            raise ValueError("dimensionality must be positive")
        self.d = int(d)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map points from data space to g-space (same shape)."""
        raise NotImplementedError

    def transform_one(self, point: np.ndarray) -> np.ndarray:
        return self.transform(np.asarray(point, dtype=np.float64)[None, :])[0]

    def score(self, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Scores of ``points`` (``(m, d)`` or ``(d,)``) under ``weights``."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        out = self.transform(pts) @ np.asarray(weights, dtype=np.float64)
        return float(out[0]) if single else out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(d={self.d})"


class LinearScoring(ScoringFunction):
    """The paper's default: ``S(p, q) = q · p``."""

    name = "linear"

    def transform(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64)


class MonotoneScoring(ScoringFunction):
    """``S(p, q) = Σ w_i g_i(p_i)`` with monotone non-decreasing ``g_i``.

    Parameters
    ----------
    components:
        One callable per dimension mapping an array of attribute values to
        transformed values. Each must be non-decreasing on ``[0, 1]``.
    name:
        Label used in benchmark reports (e.g. ``"polynomial"``).
    validate:
        When true (default), monotonicity is spot-checked on a grid so a
        decreasing component fails fast instead of corrupting results.
    """

    def __init__(
        self,
        components: Sequence[Callable[[np.ndarray], np.ndarray]],
        name: str = "monotone",
        validate: bool = True,
    ) -> None:
        super().__init__(len(components))
        self.components = list(components)
        self.name = name
        if validate:
            grid = np.linspace(0.0, 1.0, 33)
            for i, g in enumerate(self.components):
                values = np.asarray(g(grid), dtype=np.float64)
                if values.shape != grid.shape:
                    raise ValueError(f"component {i} must map arrays elementwise")
                if not np.isfinite(values).all():
                    raise ValueError(f"component {i} is not finite on [0, 1]")
                if (np.diff(values) < -EXACT_TOL).any():
                    raise ValueError(f"component {i} is not monotone on [0, 1]")

    def transform(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        out = np.empty_like(pts)
        for i, g in enumerate(self.components):
            out[:, i] = g(pts[:, i])
        return out


def polynomial_scoring(exponents: Sequence[float]) -> MonotoneScoring:
    """The paper's "Polynomial" family, e.g. exponents ``(4, 3, 2, 1)`` give
    ``S(p, q) = w₁x₁⁴ + w₂x₂³ + w₃x₃² + w₄x₄`` (Figure 19)."""
    exps = [float(e) for e in exponents]
    if any(e <= 0 for e in exps):
        raise ValueError("exponents must be positive for monotonicity on [0, 1]")
    return MonotoneScoring(
        [(lambda x, e=e: np.power(x, e)) for e in exps],
        name="polynomial",
    )


def mixed_scoring() -> MonotoneScoring:
    """The paper's 4-d "Mixed" function ``w₁x² + w₂eˣ + w₃log x + w₄√x``.

    ``log x`` is −∞ at the domain boundary ``x = 0``, and the data are
    normalised to ``[0, 1]``, so a record with a zero attribute would have
    no finite score. We substitute ``log1p``: still increasing and
    concave, finite on the whole domain. The GIR machinery needs only each
    ``g_i`` to be monotone (the g-space reduction above), so the
    substitution changes the scores Figure 19 ranks by, not the method.
    """
    return MonotoneScoring(
        [
            lambda x: np.power(x, 2.0),
            np.exp,
            np.log1p,
            np.sqrt,
        ],
        name="mixed",
    )
