"""GIR computation: the public entry point over the staged pipeline.

Usage::

    from repro import compute_gir, bulk_load_str, independent

    data = independent(n=10_000, d=4, seed=1)
    tree = bulk_load_str(data)
    gir = compute_gir(tree, data, weights=[0.6, 0.5, 0.6, 0.7], k=10, method="fp")
    gir.volume_ratio()            # sensitivity measure (Figure 14)
    gir.contains([0.5, 0.5, 0.62, 0.71])
    gir.boundary_perturbations()  # what changes at each GIR facet

The heavy lifting lives in :mod:`repro.core.pipeline`, which stages the
computation as ``retrieve → phase1 → phase2 → assemble`` over a shared
:class:`~repro.core.pipeline.ExecutionContext`; :func:`compute_gir` is a
thin wrapper that builds the context and runs the chain. The result object
carries per-stage CPU times and simulated I/O so the benchmark harness can
print the paper's charts directly, and the serving layer
(:mod:`repro.engine`) can charge each request precisely.

Per-dimension monotone scoring functions ``S(p, q) = Σ q_i g_i(p_i)``
(Section 7.2) reduce to the linear case: ``S(p, q') ≥ S(p', q')`` iff
``(g(p) − g(p')) · q' ≥ 0``, a half-space through the origin whose normal
is a difference of *transformed* records. Every phase therefore works on
the g-space image of the data unchanged — SP's separation half-spaces,
and equally CP's hull and FP's facet fan, whose arguments use nothing but
that scores are dot products with ``q'`` — and since each ``g_i`` is
non-decreasing, dominance and MBB corners carry over to g-space as well.
"""

from __future__ import annotations

import numpy as np

from repro.core.phase2_fp import FPOptions
from repro.core.pipeline import (
    PHASE2_METHODS,
    ExecutionContext,
    GIRResult,
    GIRStats,
    run_pipeline,
)
from repro.data.dataset import Dataset
from repro.index.rtree import RStarTree
from repro.query.brs import BRSRun
from repro.scoring import ScoringFunction

__all__ = ["GIRStats", "GIRResult", "compute_gir", "PHASE2_METHODS"]


def compute_gir(
    tree: RStarTree,
    data: Dataset | np.ndarray,
    weights: np.ndarray,
    k: int,
    method: str = "fp",
    scorer: ScoringFunction | None = None,
    metered: bool = True,
    run: BRSRun | None = None,
    fp_options: "FPOptions | None" = None,
) -> GIRResult:
    """Compute the global immutable region of a top-k query.

    Parameters
    ----------
    tree:
        R*-tree over the data.
    data:
        The :class:`Dataset` (or raw ``(n, d)`` array) the tree indexes.
    weights:
        Query vector ``q`` with non-negative components.
    k:
        Result size.
    method:
        Phase-2 algorithm: ``"sp"``, ``"cp"`` or ``"fp"`` (default, the
        paper's best).
    scorer:
        Scoring function (linear by default). SP supports any
        per-dimension monotone function; CP/FP support them through the
        g-space reduction (see the module docstring).
    metered:
        Charge node accesses to the tree's I/O meter.
    run:
        Optionally, an existing BRS run to reuse (e.g. when computing the
        GIR for a result the application already retrieved).
    fp_options:
        :class:`~repro.core.phase2_fp.FPOptions` tuning knobs (FP only);
        all settings are correctness-preserving.
    """
    ctx = ExecutionContext.create(
        tree, data, weights, k,
        method=method, scorer=scorer, metered=metered, fp_options=fp_options,
    )
    return run_pipeline(ctx, run)
