"""The staged GIR pipeline: ``retrieve → phase1 → phase2 → assemble``.

:func:`repro.core.gir.compute_gir` used to be a monolith; this module
breaks it into explicitly staged steps that share an
:class:`ExecutionContext` (dataset, tree, scorer, g-space points and the
accumulating :class:`GIRStats` meters). Each stage is reusable and
individually timeable, which is what lets the serving layer
(:mod:`repro.engine`) drive the compute path — e.g. run Phase 2 from a
BRS run the application already has — and what lets the bench harness
attribute cost per stage.

Stage contract (all stages mutate only ``ctx.stats``):

* :func:`stage_retrieve`   — BRS top-k; charges ``cpu_ms_topk`` /
  ``io_pages_topk``. Accepts an existing :class:`~repro.query.brs.BRSRun`
  to adopt instead of searching again.
* :func:`stage_phase1`     — ordering half-spaces (Section 4); charges
  ``cpu_ms_phase1``.
* :func:`stage_phase2`     — separation half-spaces via SP/CP/FP
  (Sections 5-6); charges ``cpu_ms_phase2`` / ``io_pages_phase2``.
* :func:`stage_assemble`   — intersects everything with the unit box into
  the result polytope.

:func:`run_pipeline` chains the four; ``compute_gir`` is now a thin
wrapper over it with an unchanged signature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.phase1 import phase1_halfspaces
from repro.core.phase2 import Phase2Output
from repro.core.phase2_cp import phase2_cp
from repro.core.phase2_fp import FPOptions, phase2_fp
from repro.core.phase2_sp import phase2_sp
from repro.data.dataset import Dataset
from repro.geometry.halfspace import Halfspace
from repro.geometry.polytope import Polytope
from repro.index.rtree import RStarTree
from repro.query.brs import BRSRun, brs_topk
from repro.query.topk import TopKResult
from repro.scoring import LinearScoring, ScoringFunction
from repro.core.tolerances import MEMBERSHIP_TOL

__all__ = [
    "PHASE2_METHODS",
    "GIRStats",
    "GIRResult",
    "ExecutionContext",
    "stage_retrieve",
    "stage_phase1",
    "stage_phase2",
    "stage_assemble",
    "run_pipeline",
]

PHASE2_METHODS = {"sp": phase2_sp, "cp": phase2_cp, "fp": phase2_fp}


@dataclass
class GIRStats:
    """Cost breakdown of one GIR computation.

    ``cpu_ms_topk`` is charged only when :func:`stage_retrieve` runs BRS
    itself; an adopted run charges 0. The engine adopts the run it
    retrieved, so the GIRs it computes report ``cpu_ms_topk == 0.0``:
    their BRS time is the ``engine.brs`` span (:mod:`repro.obs`), and
    ``io_pages_topk`` carries their retrieval pages.
    """

    cpu_ms_topk: float = 0.0
    cpu_ms_phase1: float = 0.0
    cpu_ms_phase2: float = 0.0
    io_pages_topk: int = 0
    io_pages_phase2: int = 0
    io_ms_per_page: float = 0.0
    phase2_candidates: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def cpu_ms_total(self) -> float:
        """CPU time of GIR computation proper (Phases 1+2, as the paper
        reports; top-k retrieval is a prerequisite common to all methods)."""
        return self.cpu_ms_phase1 + self.cpu_ms_phase2

    @property
    def io_ms_phase2(self) -> float:
        """Simulated Phase-2 I/O time — the paper's I/O metric."""
        return self.io_pages_phase2 * self.io_ms_per_page


@dataclass
class GIRResult:
    """The global immutable region of a top-k query (Definition 1)."""

    weights: np.ndarray
    topk: TopKResult
    halfspaces: list[Halfspace]
    polytope: Polytope
    method: str
    stats: GIRStats
    #: Row index in ``polytope`` of the first half-space row (after the box).
    _hs_row_offset: int = 0

    # -- semantics ------------------------------------------------------------

    def contains(self, q: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        """Does query vector ``q`` preserve the (ordered) top-k result?"""
        return self.polytope.contains(q, tol=tol)

    def volume(self) -> float:
        return self.polytope.volume()

    def volume_ratio(self) -> float:
        """``vol(GIR) / vol(query space)`` — the robustness probability of a
        uniformly random query vector preserving the result (Section 1; the
        LIK measure of [30]). The query space is the unit box, so the ratio
        equals the volume."""
        return self.volume()

    def kth_score_margin(self, challenger_g: np.ndarray, kth_g: np.ndarray) -> float:
        """Region-wide k-th-score bound: the largest score gap
        ``S(challenger, q) − S(p_k, q)`` over all ``q`` in the region.

        Both points are given in g-space (for linear scoring, data space).
        Inside the GIR the ordered result — hence the identity of the k-th
        record — is fixed, so the gap is the linear objective
        ``(g(challenger) − g(p_k)) · q`` and its maximum over the polytope
        is one LP (:meth:`~repro.geometry.polytope.Polytope.maximize`).
        A non-positive margin certifies the challenger can *nowhere* in the
        region enter the cached top-k.
        """
        return self.polytope.maximize(
            np.asarray(challenger_g, dtype=np.float64)
            - np.asarray(kth_g, dtype=np.float64)
        )

    def admits_above_kth(
        self,
        challenger_g: np.ndarray,
        kth_g: np.ndarray,
        tol: float = MEMBERSHIP_TOL,
        tie_wins: bool = False,
    ) -> bool:
        """Can a record at ``challenger_g`` rank above the k-th result
        record somewhere in the region? (The insert-invalidation test.)

        ``tie_wins`` declares how exact score ties resolve: the serving
        stack ranks by ``(score, coord-sum, rid)`` descending, so a
        challenger that *ties* the k-th score still enters the top-k when
        its tie-break key is higher (e.g. an inserted duplicate of the
        k-th record — same point, fresh higher rid). With identical
        g-images the scores tie at *every* query vector, so the verdict is
        ``tie_wins`` outright. For distinct g-images, score ties at
        strictly positive query vectors require ``delta`` to have both
        signs — and then the strict-margin LP already flags the entry —
        so the margin test is decisive.

        Fast paths need no LP: with non-negative query weights a
        challenger dominated component-wise by ``p_k`` can never
        out-score it.
        """
        delta = np.asarray(challenger_g, dtype=np.float64) - np.asarray(
            kth_g, dtype=np.float64
        )
        if not delta.any():  # identical g-image: a tie everywhere
            return tie_wins
        if (delta <= 0).all():
            return False
        return self.kth_score_margin(challenger_g, kth_g) > tol

    def boundary_perturbations(self, tol: float = MEMBERSHIP_TOL):
        """Result changes at each bounding facet — see
        :func:`repro.core.perturbation.boundary_perturbations`."""
        from repro.core.perturbation import boundary_perturbations

        return boundary_perturbations(self, tol=tol)

    def lir_intervals(self) -> list[tuple[float, float]]:
        """Per-weight immutable intervals through the original query — the
        interactive projection of Section 7.3 (equals the LIRs of [24])."""
        return [
            self.polytope.axis_interval(axis, self.weights)
            for axis in range(self.polytope.d)
        ]

    @property
    def d(self) -> int:
        return int(self.weights.shape[0])

    def halfspace_rows(self) -> list[tuple[int, Halfspace]]:
        """(polytope row index, half-space) pairs for the GIR conditions."""
        return [
            (self._hs_row_offset + i, hs) for i, hs in enumerate(self.halfspaces)
        ]

    def summary(self) -> str:
        """Human-readable report of the region and its cost breakdown."""
        s = self.stats
        lines = [
            f"GIR of a top-{self.topk.k} query ({self.method.upper()}, d={self.d})",
            f"  result ids     : {list(self.topk.ids)}",
            f"  half-spaces    : {len(self.halfspaces)} "
            f"({sum(h.kind == 'order' for h in self.halfspaces)} order, "
            f"{sum(h.kind == 'separation' for h in self.halfspaces)} separation)",
            f"  volume ratio   : {self.volume_ratio():.3e}",
            f"  cpu            : topk {s.cpu_ms_topk:.1f} ms, "
            f"phase1+2 {s.cpu_ms_total:.1f} ms",
            f"  phase-2 I/O    : {s.io_pages_phase2} pages "
            f"(~{s.io_ms_phase2:.0f} ms at {s.io_ms_per_page:.0f} ms/page)",
            f"  candidates     : {s.phase2_candidates}",
        ]
        return "\n".join(lines)


@dataclass
class ExecutionContext:
    """Everything the pipeline stages share for one GIR computation.

    Built once per computation via :meth:`create` (which normalises the
    dataset, query vector and scorer and precomputes the g-space image of
    the points) and threaded through every stage. Stages communicate cost
    exclusively through :attr:`stats`, so a caller can time and charge each
    stage individually.
    """

    tree: RStarTree
    points: np.ndarray
    points_g: np.ndarray
    weights: np.ndarray
    k: int
    scorer: ScoringFunction
    method: str = "fp"
    metered: bool = True
    fp_options: FPOptions | None = None
    stats: GIRStats = field(default_factory=GIRStats)

    @classmethod
    def create(
        cls,
        tree: RStarTree,
        data: Dataset | np.ndarray,
        weights: np.ndarray,
        k: int,
        method: str = "fp",
        scorer: ScoringFunction | None = None,
        metered: bool = True,
        fp_options: FPOptions | None = None,
    ) -> "ExecutionContext":
        """Normalise raw arguments into a ready-to-run context."""
        if method not in PHASE2_METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {sorted(PHASE2_METHODS)}"
            )
        points = data.points if isinstance(data, Dataset) else np.asarray(data, float)
        weights = np.asarray(weights, dtype=np.float64)
        scorer = scorer or LinearScoring(tree.d)
        return cls(
            tree=tree,
            points=points,
            points_g=scorer.transform(points),
            weights=weights,
            k=k,
            scorer=scorer,
            method=method,
            metered=metered,
            fp_options=fp_options,
        )

    @property
    def d(self) -> int:
        return self.tree.d


# -- stages -------------------------------------------------------------------


def stage_retrieve(ctx: ExecutionContext, run: BRSRun | None = None) -> BRSRun:
    """Top-k retrieval via BRS, or adoption of an existing run.

    When ``run`` is given (a result the application already retrieved, or a
    run shared across methods by the bench harness) it is reused untouched
    and the stage charges zero cost, exactly as the old monolith did.
    """
    if run is None:
        io_before = ctx.tree.store.stats.page_reads
        t0 = time.perf_counter()
        run = brs_topk(
            ctx.tree, ctx.points, ctx.weights, ctx.k,
            scorer=ctx.scorer, metered=ctx.metered,
        )
        ctx.stats.cpu_ms_topk = (time.perf_counter() - t0) * 1e3
        ctx.stats.io_pages_topk = ctx.tree.store.stats.page_reads - io_before
    return run


def stage_phase1(ctx: ExecutionContext, run: BRSRun) -> list[Halfspace]:
    """Ordering half-spaces from the result's internal score order."""
    t0 = time.perf_counter()
    halfspaces = phase1_halfspaces(run.result, ctx.points_g)
    ctx.stats.cpu_ms_phase1 = (time.perf_counter() - t0) * 1e3
    return halfspaces


def stage_phase2(ctx: ExecutionContext, run: BRSRun) -> Phase2Output:
    """Separation half-spaces via the context's SP/CP/FP method."""
    method_kwargs = {}
    if ctx.method == "fp" and ctx.fp_options is not None:
        method_kwargs["options"] = ctx.fp_options
    io_before = ctx.tree.store.stats.page_reads
    t0 = time.perf_counter()
    phase2: Phase2Output = PHASE2_METHODS[ctx.method](
        ctx.tree, ctx.points, ctx.points_g, run, ctx.scorer,
        metered=ctx.metered, **method_kwargs,
    )
    ctx.stats.cpu_ms_phase2 = (time.perf_counter() - t0) * 1e3
    ctx.stats.io_pages_phase2 = ctx.tree.store.stats.page_reads - io_before
    ctx.stats.phase2_candidates = len(phase2.candidate_ids)
    ctx.stats.extras = dict(phase2.extras)
    return phase2


def assemble_polytope(d: int, halfspaces: list[Halfspace]) -> Polytope:
    """Intersect the unit query box with a set of half-spaces."""
    box = Polytope.from_unit_box(d)
    return box.with_constraints(
        np.asarray([hs.normal for hs in halfspaces])
        if halfspaces
        else np.empty((0, d))
    )


def stage_assemble(
    ctx: ExecutionContext, run: BRSRun, halfspaces: list[Halfspace]
) -> GIRResult:
    """Build the final :class:`GIRResult` from the collected half-spaces."""
    ctx.stats.io_ms_per_page = ctx.tree.store.stats.latency_ms_per_page
    return GIRResult(
        weights=ctx.weights,
        topk=run.result,
        halfspaces=halfspaces,
        polytope=assemble_polytope(ctx.d, halfspaces),
        method=ctx.method,
        stats=ctx.stats,
        _hs_row_offset=2 * ctx.d,
    )


def run_pipeline(ctx: ExecutionContext, run: BRSRun | None = None) -> GIRResult:
    """Drive the full ``retrieve → phase1 → phase2 → assemble`` chain."""
    run = stage_retrieve(ctx, run)
    hs_order = stage_phase1(ctx, run)
    phase2 = stage_phase2(ctx, run)
    return stage_assemble(ctx, run, hs_order + phase2.halfspaces)
