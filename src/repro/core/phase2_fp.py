"""FP — Facet Pruning (Section 6), the paper's main contribution.

FP pins the sweeping hyperplane at the k-th result record ``p_k`` and asks
which non-result records bound its permissible rotations. Those are exactly
the records incident to the facets of ``CH' = hull({p_k} ∪ D\\R)`` that are
themselves incident to ``p_k`` — the *critical records*. FP never builds
``CH'``; it maintains only the incident-facet star (:class:`FacetFan`) in
two steps:

1. **memory step** — the fan over the records ``T`` that BRS already
   fetched (minus those dominated by ``p_k``). ``T`` is known in full and
   scores below ``p_k`` under the query, so its star is not grown record
   by record: it is the convex hull of ``T``'s central projection onto a
   hyperplane below ``p_k`` — one Qhull call in ``d − 1`` dimensions, in
   two dimensions the two extreme-angle records of the paper's angular
   sweep (Section 6.2); see :mod:`repro.geometry.incident_facets`. The
   axis projections of ``p_k`` join ``T`` as *virtual* seed points
   (footnote 6); their half-spaces are redundant inside the query space,
   so they never change the GIR.
2. **disk step** — drain the retained BRS search heap; an index node is
   pruned iff its MBB lies below every fan facet (the MBB then sits in the
   hull's tangent cone at ``p_k``, whose points induce only implied
   half-spaces), otherwise it is fetched and its children pushed / records
   tested against the fan. Refining a fan only enlarges that cone, so
   pruning is monotone: an entry prunable when pushed is prunable when
   popped, and testing entries early, a batch at a time, fetches exactly
   the nodes that testing them one by one at pop time would.

Everything runs in g-space, so FP also covers the per-dimension monotone
functions of Section 7.2 (an extension beyond the paper, which only claims
SP for them): the score is ``g(p) · q``, a dot product of the transformed
record, so the hull argument holds verbatim for the transformed records,
and since every ``g_i`` is non-decreasing the transformed corners of an
MBB bound the transformed records below it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.core import kernels
from repro.core.phase1 import phase1_halfspaces
from repro.core.phase2 import Phase2Output
from repro.geometry.halfspace import separation_halfspace
from repro.geometry.incident_facets import FacetFan
from repro.geometry.polytope import Polytope
from repro.index.rtree import RStarTree
from repro.query.brs import BRSRun, HeapEntry, child_heap_entries
from repro.scoring import ScoringFunction
from repro.core.tolerances import EXACT_TOL

__all__ = ["FPOptions", "phase2_fp", "build_fan", "refine_fans", "virtual_seeds"]


@dataclass(frozen=True)
class FPOptions:
    """Tuning knobs of FP (all correctness-preserving; used for ablations).

    Attributes
    ----------
    use_virtual_seeds:
        Seed the fan with the apex's axis projections (footnote 6). Off,
        the initial simplex is built from records only; results are
        identical, pruning near the query-space walls is weaker.
    prune_dominated_nodes:
        Skip heap nodes whose whole MBB is dominated by the apex (the
        node-level form of the paper's record dominance filter).
    tighten_with_phase1:
        Footnote 7: intersect the fetch criterion with the Phase-1 interim
        region — a node is fetched only if, for some vertex ``v`` of the
        interim GIR, a point of the node could outscore the apex under
        ``v``. Off by default (the paper describes it as an optional
        optimisation).
    """

    use_virtual_seeds: bool = True
    prune_dominated_nodes: bool = True
    tighten_with_phase1: bool = False


DEFAULT_FP_OPTIONS = FPOptions()


def phase1_vertex_directions(
    run: BRSRun, points_g: np.ndarray, d: int
) -> np.ndarray | None:
    """Vertices of the Phase-1 interim region, used by the footnote-7
    tightening. ``None`` disables tightening (degenerate interim region).

    A record (or MBB) can shrink the *final* GIR only if it outscores the
    apex somewhere in the interim region; since scores are linear in the
    weights, it suffices to check the region's vertices.
    """
    order = phase1_halfspaces(run.result, points_g)
    poly = Polytope.from_unit_box(d).with_constraints(
        np.asarray([h.normal for h in order]) if order else np.empty((0, d))
    )
    verts = poly.vertices()
    if verts.shape[0] == 0:
        return None
    return verts


def virtual_seeds(
    apex_g: np.ndarray, lower_corner_g: np.ndarray
) -> tuple[list[tuple[str, int]], np.ndarray]:
    """The axis projections of the apex (footnote 6), in g-space: their
    keys ``("virtual", i)`` and their ``(d, d)`` point array.

    Seed ``i`` keeps the apex's i-th g-coordinate and drops every other
    coordinate to the g-space lower corner, so the apex dominates it and
    its separation half-space is redundant inside the query space.
    """
    d = apex_g.shape[0]
    seeds = np.tile(lower_corner_g, (d, 1))
    np.fill_diagonal(seeds, apex_g)
    return [("virtual", i) for i in range(d)], seeds


def build_fan(
    apex_id: int,
    points: np.ndarray,
    points_g: np.ndarray,
    encountered: np.ndarray,
    weights: np.ndarray,
    lower_corner_g: np.ndarray,
    use_virtual_seeds: bool = True,
) -> FacetFan:
    """Step 1 of FP: the fan over the in-memory records ``T``.

    Records dominated by the apex are discarded up front (they can never
    overtake it), matching Sections 6.2/6.3.1. No record of ``T`` outscores
    the apex under ``weights`` (``T`` holds non-result records only), which
    is what the fan's hull seed needs of its supporting direction.
    """
    apex_g = points_g[apex_id]
    ids = encountered[encountered != apex_id]
    # Dominance filter: drop records the apex dominates.
    ids = ids[~kernels.dominated_mask(points[apex_id], points[ids])]
    keys, pts = ids.tolist(), points_g[ids]
    if use_virtual_seeds:
        seed_keys, seeds = virtual_seeds(apex_g, lower_corner_g)
        keys, pts = keys + seed_keys, np.concatenate([pts, seeds])
    fan = FacetFan(apex_g)
    fan.bootstrap(keys, pts, weights)
    return fan


def refine_fans(
    tree: RStarTree,
    points: np.ndarray,
    points_g: np.ndarray,
    run: BRSRun,
    fans: dict[int, FacetFan],
    scorer: ScoringFunction,
    metered: bool = True,
    options: FPOptions = DEFAULT_FP_OPTIONS,
) -> int:
    """Step 2 of FP: drain the retained BRS heap, refining every fan.

    A node is pruned only when its (g-space) MBB is below every facet of
    *every* fan — for the single-fan GIR this is the paper's Section 6.2/
    6.3.2 rule, and for GIR* the multi-fan rule of Section 7.1. The heap
    keeps one invariant: every entry in it has passed that test against
    the *current* fans. Entries are tested in one batch as they enter
    (the whole retained heap up front, a fetched node's children
    together), and when a leaf's records change a fan the whole heap is
    re-tested in one call; a pop then fetches without a box test. This
    fetches exactly the nodes that testing each entry alone at pop time
    would: the beneath-every-facet cone only grows as a fan is refined,
    so an entry the re-test drops would be pruned at its pop too, and the
    survivors pop in the same order. The same argument applies to the
    records of a fetched leaf: each fan first keeps only the rows above
    one of its facets (:meth:`FacetFan.points_seen`, one product), and a
    leaf with none costs that fan no result-id compare, dominance filter
    or :meth:`FacetFan.add_points` call — so every call it does get
    changes the fan. Returns the number of nodes fetched from disk.
    """
    read = tree.fetch if metered else tree._node
    result_ids = np.asarray(run.result.ids, dtype=np.int64)
    fan_list = list(fans.values())
    apexes = points[list(fans)]

    def seen(los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Which of the boxes stacked in ``los`` / ``his`` rise above
        some facet of some fan."""
        los_g, his_g = scorer.transform(los), scorer.transform(his)
        fetch = fan_list[0].boxes_seen(los_g, his_g)
        for fan in fan_list[1:]:
            fetch = fetch | fan.boxes_seen(los_g, his_g)
        return fetch

    def fetchable(los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Which of the boxes stacked in ``los`` / ``his`` must be fetched."""
        fetch = seen(los, his)
        if options.prune_dominated_nodes:
            # A node whose entire box is dominated by every apex can only
            # yield half-spaces implied inside the query space (node-level
            # form of the Section 6.3.1 record dominance filter). The
            # test does not depend on the fans, so it runs once, on entry.
            dominated = kernels.dominated_mask(apexes[0], his)
            for apex in apexes[1:]:
                dominated &= kernels.dominated_mask(apex, his)
            fetch = fetch & ~dominated
        return fetch

    def kept(entries: list[HeapEntry], test) -> list[HeapEntry]:
        """The entries that pass ``test``, as a heap."""
        if not entries:
            return []
        keep = test(
            np.array([e.lo for e in entries]), np.array([e.hi for e in entries])
        )
        heap = list(itertools.compress(entries, keep.tolist()))
        heapq.heapify(heap)
        return heap

    heap = kept(run.heap, fetchable)
    directions: np.ndarray | None = None
    apex_dir_scores: dict[int, np.ndarray] = {}
    if options.tighten_with_phase1:
        directions = phase1_vertex_directions(run, points_g, tree.d)
        if directions is not None:
            apex_dir_scores = {
                apex_id: directions @ points_g[apex_id] for apex_id in fans
            }
    fetched = 0
    while heap:
        entry = heapq.heappop(heap)
        if directions is not None:
            # Footnote 7: fetch only if some point of the node could
            # outscore an apex somewhere in the Phase-1 interim region
            # (checked at the region's vertices; scores are linear there).
            node_best = directions @ scorer.transform_one(entry.hi)
            if all(
                (node_best <= apex_dir_scores[apex_id] + EXACT_TOL).all()
                for apex_id in fans
            ):
                continue
        node = read(entry.node_id)
        fetched += 1
        if node.is_leaf:
            leaf_g = points_g[node.ids]
            changed = False
            for apex, fan in zip(apexes, fan_list):
                # Only a record above some facet can change the fan;
                # add_points would drop the rest the same way, in order.
                above = fan.points_seen(leaf_g)
                if not above.any():
                    continue
                ids = node.ids[above]
                # A broadcast compare: against k result ids it beats np.isin.
                ids = ids[~(ids[:, None] == result_ids[None, :]).any(axis=1)]
                # Dominated records only yield implied half-spaces.
                ids = ids[~kernels.dominated_mask(apex, points[ids])]
                if ids.shape[0]:
                    changed |= fan.add_points(ids.tolist(), points_g[ids])
            if changed:
                heap = kept(heap, seen)
        else:
            # Test the children on the node's rows first, so a pruned
            # child never costs a heap entry.
            keep = fetchable(node.lo, node.hi)
            for child in child_heap_entries(node, run.result.weights, scorer, keep):
                heapq.heappush(heap, child)
    return fetched


def phase2_fp(
    tree: RStarTree,
    points: np.ndarray,
    points_g: np.ndarray,
    run: BRSRun,
    scorer: ScoringFunction,
    metered: bool = True,
    options: FPOptions = DEFAULT_FP_OPTIONS,
) -> Phase2Output:
    """Full FP Phase 2: memory step, disk step, half-space extraction."""
    pk = run.result.kth_id
    lower_corner_g = scorer.transform_one(np.zeros(tree.d))
    fan = build_fan(
        pk,
        points,
        points_g,
        run.encountered,
        run.result.weights,
        lower_corner_g,
        use_virtual_seeds=options.use_virtual_seeds,
    )
    fetched = refine_fans(
        tree, points, points_g, run, {pk: fan}, scorer, metered=metered,
        options=options,
    )
    pk_g = points_g[pk]
    criticals = sorted(
        key for key in fan.critical_keys() if not isinstance(key, tuple)
    )
    halfspaces = [
        separation_halfspace(pk_g, points_g[rid], pk, rid) for rid in criticals
    ]
    return Phase2Output(
        halfspaces=halfspaces,
        candidate_ids=list(criticals),
        extras={
            "fan_facets": float(fan.facet_count()),
            "fan_insertions": float(fan.insertions),
            "critical_records": float(len(criticals)),
            "nodes_fetched_phase2": float(fetched),
            "fan_degenerate": float(fan.degenerate),
        },
    )
