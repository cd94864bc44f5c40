"""Cross-shard top-k merging and the merged stability region.

The fan-out serving path of :class:`~repro.cluster.ShardedGIREngine` asks
every shard for its local top-k; this module turns the per-shard answers
into (a) the global ordered top-k and (b) a region of query space in which
that exact ordered answer is provably stable. A merged region needs every
shard's region: a shard whose full cache answered from BRS alone (a first
sighting, see :meth:`repro.engine.GIREngine._admits`) sends none, and then
only the ordered answer is built.

Result merging (classical distributed top-k)
--------------------------------------------

The global top-k of a disjointly partitioned dataset is the top-k of the
pooled per-shard top-k candidates: any record *not* pooled ranks below its
own shard's ``k`` pooled candidates, so at least ``k`` pooled records beat
it and it cannot be in the global answer. Pool ranking uses the serving
stack's global tie-break ``(score, coord-sum, rid)`` descending with
*global* rids; because shards assign local rids in ascending global-rid
order, each shard's internal ranking agrees with the pool's, and the
merged sequence is byte-identical to a single engine's.

Merged stability region (the cross-shard GIR intersection)
----------------------------------------------------------

Let ``R_s`` be the region each shard's answer was served under (its local
GIR, or the cached entry's region on a shard-cache hit). Inside
``∩_s R_s`` every shard's local ordered list — and the domination of each
shard's unseen records by its last pooled candidate — is fixed. Two
families of *merge-order half-spaces* then pin down the global sequence:

* **order**: ``S(m_i, q) ≥ S(m_{i+1}, q)`` for consecutive merged results
  ``m_i`` — the pooled candidates keep their merged ranks (exact score
  ties resolve by the weight-independent ``(coord-sum, rid)`` key, which
  the merge already ordered by);
* **separation**: ``S(m_k, q) ≥ S(c_s, q)`` for each shard's *frontier*
  ``c_s`` — its highest-ranked pooled candidate left out of the global
  top-k. Selected candidates form a prefix of every shard's list (the
  pool order restricted to one shard is the shard's own order), so the
  frontier dominates all of that shard's non-selected candidates, and the
  shard's local region extends the bound to its unseen records. Shards
  whose pooled candidates were all selected need no half-space: their
  last candidate *is* some ``m_j`` with ``j ≤ k``, and the order chain
  already puts it at or above ``m_k``.

The intersection of ``∩_s R_s`` with both families is therefore a sound
under-approximation of the true global immutable region — every query
vector inside it reproduces the identical ordered global top-k. It is
generally *not* maximal (each ``R_s`` may itself be a deeper-``k`` cached
region), which is exactly the cache-serving trade-off the single engine
already makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gir import GIRResult, GIRStats
from repro.geometry.halfspace import Halfspace, order_halfspace, separation_halfspace
from repro.geometry.polytope import Polytope
from repro.query.topk import TopKResult

__all__ = ["ShardAnswer", "MergedAnswer", "merge_shard_answers"]


@dataclass(frozen=True)
class ShardAnswer:
    """One shard's contribution to a fan-out, in *global* rid terms."""

    #: Shard index within the cluster.
    shard: int
    #: Ranked global rids of the shard's local top-k (its whole live set
    #: when the shard holds fewer than ``k`` records).
    ids: tuple[int, ...]
    #: Matching scores under the request's weights, descending.
    scores: tuple[float, ...]
    #: Matching coordinate sums (the weight-independent tie-break key).
    tie_sums: tuple[float, ...]
    #: ``(len(ids), d)`` g-space images of the ranked records.
    points_g: np.ndarray
    #: The region the shard served this exact list under; ``None`` when
    #: the shard computed none (its full cache deferred the region).
    region: Polytope | None
    #: Provenance of the shard response (``cache``/``computed``).
    source: str
    #: Metered page reads the shard charged for this answer.
    pages_read: int


@dataclass(frozen=True)
class MergedAnswer:
    """The assembled global answer of one fan-out."""

    #: The global ordered top-k.
    topk: TopKResult
    #: The global ordered top-k with the merged stability region as its
    #: polytope and the merge-order half-spaces as its halfspace list
    #: (``_hs_row_offset`` marks where they start among the rows);
    #: ``None`` when some shard's answer carries no region.
    gir: GIRResult | None
    #: Cluster-level provenance: ``"cache"`` when every shard answered
    #: from its cache (no pipeline ran anywhere), else ``"computed"``.
    source: str
    #: Total metered page reads across the shards.
    pages_read: int
    #: g-space image of the global k-th record (for cluster-cache
    #: insert-invalidation prescreens).
    kth_g: np.ndarray
    #: Per-answer count of candidates selected into the global top-k
    #: (aligned with the input answers).
    selected_per_shard: tuple[int, ...]


def _stack_regions(regions: list[Polytope]) -> Polytope:
    """Intersection of the shard serving regions, without duplicate
    unit-box rows.

    Every GIR polytope starts with the same ``2d`` unit-box rows
    (:func:`~repro.core.pipeline.assemble_polytope`), so a verbatim
    stacking of S shard regions would carry S identical box copies —
    dead weight on the cluster cache's stacked-matvec lookup path, and
    fatal to the insert screen's ray enumeration, which accepts only the
    box rows followed by homogeneous ones (a second box copy has
    ``b = 1``). Regions after the first whose leading rows *are*
    the box (:meth:`Polytope.starts_with_unit_box`: verified, not
    assumed) contribute only their remaining rows; anything else is
    stacked verbatim via :meth:`Polytope.intersection`.
    """
    first = regions[0]
    box_rows = 2 * first.d
    trimmed = [first]
    for region in regions[1:]:
        if region.starts_with_unit_box():
            trimmed.append(Polytope(region.A[box_rows:], region.b[box_rows:]))
        else:
            trimmed.append(region)
    return Polytope.intersection(trimmed)


def _merged_source(answers: list[ShardAnswer]) -> str:
    return "cache" if all(a.source == "cache" for a in answers) else "computed"


def merge_shard_answers(
    answers: list[ShardAnswer], weights: np.ndarray, k: int
) -> MergedAnswer:
    """Assemble the global top-k and its merged stability region.

    ``answers`` must cover every non-empty shard and pool at least ``k``
    candidates in total (the cluster validates its live count first).
    When any answer's region is ``None`` only the ordered answer is
    built: the merged region needs every shard's.
    """
    if not answers:
        raise ValueError("cannot merge an empty answer set")
    weights = np.asarray(weights, dtype=np.float64)

    # Pool every candidate under the global ranking key. (score, sum, rid)
    # is unique (rids are), so the trailing (answer index, position) pair
    # never participates in comparisons — it is pure bookkeeping.
    pool: list[tuple[float, float, int, int, int]] = []
    for ai, a in enumerate(answers):
        for pos, rid in enumerate(a.ids):
            pool.append((a.scores[pos], a.tie_sums[pos], rid, ai, pos))
    if len(pool) < k:
        raise ValueError(
            f"pooled only {len(pool)} candidates for a top-{k} request"
        )
    pool.sort(reverse=True)
    selected = pool[:k]

    # Selected candidates form a prefix of each shard's list: the pool
    # order restricted to one shard is the shard's own ranking.
    selected_counts = [0] * len(answers)
    for _, _, _, ai, pos in selected:
        selected_counts[ai] += 1
    for _, _, _, ai, pos in selected:
        assert pos < selected_counts[ai], "selected candidates must be a prefix"

    topk = TopKResult(
        ids=tuple(entry[2] for entry in selected),
        scores=tuple(entry[0] for entry in selected),
        weights=weights,
    )
    regions = [a.region for a in answers if a.region is not None]
    kth = selected[-1]
    return MergedAnswer(
        topk=topk,
        gir=(
            _merged_gir(answers, regions, selected, selected_counts, topk)
            if len(regions) == len(answers)
            else None
        ),
        source=_merged_source(answers),
        pages_read=sum(a.pages_read for a in answers),
        kth_g=np.array(answers[kth[3]].points_g[kth[4]], dtype=np.float64, copy=True),
        selected_per_shard=tuple(selected_counts),
    )


def _merged_gir(
    answers: list[ShardAnswer],
    regions: list[Polytope],
    selected: list[tuple[float, float, int, int, int]],
    selected_counts: list[int],
    topk: TopKResult,
) -> GIRResult:
    """The merged answer's stability region: the shard ``regions``
    (one per answer) intersected with the merge-order half-spaces of the
    ``selected`` pool entries (see the module docstring)."""
    # Merge-order half-spaces (normals in g-space; `normal · q >= 0`).
    halfspaces: list[Halfspace] = []
    g_of = lambda entry: answers[entry[3]].points_g[entry[4]]  # noqa: E731
    for above, below in zip(selected, selected[1:]):
        halfspaces.append(
            order_halfspace(g_of(above), g_of(below), above[2], below[2])
        )
    m_k = selected[-1]
    for ai, a in enumerate(answers):
        cut = selected_counts[ai]
        if cut < len(a.ids):  # the shard's frontier candidate
            halfspaces.append(
                separation_halfspace(
                    g_of(m_k), a.points_g[cut], m_k[2], a.ids[cut]
                )
            )
    normals = np.asarray([hs.normal for hs in halfspaces], dtype=np.float64)
    if len(normals):
        # Zero normals (byte-identical g-images) constrain nothing: the
        # pair ties at every query vector and the weight-independent
        # tie-break fixes their order.
        keep = np.linalg.norm(normals, axis=1) > 0.0
        halfspaces = [hs for hs, flag in zip(halfspaces, keep) if flag]
        normals = normals[keep]

    base = _stack_regions(regions)
    polytope = (
        base.with_constraints(normals) if len(normals) else base
    )
    return GIRResult(
        weights=topk.weights,
        topk=topk,
        halfspaces=halfspaces,
        polytope=polytope,
        method="cluster",
        stats=GIRStats(),
        _hs_row_offset=base.m,
    )
