"""BRS — Branch-and-bound Ranked Search (Tao et al., Inf. Syst. 2007).

The I/O-optimal top-k algorithm the paper employs (Section 3.3). Entries of
visited R-tree nodes are organised in a max-heap keyed by *maxscore* — the
highest score any point under the entry can reach, which for a monotone
scoring function is the score of the entry MBB's top corner. The search
terminates when the interim k-th score is no smaller than the maxscore of
the entry at the top of the heap.

To prepare for GIR computation, :func:`brs_topk` retains

* the **search heap** exactly as BRS leaves it (unexpanded entries), and
* the set **T** of non-result records already fetched from leaves,

which Phase 2 (SP/CP via BBS continuation, FP via facet refinement) resumes
from, as Section 3.3 prescribes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.index.node import Node
from repro.index.rtree import RStarTree
from repro.query.topk import TopKResult
from repro.scoring import LinearScoring, ScoringFunction

__all__ = ["HeapEntry", "BRSRun", "brs_topk"]


class HeapEntry(NamedTuple):
    """Max-heap entry (stored negated in Python's min-heap).

    Entries order as tuples on ``(-maxscore, -corner_sum, seq)``: the
    coordinate-sum component makes the order strictly compatible with
    dominance even when some query weights are zero, which the BBS
    continuation relies on, and ``seq`` is unique, so a comparison never
    reaches the fields after it. ``lo`` / ``hi`` are the entry's row
    views in its parent node (never written in place, see
    :mod:`repro.index.node`).
    """

    neg_maxscore: float
    neg_sum: float
    seq: int
    node_id: int
    level: int
    lo: np.ndarray
    hi: np.ndarray

    @property
    def maxscore(self) -> float:
        return -self.neg_maxscore


_seq = itertools.count()


def make_heap_entry(
    lo: np.ndarray,
    hi: np.ndarray,
    node_id: int,
    level: int,
    weights: np.ndarray,
    scorer: ScoringFunction,
) -> HeapEntry:
    """Build a heap entry keyed by the box's maxscore under ``scorer``: the
    score of its top corner ``hi``."""
    maxscore = float(scorer.score(hi, weights))
    return HeapEntry(
        -maxscore, -float(hi.sum()), next(_seq), node_id, level, lo, hi
    )


def child_heap_entries(
    node: Node,
    weights: np.ndarray,
    scorer: ScoringFunction,
    keep: np.ndarray | None = None,
) -> list[HeapEntry]:
    """Heap entries for the children of an internal node — only those the
    boolean mask ``keep`` selects, when given — their maxscores taken in
    one product over the node's ``hi`` rows (all of them, so a child's
    score does not depend on which others are kept)."""
    scores = scorer.score(node.hi, weights).tolist()
    sums = node.hi.sum(axis=1).tolist()
    ids = node.ids.tolist()
    rows = range(len(ids)) if keep is None else np.flatnonzero(keep).tolist()
    level = node.level - 1
    return [
        HeapEntry(-scores[i], -sums[i], next(_seq), ids[i], level, node.lo[i], node.hi[i])
        for i in rows
    ]


@dataclass
class BRSRun:
    """Everything BRS leaves behind, for the GIR phases to resume from."""

    result: TopKResult
    heap: list[HeapEntry]
    #: The paper's set T: rids of the non-result records fetched from
    #: leaves, in fetch order.
    encountered: np.ndarray
    leaf_accesses: int
    node_accesses: int


def brs_topk(
    tree: RStarTree,
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    scorer: ScoringFunction | None = None,
    metered: bool = True,
) -> BRSRun:
    """Run BRS and return the top-k result plus retained search state.

    Parameters
    ----------
    tree:
        R*-tree over the dataset.
    points:
        The dataset's ``(n, d)`` point array (used to score leaf records; a
        real system would read them from the leaf pages it just fetched).
    weights:
        Query vector ``q`` with non-negative components.
    k:
        Result size; must not exceed the dataset cardinality.
    scorer:
        Scoring function; linear by default.
    metered:
        Whether node accesses are charged to the tree's I/O meter.
    """
    weights = _validate_query(tree, weights, k)
    scorer = scorer or LinearScoring(tree.d)
    read = tree.fetch if metered else tree._node

    # Scores of fetched records; maintained as (score, tie-break sum, rid).
    interim: list[tuple[float, float, int]] = []  # min-heap of current top-k
    encountered: list[np.ndarray] = []  # fetched leaves' ids, in fetch order
    heap: list[HeapEntry] = []
    node_accesses = 0
    leaf_accesses = 0

    root = read(tree.root_id)
    node_accesses += 1
    leaf_accesses += int(root.is_leaf)
    _expand(root, heap, interim, encountered, points, weights, scorer, k)

    drained_nodes, drained_leaves = _drain_heap(
        read, heap, interim, encountered, points, weights, scorer, k
    )
    return _package_run(
        heap,
        interim,
        encountered,
        points,
        weights,
        scorer,
        node_accesses=node_accesses + drained_nodes,
        leaf_accesses=leaf_accesses + drained_leaves,
    )


def _validate_query(tree: RStarTree, weights: np.ndarray, k: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (tree.d,):
        raise ValueError(f"expected weights of shape ({tree.d},)")
    if (weights < 0).any():
        raise ValueError("query weights must be non-negative")
    if k <= 0:
        raise ValueError("k must be positive")
    if k > tree.size:
        raise ValueError(f"k={k} exceeds dataset cardinality {tree.size}")
    return weights


def _drain_heap(
    read,
    heap: list[HeapEntry],
    interim: list[tuple[float, float, int]],
    encountered: list[np.ndarray],
    points: np.ndarray,
    weights: np.ndarray,
    scorer: ScoringFunction,
    k: int,
) -> tuple[int, int]:
    """The BRS main loop; returns (node, leaf) access counts."""
    node_accesses = 0
    leaf_accesses = 0
    while heap:
        if len(interim) == k and interim[0][0] >= heap[0].maxscore:
            break  # k-th interim score dominates everything unexplored
        node = read(heapq.heappop(heap).node_id)
        node_accesses += 1
        leaf_accesses += int(node.is_leaf)
        _expand(node, heap, interim, encountered, points, weights, scorer, k)
    return node_accesses, leaf_accesses


def _expand(
    node: Node,
    heap: list[HeapEntry],
    interim: list[tuple[float, float, int]],
    encountered: list[np.ndarray],
    points: np.ndarray,
    weights: np.ndarray,
    scorer: ScoringFunction,
    k: int,
) -> None:
    """Score a fetched node with one product: a leaf's records go to the
    interim top-k (and its ids to T), an internal node's children onto
    the search heap."""
    if node.is_leaf:
        encountered.append(node.ids)
        _consider_records(interim, node.ids.tolist(), points, weights, scorer, k)
    else:
        for child in child_heap_entries(node, weights, scorer):
            heapq.heappush(heap, child)


def _package_run(
    heap: list[HeapEntry],
    interim: list[tuple[float, float, int]],
    encountered: list[np.ndarray],
    points: np.ndarray,
    weights: np.ndarray,
    scorer: ScoringFunction,
    node_accesses: int,
    leaf_accesses: int,
) -> BRSRun:
    """Rank the interim records and bundle the retained search state:
    T is every fetched leaf's ids, in fetch order, minus the result."""
    ids = tuple(rid for _, _, rid in sorted(interim, reverse=True))
    # Scored as the engine's cache-hit path scores them — one product over
    # the ranked rows — so a miss and the hit that follows it agree to the
    # last bit (a product over one row may differ from it by an ulp).
    scores = tuple(scorer.score(points[list(ids)], weights).tolist())
    fetched = (
        np.concatenate(encountered) if encountered else np.empty(0, np.int64)
    )
    # A broadcast compare: against k result ids it beats np.isin here.
    in_result = (fetched[:, None] == np.array(ids, np.int64)[None, :]).any(axis=1)
    result = TopKResult(ids=ids, scores=scores, weights=weights)
    return BRSRun(
        result=result,
        heap=heap,
        encountered=fetched[~in_result],
        leaf_accesses=leaf_accesses,
        node_accesses=node_accesses,
    )


def _consider_records(
    interim: list[tuple[float, float, int]],
    rids: list[int],
    points: np.ndarray,
    weights: np.ndarray,
    scorer: ScoringFunction,
    k: int,
) -> None:
    """Update the interim top-k with the records fetched from a leaf: one
    product scores them all, and only those that can still enter a full
    interim top-k (its threshold only rises) get heap work."""
    pts = points[rids]
    scores = scorer.score(pts, weights)
    sums = pts.sum(axis=1)
    if len(interim) == k:
        contenders = np.flatnonzero(scores >= interim[0][0]).tolist()
    else:
        contenders = range(len(rids))
    for i in contenders:
        item = (float(scores[i]), float(sums[i]), rids[i])
        if len(interim) < k:
            heapq.heappush(interim, item)
        elif item > interim[0]:
            heapq.heapreplace(interim, item)
