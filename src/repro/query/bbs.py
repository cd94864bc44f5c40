"""BBS — Branch-and-Bound Skyline (Papadias et al., TODS 2005), adapted.

SP and CP need the skyline ``SL`` of the non-result records ``D \\ R``
(Section 5.1). The paper adapts BBS in two ways, both reproduced here:

1. the search resumes from the state BRS left behind — ``SL`` is initialised
   with the in-memory skyline of the encountered records ``T`` and the
   retained search heap is then drained, so records already fetched are
   never read again;
2. entries are popped in decreasing *maxscore* order instead of distance to
   the top corner (correct for any monotone preference order), and a record
   is inserted into ``SL`` only if undominated, evicting members it
   dominates.

Node pruning is the classic BBS rule: an entry whose MBB top corner is
dominated by a current skyline member cannot contain skyline records.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.index.node import Node
from repro.index.rtree import RStarTree
from repro.query.brs import BRSRun, HeapEntry, make_heap_entry
from repro.scoring import LinearScoring, ScoringFunction

__all__ = ["skyline_of_points", "bbs_skyline"]


class _SkylineSet:
    """Growing skyline with vectorised, tiered dominance checks.

    Two performance devices keep BBS usable on the paper's wide
    anti-correlated skylines (tens of thousands of members):

    * storage grows by capacity doubling instead of re-allocating on every
      insert (the naive ``vstack`` makes insertion quadratic);
    * an *elite* cache of the members that most recently dominated
      something is checked first — most incoming records die there in
      O(elite) instead of O(|SL|).
    """

    _ELITE = 192

    def __init__(self, d: int) -> None:
        self.d = d
        self._buf = np.empty((256, d))
        self._size = 0
        self._ids: list[int] = []
        self._elite = np.empty((self._ELITE, d))
        self._elite_size = 0
        self._elite_next = 0

    def __len__(self) -> int:
        return self._size

    @property
    def ids(self) -> list[int]:
        return list(self._ids)

    def _remember_dominator(self, m: np.ndarray) -> None:
        """Add a member that just dominated something to the elite ring."""
        self._elite[self._elite_next] = m
        self._elite_next = (self._elite_next + 1) % self._ELITE
        self._elite_size = min(self._elite_size + 1, self._ELITE)

    def dominates_point(self, p: np.ndarray) -> bool:
        """True if some member dominates ``p``."""
        if self._elite_size:
            el = self._elite[: self._elite_size]
            hit = (el >= p).all(axis=1) & (el > p).any(axis=1)
            if hit.any():
                return True
        if not self._size:
            return False
        sl = self._buf[: self._size]
        mask = (sl >= p).all(axis=1) & (sl > p).any(axis=1)
        if mask.any():
            self._remember_dominator(sl[int(np.argmax(mask))].copy())
            return True
        return False

    def insert(self, rid: int, p: np.ndarray) -> bool:
        """Insert ``p`` if undominated; evict members it dominates."""
        if self.dominates_point(p):
            return False
        if self._size:
            sl = self._buf[: self._size]
            doomed = (sl <= p).all(axis=1) & (sl < p).any(axis=1)
            if doomed.any():
                keep = np.flatnonzero(~doomed)
                self._buf[: keep.size] = sl[keep]
                self._ids = [self._ids[i] for i in keep]
                self._size = keep.size
        if self._size == self._buf.shape[0]:
            grown = np.empty((2 * self._buf.shape[0], self.d))
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        self._buf[self._size] = p
        self._size += 1
        self._ids.append(rid)
        return True


def _sorted_skyline(points: np.ndarray, ids: np.ndarray | list[int]) -> _SkylineSet:
    """The skyline of ``ids`` (into ``points``), inserted sort-filter-scan
    style: in stable decreasing coordinate-sum order, a monotone order,
    so no later record dominates an earlier member and none is evicted."""
    rids = np.asarray(ids, dtype=np.intp)
    order = np.argsort(-points[rids].sum(axis=1), kind="stable")
    sky = _SkylineSet(points.shape[1])
    for rid in rids[order].tolist():
        sky.insert(rid, points[rid])
    return sky


def skyline_of_points(points: np.ndarray, ids: list[int]) -> list[int]:
    """In-memory skyline of the given records (ids into ``points``), in
    decreasing coordinate-sum order."""
    return _sorted_skyline(points, ids).ids


def bbs_skyline(
    tree: RStarTree,
    points: np.ndarray,
    run: BRSRun | None = None,
    weights: np.ndarray | None = None,
    scorer: ScoringFunction | None = None,
    exclude: set[int] | None = None,
    metered: bool = True,
) -> list[int]:
    """Skyline of ``D \\ exclude`` via BBS, optionally resuming a BRS run.

    Parameters
    ----------
    run:
        A :class:`BRSRun` to resume from. When given, the skyline starts
        from the encountered set ``T`` and drains a *copy* of the retained
        heap (the caller may reuse the original run for other phases), and
        ``weights`` defaults to the run's query vector. When omitted, a
        fresh search over the whole tree is performed.
    exclude:
        Record ids to ignore (the top-k result ``R``). Defaults to the
        run's result records.
    metered:
        Whether node accesses are charged to the tree's I/O meter.

    Returns the skyline record ids (insertion order).
    """
    scorer = scorer or LinearScoring(tree.d)
    read = tree.fetch if metered else tree._node

    if run is not None:
        if weights is None:
            weights = run.result.weights
        if exclude is None:
            exclude = set(run.result.ids)
        heap = list(run.heap)
        heapq.heapify(heap)
        sky = _sorted_skyline(points, run.encountered)
    else:
        if weights is None:
            raise ValueError("weights are required when no BRS run is given")
        weights = np.asarray(weights, dtype=np.float64)
        exclude = exclude or set()
        sky = _SkylineSet(tree.d)
        heap = []
        root = read(tree.root_id)
        _expand_skyline(root, heap, sky, points, weights, scorer, exclude)

    while heap:
        entry: HeapEntry = heapq.heappop(heap)
        # Prune: a node whose top corner is dominated cannot hold skyline
        # records (dominance of the top corner dominates the whole box).
        if sky.dominates_point(entry.hi):
            continue
        _expand_skyline(
            read(entry.node_id), heap, sky, points, weights, scorer, exclude
        )
    return sky.ids


def _expand_skyline(
    node: Node,
    heap: list[HeapEntry],
    sky: _SkylineSet,
    points: np.ndarray,
    weights: np.ndarray,
    scorer: ScoringFunction,
    exclude: set[int],
) -> None:
    """Offer a fetched leaf's records to the skyline, or push an internal
    node's children whose top corner no skyline member dominates."""
    ids = node.ids.tolist()
    if node.is_leaf:
        for rid in ids:
            if rid not in exclude:
                sky.insert(rid, points[rid])
        return
    for i, child_id in enumerate(ids):
        if sky.dominates_point(node.hi[i]):
            continue
        heapq.heappush(
            heap,
            make_heap_entry(
                node.lo[i], node.hi[i], child_id, node.level - 1, weights, scorer
            ),
        )
