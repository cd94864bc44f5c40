"""GIR-based top-k result caching (Section 1 application).

Previous top-k results are stored along with their GIRs. A new request
whose query vector falls inside a cached GIR can be answered without
touching the database:

* same or smaller ``k`` — inside the (order-sensitive) GIR the whole
  ordered list is immutable, so the first ``k'`` cached records are the
  exact answer;
* larger ``k`` — a **miss**. The cached records are still the correct
  highest-scoring prefix (the paper cites progressive reporting [31] for
  this case), but completing it would mean keeping every entry's search
  state alive; the caller runs a fresh search instead, whose GIR then
  serves the deeper ``k`` itself.

Hit accounting is non-overlapping: every lookup is exactly one of
``full_hits`` or ``misses``.

Vectorized membership
---------------------

The cache keeps every entry's half-space rows stacked in one
:class:`~repro.core.region_index.RegionIndex`, so
:meth:`GIRCache.lookup_batch` answers "which cached regions contain these
vectors?" for a whole request batch from a single matmul instead of a
Python loop of per-entry tests; :meth:`GIRCache.lookup` is a batch of
one. The serving engine interleaves misses — which admit a region and
may evict the LRU entry — with the lookups behind them, so it drives a
:class:`LookupWindow` instead: :meth:`GIRCache.resolve` serves the
pending lookups up to and including the first miss, and after the miss's
admission it patches the window's one matrix (the departed entries'
columns dropped, the admitted entry evaluated for the unresolved rows
only) rather than recomputing it. :meth:`GIRCache.resolve_hits` is its
hit-prefix step alone: it stops *before* the first non-hit and leaves it
uncounted, for a caller that serves full hits only; it decides the first
pending row alone before it evaluates the rows behind it, so a window
led by a miss costs a one-row membership. The first insert fixes the
cache's dimensionality: a region or a vector of another ``d`` is a
``ValueError``. :meth:`GIRCache.lookup_scan` preserves the entry-by-entry
reference path — same answers, same accounting — for the equivalence
tests.

Top-k is scale-invariant and cached regions are clipped to the unit
box, so a vector with a coordinate above 1 is looked up as
``w / max(w)``, the point of its ray inside the box; a vector inside
the box is looked up unchanged.

Dynamic datasets
----------------

When the database changes under the cache, the GIR is precisely the tool
that decides *which* cached entries an update can disturb:

* an **insert** invalidates entry E only if the new record's score can
  exceed E's k-th score somewhere inside E's region — the
  halfspace-intersection test :func:`invalidated_by_insert` (one LP via
  :meth:`~repro.core.gir.GIRResult.admits_above_kth`).
  :meth:`GIRCache.prescreen_insert` decides it for the whole cache in one
  vectorized pass over each region's cone rays, enumerated once when the
  entry is admitted (see
  :meth:`~repro.core.region_index.RegionIndex.prescreen_insert`): every
  entry is safe, an exact tie (the tie-break decides), a certain
  eviction, or — only where ray enumeration failed or the bracket is too
  loose — left to the LP;
* a **delete** invalidates E only if the deleted rid appears in E's
  result — :func:`invalidated_by_delete`. Deleting any other record
  leaves the cached ordered top-k valid everywhere in the region.

The eviction mechanics live on :meth:`GIRCache.evict` /
:meth:`GIRCache.flush`; the *policy* (selective GIR test vs flush-on-write
baseline) is chosen by :class:`repro.engine.GIREngine`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.gir import GIRResult
from repro.core.region_index import (
    RegionIndex,
    SCREEN_EVICT,
    SCREEN_LP,
    SCREEN_SAFE,
    SCREEN_TIE,
)
from repro.core.tolerances import MEMBERSHIP_TOL

__all__ = [
    "CacheHit",
    "InsertPrescreen",
    "LookupWindow",
    "GIRCache",
    "invalidated_by_insert",
    "invalidated_by_delete",
    "apply_insert_invalidation",
    "apply_delete_invalidation",
]


def invalidated_by_insert(
    gir: GIRResult,
    point_g: np.ndarray,
    kth_g: np.ndarray,
    tol: float = MEMBERSHIP_TOL,
    tie_wins: bool = False,
) -> bool:
    """Does inserting a record with g-image ``point_g`` disturb ``gir``?

    True iff the new record can rank above the entry's k-th result record
    somewhere in the region (it would then enter the cached top-k for the
    queries that land there). ``kth_g`` is the g-image of the entry's k-th
    result record; ``tie_wins`` says whether the new record beats it on
    the ``(coord-sum, rid)`` tie-break when their scores tie exactly (an
    inserted duplicate always does — its rid is fresher).
    """
    return gir.admits_above_kth(point_g, kth_g, tol=tol, tie_wins=tie_wins)


def invalidated_by_delete(gir: GIRResult, rid: int) -> bool:
    """Does deleting record ``rid`` disturb ``gir``?

    True iff ``rid`` is one of the entry's result records (the cached
    answer itself loses a member). Deleting any other record cannot
    change the cached ordered top-k anywhere in the region: removing a
    non-member never alters a top-k answer, so the region merely becomes
    a valid under-approximation of the new (larger) GIR.
    """
    return rid in gir.topk.ids


def apply_insert_invalidation(
    cache: "GIRCache",
    point_g: np.ndarray,
    new_sum: float,
    new_rid: int,
    kth_point,
    kth_g,
) -> tuple[int, int, int]:
    """Run the selective insert-invalidation policy over a whole cache.

    The one sequence both serving tiers share: vectorized prescreen
    (safe / exact tie / certain eviction / undecided) → tie-break
    resolution of exact-tie entries → invalidation LP on the undecided
    entries only → eviction of the ties that win, the certain evictions
    and the LP's positives. Returns ``(evicted, prescreen_screened,
    lps_run)``; certain evictions count as screened.

    Parameters
    ----------
    point_g:
        g-space image of the inserted record.
    new_sum / new_rid:
        The inserted record's ``(coord-sum, rid)`` tie-break key, in the
        rid space the cache's entries are keyed in (local rids for a
        shard's cache, global rids for the cluster-level cache). The sum
        must come from the *stored* row (unit-cube clipped), so shard and
        cluster tiers resolve exact ties identically.
    kth_point / kth_g:
        Accessors ``rid -> data-space row`` / ``rid -> g-image`` for an
        entry's k-th result record — how rows are fetched is the only
        thing that differs between the tiers.
    """
    prescreen = cache.prescreen_insert(point_g)

    def tie_wins(gir: GIRResult) -> bool:
        # Exact score ties resolve by (coord-sum, rid) descending; the
        # freshly inserted rid is always the highest.
        kth = gir.topk.kth_id
        return (new_sum, new_rid) > (float(kth_point(kth).sum()), kth)

    stale = [key for key in prescreen.ties if tie_wins(cache.entry(key))]
    stale.extend(prescreen.evict)
    lps = 0
    for key in prescreen.candidates:
        gir = cache.entry(key)
        lps += 1
        if invalidated_by_insert(
            gir, point_g, kth_g(gir.topk.kth_id), tie_wins=tie_wins(gir)
        ):
            stale.append(key)
    return cache.evict(stale), prescreen.screened, lps


def apply_delete_invalidation(cache: "GIRCache", rid: int) -> int:
    """Run the selective delete-invalidation policy over a whole cache.

    Evicts every entry :func:`invalidated_by_delete` flags — the rid is
    in the entry's cached result — and returns the eviction count.
    """
    stale = [key for key, gir in cache.items() if invalidated_by_delete(gir, rid)]
    return cache.evict(stale)


@dataclass(frozen=True)
class CacheHit:
    """Outcome of a successful cache lookup."""

    ids: tuple[int, ...]
    #: Key of the cached entry that served the hit.
    entry_key: int


@dataclass(frozen=True)
class InsertPrescreen:
    """Vectorized classification of the whole cache against one insert."""

    #: Entries the insert provably cannot disturb — no LP needed.
    safe: tuple[int, ...]
    #: Entries whose k-th record the insert ties at *every* query vector
    #: (identical g-image); the caller's tie-break rule decides, no LP.
    ties: tuple[int, ...]
    #: Entries the insert provably disturbs — evict, no LP needed.
    evict: tuple[int, ...]
    #: Entries the screen could not decide — run the exact LP test.
    candidates: tuple[int, ...]

    @property
    def screened(self) -> int:
        """Entries resolved without an LP."""
        return len(self.safe) + len(self.ties) + len(self.evict)


class LookupWindow:
    """Pending lookups and the membership matrix :meth:`GIRCache.resolve`
    keeps current for them.

    ``W`` / ``ks`` are the window's lookup vectors (scaled into the unit
    box, see :meth:`GIRCache.lookup_window`) and ``k`` values; the first
    ``resolved`` of them are served. ``member`` holds the rows
    ``base : base + len(member)`` of ``W`` against the entries ``keys``
    (index order) as of index ``version`` — no rows until the first
    :meth:`GIRCache.resolve_hits`.
    """

    __slots__ = ("W", "ks", "resolved", "member", "keys", "base", "version")

    def __init__(self, W: np.ndarray, ks: np.ndarray) -> None:
        self.W = W
        self.ks = ks
        self.resolved = 0
        self.member = np.zeros((0, 0), dtype=bool)
        self.keys: list[int] = []
        self.base = 0
        self.version: int | None = None

    @property
    def pending(self) -> int:
        """Lookups not yet resolved."""
        return len(self.ks) - self.resolved


# Single-owner, no lock: owned by one GIREngine, and the router's serve
# lock serializes every path that reaches it.
class GIRCache:
    """A capacity-bounded cache of (query, top-k result, GIR) triples.

    Capacity overflow evicts the least recently used entry; a hit and an
    insert refresh recency.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[int, GIRResult] = OrderedDict()
        self._next_key = 0
        #: The stacked regions; created by the first insert, whose
        #: dimensionality every later region and vector must match.
        self._index: RegionIndex | None = None
        #: Monotone recency stamps (mirror the OrderedDict order) so the
        #: vectorized lookup can break ties most-recently-used-first
        #: without walking the dict.
        self._stamps: dict[int, int] = {}
        self._tick = 0
        self.full_hits = 0
        self.misses = 0
        self.invalidation_evictions = 0
        #: Least recently used entries dropped on capacity overflow.
        self.capacity_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def subsumption_evictions(self) -> int:
        """Always 0: insert keeps every entry. Read by the ledger's
        ``core.subsumption_evictions`` column (ROADMAP 6(c))."""
        return 0

    # -- internal bookkeeping --------------------------------------------------

    def _touch(self, key: int) -> None:
        self._entries.move_to_end(key)
        self._tick += 1
        self._stamps[key] = self._tick

    def entry(self, key: int) -> GIRResult:
        """The cached entry under ``key`` (no recency touch)."""
        return self._entries[key]

    # -- writes ---------------------------------------------------------------

    def insert(self, gir: GIRResult, kth_g: np.ndarray | None = None) -> int:
        """Cache a computed GIR; returns its entry key.

        Every insert adds an entry; no existing entry is dropped for it
        except the least recently used one on capacity overflow. An older
        entry whose region overlaps the new one stays: both are sound for
        their own requests, and LRU retires whichever stops serving.

        ``kth_g`` — the g-image of the entry's k-th result record, shape
        ``(d,)`` — enables the vectorized insert-invalidation prescreen for
        this entry (see :meth:`prescreen_insert`). An insert given it pays
        one ray enumeration of the entry's cone, here; one given none pays
        nothing, and its entry is always left to the LP.
        """
        index = self._index
        if index is None:
            index = RegionIndex(int(gir.weights.shape[0]))
        key = self._next_key
        full = len(self._entries) >= self.capacity
        oldest = next(iter(self._entries)) if full else None
        # The index rejects a region of another dimensionality or a
        # misshapen ``kth_g`` before anything is written, so a rejected
        # insert leaves no entry and evicts none. An accepted one splices
        # out the LRU entry in the same pass over the stacks.
        index.add(
            key,
            gir.polytope,
            kth_g=kth_g,
            interior=gir.weights,
            evict=oldest,
            depth=len(gir.topk.ids),
        )
        self._index = index
        self._next_key += 1
        if oldest is not None:
            del self._entries[oldest], self._stamps[oldest]
            self.capacity_evictions += 1
        self._entries[key] = gir
        self._touch(key)
        return key

    # -- lookups --------------------------------------------------------------

    def lookup(self, weights: np.ndarray, k: int) -> CacheHit | None:
        """Serve a query from cache if its vector lies in some cached GIR
        whose entry was cached for ``k`` or more records: a
        :meth:`lookup_batch` of one.

        A hit refreshes the entry's recency. Among the serving candidates
        the most recently used wins (exactly the order the entry-by-entry
        scan of :meth:`lookup_scan` produces). Returns ``None`` on a miss —
        including a vector only a smaller-``k`` entry contains, which is
        not touched.
        """
        return self.lookup_batch(np.asarray(weights, dtype=np.float64)[None], [k])[0]

    def lookup_scan(self, weights: np.ndarray, k: int) -> CacheHit | None:
        """Entry-by-entry reference implementation of :meth:`lookup`.

        Scans entries most-recently-used first, one ``Polytope.contains``
        per entry — the pre-index serving path, kept as the reference the
        equivalence tests compare against. Answers and hit/miss
        accounting are identical to :meth:`lookup`.
        """
        weights = np.asarray(weights, dtype=np.float64)
        peak = weights.max()
        if peak > 1.0:
            weights = weights / peak
        # OrderedDict supports reversed iteration natively; no key-list
        # materialisation. The in-loop _touch is safe because the scan
        # returns immediately after it.
        for key in reversed(self._entries):
            gir = self._entries[key]
            if gir.weights.shape != weights.shape:
                continue
            if len(gir.topk.ids) < k or not gir.contains(weights):
                continue
            self._touch(key)
            self.full_hits += 1
            return CacheHit(ids=gir.topk.ids[:k], entry_key=key)
        self.misses += 1
        return None

    def lookup_batch(
        self, weights_batch: np.ndarray, ks: int | Sequence[int]
    ) -> list[CacheHit | None]:
        """Serve a whole batch of lookups from one membership matmul over
        the rows behind the first (:meth:`resolve_hits` decides the first
        alone).

        ``weights_batch`` is ``(q, d)``; ``ks`` a scalar or per-query
        sequence. Results, recency refreshes and hit/miss accounting are
        exactly those of ``q`` sequential :meth:`lookup` calls (pure
        lookups never change membership, so the batched matrix stays valid
        throughout). A ``d`` other than the cached regions' is a
        ``ValueError``. A caller that mutates the cache between lookups
        drives a :meth:`lookup_window` with :meth:`resolve` instead.
        """
        window = self.lookup_window(weights_batch, ks)
        hits: list[CacheHit | None] = []
        while window.pending:
            hits += self.resolve(window)
        return hits

    def lookup_window(
        self, weights_batch: np.ndarray, ks: int | Sequence[int]
    ) -> LookupWindow:
        """A :class:`LookupWindow` over ``(q, d)`` vectors and their ``k``
        (a scalar or per-query sequence), for :meth:`resolve`; nothing is
        evaluated yet.

        A row with a coordinate above 1 is looked up as ``w / max(w)``:
        top-k is scale-invariant and the cached regions are clipped to
        the unit box, so that is where its ray meets them. Rows inside
        the box are looked up unchanged."""
        W = np.asarray(weights_batch, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError("weights_batch must have shape (q, d)")
        q = W.shape[0]
        if q and W.max() > 1.0:
            W = W / np.maximum(W.max(axis=1), 1.0)[:, None]
        ks = np.asarray(ks, dtype=np.int64)
        return LookupWindow(W, ks if ks.shape == (q,) else np.broadcast_to(ks, (q,)))

    def resolve_hits(self, window: LookupWindow) -> list[int]:
        """Resolve a window's pending lookups in order while the cache
        answers them in full, exactly as sequential :meth:`lookup` calls
        would, and stop *before* the first one it does not: that lookup
        stays pending and uncounted, and nothing behind it is looked at.
        Returns the key of the entry serving each resolved lookup, in
        order.

        A fresh window decides its first row alone — one row of
        membership — and evaluates the rows behind it only when that row
        is a hit, so a window led by a miss costs one row. Each row takes its
        serving entry from one pass over the window's matrix: a row that
        exactly one entry cached for at least its ``k`` contains takes
        that entry (same-``k`` regions of different answers have disjoint
        interiors, so this is the usual case), and a row with two or more
        falls back to :meth:`_serving_key` under the live recency stamps,
        so recency and counters stay exactly sequential.

        The window's membership matrix is patched on a later call if the
        region index changed since (:attr:`RegionIndex.version`): the
        columns of departed entries are dropped and the new entries are
        evaluated for the unresolved rows only. Entry keys are never
        reused and the index appends, so the surviving columns are the
        index's first ones.
        """
        index = self._index
        start = window.resolved
        q = len(window.ks)
        if index is None or start == q:
            return []
        if index.version != window.version or window.base + len(window.member) <= start:
            self._patch(window, index)
        ks, depths = window.ks, index.depths
        covered = window.base + len(window.member)
        serving = window.member[start - window.base :] & (
            depths >= ks[start:covered, None]
        )
        if not serving[0].any():
            return []
        if covered < q:
            rest = index.membership_batch(window.W[covered:])
            window.member = np.concatenate([window.member[start - window.base :], rest])
            window.base = start
            serving = np.concatenate([serving, rest & (depths >= ks[covered:, None])])
        counts = serving.sum(axis=1)
        served = len(counts) if counts.all() else int(counts.argmin())
        picks = serving[:served].argmax(axis=1).tolist()
        keys = window.keys
        hits: list[int] = []
        for i, (count, pick) in enumerate(zip(counts[:served].tolist(), picks)):
            if count == 1:
                key = keys[pick]
            else:
                members = [keys[j] for j in np.flatnonzero(serving[i]).tolist()]
                key = self._serving_key(members, int(ks[start + i]))
            self._touch(key)
            hits.append(key)
        self.full_hits += served
        window.resolved += served
        return hits

    def _patch(self, window: LookupWindow, index: RegionIndex) -> None:
        """Bring the window's matrix to the index's current version for
        the rows it covers from the first pending one on. A window that
        covers none of them evaluates them all — or, before its first
        evaluation, its first row alone."""
        start = window.resolved
        keys = index.keys()
        covered = window.base + len(window.member)
        if covered <= start:
            stop = start + 1 if window.version is None else len(window.ks)
            member = index.membership_batch(window.W[start:stop])
        else:
            keep: list[int] = []
            if window.keys:
                live = set(keys)
                keep = [j for j, key in enumerate(window.keys) if key in live]
            member = index.membership_batch(window.W[start:covered], first=len(keep))
            if keep:
                old = window.member[start - window.base :]
                if len(keep) < len(window.keys):
                    old = old[:, keep]
                member = np.concatenate([old, member], axis=1)
        window.member, window.keys, window.base = member, keys, start
        window.version = index.version

    def resolve_miss(self, window: LookupWindow) -> None:
        """The miss step: account the window's first pending lookup — one
        :meth:`resolve_hits` stopped before — as a miss and move past it.
        The caller admits the miss's region before resolving the rest."""
        self.misses += 1
        window.resolved += 1

    def resolve(self, window: LookupWindow) -> list[CacheHit | None]:
        """Resolve a window's pending lookups in order, up to and including
        the first miss: :meth:`resolve_hits`, then :meth:`resolve_miss`
        for the first non-hit (``None``)."""
        ks = window.ks
        start = window.resolved
        hits: list[CacheHit | None] = [
            CacheHit(ids=self._entries[key].topk.ids[: int(ks[i])], entry_key=key)
            for i, key in enumerate(self.resolve_hits(window), start)
        ]
        if window.pending:
            self.resolve_miss(window)
            hits.append(None)
        return hits

    def _serving_key(self, member_keys: Sequence[int], k: int) -> int | None:
        """The selection rule shared by every lookup flavour: among the
        containing entries, the most recently used one cached for at least
        ``k`` records; ``None`` when no entry serves ``k``."""
        serving = [key for key in member_keys if len(self._entries[key].topk.ids) >= k]
        if not serving:
            return None
        return max(serving, key=self._stamps.__getitem__)

    def items(self) -> Iterator[tuple[int, GIRResult]]:
        """(key, entry) pairs in LRU order, oldest first (no recency touch)."""
        return iter(list(self._entries.items()))

    # -- update-driven eviction ------------------------------------------------

    def prescreen_insert(
        self, point_g: np.ndarray, tol: float = MEMBERSHIP_TOL
    ) -> InsertPrescreen:
        """Screen the whole cache against an inserted record's g-image.

        One vectorized pass over the region index (see
        :meth:`~repro.core.region_index.RegionIndex.prescreen_insert`)
        partitions the entries into provably-undisturbed / exact-tie /
        provably-disturbed / LP-candidate sets; the caller runs
        :func:`invalidated_by_insert`'s LP only on the candidates. A pure
        read: every entry's rays were enumerated when it was admitted. A
        ``point_g`` of another dimensionality than the cached regions' is
        a ``ValueError``.
        """
        if self._index is None:
            return InsertPrescreen(safe=(), ties=(), evict=(), candidates=())
        keys = np.asarray(self._index.keys(), dtype=np.int64)
        codes = self._index.prescreen_insert(point_g, tol=tol)

        def coded(code: int) -> tuple[int, ...]:
            return tuple(keys[codes == code].tolist())

        return InsertPrescreen(
            safe=coded(SCREEN_SAFE),
            ties=coded(SCREEN_TIE),
            evict=coded(SCREEN_EVICT),
            candidates=coded(SCREEN_LP),
        )

    def evict(self, keys: Iterable[int]) -> int:
        """Drop the given entries (update invalidation); returns the number
        actually removed. Unknown keys are ignored. The region index is
        compacted once, not once per key."""
        removed = [key for key in keys if self._entries.pop(key, None) is not None]
        for key in removed:
            del self._stamps[key]
        if removed:
            self._index.remove_many(removed)
        self.invalidation_evictions += len(removed)
        return len(removed)

    def flush(self) -> int:
        """Drop every entry (the flush-on-write baseline); returns the count."""
        removed = len(self._entries)
        self._entries.clear()
        self._stamps.clear()
        if self._index is not None:
            self._index.clear()
        self.invalidation_evictions += removed
        return removed

    def grid_counters(self) -> tuple[int, int]:
        """Always ``(0, 0)``: lookups run no admission grid. Read by the
        ledger's ``core.grid_negative_share`` column (ROADMAP 6(c))."""
        return 0, 0

    def stats(self) -> dict[str, int]:
        return {
            "full_hits": self.full_hits,
            "misses": self.misses,
            "invalidation_evictions": self.invalidation_evictions,
            "capacity_evictions": self.capacity_evictions,
            "entries": len(self._entries),
            "index_rows": self._index.rows if self._index is not None else 0,
        }
