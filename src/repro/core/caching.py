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
one. The first insert fixes the cache's dimensionality: a region or a
vector of another ``d`` is a ``ValueError``. :meth:`GIRCache.lookup_scan`
preserves the entry-by-entry reference path — same answers, same
accounting — for the equivalence tests.

Dynamic datasets
----------------

When the database changes under the cache, the GIR is precisely the tool
that decides *which* cached entries an update can disturb:

* an **insert** invalidates entry E only if the new record's score can
  exceed E's k-th score somewhere inside E's region — the
  halfspace-intersection test :func:`invalidated_by_insert` (one LP via
  :meth:`~repro.core.gir.GIRResult.admits_above_kth`).
  :meth:`GIRCache.prescreen_insert` decides it for the whole cache in one
  vectorized pass over each region's cone rays (see
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

from repro import sanitize
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

    @sanitize.mutates
    def insert(self, gir: GIRResult, kth_g: np.ndarray | None = None) -> int:
        """Cache a computed GIR; returns its entry key.

        Every insert adds an entry; no existing entry is dropped for it
        except the least recently used one on capacity overflow. An older
        entry whose region overlaps the new one stays: both are sound for
        their own requests, and LRU retires whichever stops serving.

        ``kth_g`` — the g-image of the entry's k-th result record — enables
        the vectorized insert-invalidation prescreen for this entry (see
        :meth:`prescreen_insert`); optional for read-only deployments.
        """
        if self._index is None:
            self._index = RegionIndex(int(gir.weights.shape[0]))
        key = self._next_key
        # The index rejects a region of another dimensionality before
        # anything is written, so a rejected insert leaves no entry.
        self._index.add(key, gir.polytope, kth_g=kth_g, interior=gir.weights)
        self._next_key += 1
        self._entries[key] = gir
        self._touch(key)
        if len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest], self._stamps[oldest]
            self._index.remove(oldest)
            self.capacity_evictions += 1
        return key

    # -- lookups --------------------------------------------------------------

    @sanitize.mutates  # a hit touches recency; every path bumps counters
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

    @sanitize.mutates
    def lookup_scan(self, weights: np.ndarray, k: int) -> CacheHit | None:
        """Entry-by-entry reference implementation of :meth:`lookup`.

        Scans entries most-recently-used first, one ``Polytope.contains``
        per entry — the pre-index serving path, kept as the reference the
        equivalence tests compare against. Answers and hit/miss
        accounting are identical to :meth:`lookup`.
        """
        weights = np.asarray(weights, dtype=np.float64)
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

    @sanitize.mutates
    def lookup_batch(
        self,
        weights_batch: np.ndarray,
        ks: int | Sequence[int],
        stop_after_non_full: bool = False,
    ) -> list[CacheHit | None]:
        """Serve a whole batch of lookups from one membership matmul.

        ``weights_batch`` is ``(q, d)``; ``ks`` a scalar or per-query
        sequence. Results, recency refreshes and hit/miss accounting are
        exactly those of ``q`` sequential :meth:`lookup` calls (pure
        lookups never change membership, so the batched matrix stays valid
        throughout). A ``d`` other than the cached regions' is a
        ``ValueError``.

        With ``stop_after_non_full`` the batch stops — *after* accounting
        it — at the first miss, returning a possibly shorter list. The
        serving engine uses this to interleave pipeline computations
        (which mutate the cache) at exactly the positions a sequential run
        would.
        """
        W = np.asarray(weights_batch, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError("weights_batch must have shape (q, d)")
        q = W.shape[0]
        ks_arr = np.broadcast_to(np.asarray(ks, dtype=np.int64), (q,))
        if self._index is None:
            membership, keys = np.zeros((q, 0), dtype=bool), []
        else:
            membership, keys = self._index.membership_batch(W), self._index.keys()
        hits: list[CacheHit | None] = []
        for i in range(q):
            members = [keys[j] for j in np.nonzero(membership[i])[0]]
            hit = self._resolve(members, int(ks_arr[i]))
            hits.append(hit)
            if stop_after_non_full and hit is None:
                break
        return hits

    def _resolve(self, member_keys: Sequence[int], k: int) -> CacheHit | None:
        """Pick the serving entry among containing entries and account the
        outcome — the selection rule shared by every lookup flavour: the
        most recently used entry cached for at least ``k`` records."""
        serving = [key for key in member_keys if len(self._entries[key].topk.ids) >= k]
        if not serving:
            self.misses += 1
            return None
        key = max(serving, key=self._stamps.__getitem__)
        self._touch(key)
        self.full_hits += 1
        return CacheHit(ids=self._entries[key].topk.ids[:k], entry_key=key)

    def items(self) -> Iterator[tuple[int, GIRResult]]:
        """(key, entry) pairs in LRU order, oldest first (no recency touch)."""
        return iter(list(self._entries.items()))

    # -- update-driven eviction ------------------------------------------------

    @sanitize.mutates  # lazily materializes the region indexes' ray stacks
    def prescreen_insert(
        self, point_g: np.ndarray, tol: float = MEMBERSHIP_TOL
    ) -> InsertPrescreen:
        """Screen the whole cache against an inserted record's g-image.

        One vectorized pass over the region index (see
        :meth:`~repro.core.region_index.RegionIndex.prescreen_insert`)
        partitions the entries into provably-undisturbed / exact-tie /
        provably-disturbed / LP-candidate sets; the caller runs
        :func:`invalidated_by_insert`'s LP only on the candidates. A
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

    @sanitize.mutates
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

    @sanitize.mutates
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
