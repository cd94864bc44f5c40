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

The cache keeps every entry's half-space rows stacked in a
:class:`~repro.core.region_index.RegionIndex` (one per query-space
dimensionality), so :meth:`GIRCache.lookup` answers "which cached regions
contain this vector?" with one matvec over *all* entries instead of a
Python loop of per-entry tests, and :meth:`GIRCache.lookup_batch` resolves
a whole request batch from a single matmul. :meth:`GIRCache.lookup_scan`
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
        #: One region index per query-space dimensionality.
        self._indexes: dict[int, RegionIndex] = {}
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

    def _register(
        self, key: int, gir: GIRResult, kth_g: np.ndarray | None
    ) -> None:
        self._entries[key] = gir
        self._tick += 1
        self._stamps[key] = self._tick
        d = int(gir.weights.shape[0])
        index = self._indexes.get(d)
        if index is None:
            index = self._indexes[d] = RegionIndex(d)
        index.add(key, gir.polytope, kth_g=kth_g, interior=gir.weights)

    def _unregister(self, key: int) -> bool:
        gir = self._entries.pop(key, None)
        if gir is None:
            return False
        self._stamps.pop(key, None)
        index = self._indexes.get(int(gir.weights.shape[0]))
        if index is not None:
            index.remove(key)
        return True

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
        key = self._next_key
        self._next_key += 1
        self._register(key, gir, kth_g)
        if len(self._entries) > self.capacity:
            self._unregister(next(iter(self._entries)))
            self.capacity_evictions += 1
        return key

    # -- lookups --------------------------------------------------------------

    @sanitize.mutates  # a hit touches recency; every path bumps counters
    def lookup(self, weights: np.ndarray, k: int) -> CacheHit | None:
        """Serve a query from cache if its vector lies in some cached GIR
        whose entry was cached for ``k`` or more records.

        Membership of *all* entries is evaluated in one vectorized pass
        over the region index; a hit refreshes the entry's recency. Among
        the serving candidates the most recently used wins (exactly the
        order the entry-by-entry scan of :meth:`lookup_scan` produces).
        Returns ``None`` on a miss — including a vector only a
        smaller-``k`` entry contains, which is not touched.
        """
        weights = np.asarray(weights, dtype=np.float64)
        return self._resolve(self._members_of(weights), k)

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
        throughout).

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
        index = self._indexes.get(int(W.shape[1]))
        membership = None
        keys: list[int] = []
        if index is not None and len(index):
            membership = index.membership_batch(W)
            keys = index.keys()
        hits: list[CacheHit | None] = []
        for i in range(q):
            members = (
                [keys[j] for j in np.nonzero(membership[i])[0]]
                if membership is not None
                else []
            )
            hit = self._resolve(members, int(ks_arr[i]))
            hits.append(hit)
            if stop_after_non_full and hit is None:
                break
        return hits

    def _members_of(self, weights: np.ndarray) -> list[int]:
        """Keys of all cached entries whose region contains ``weights``."""
        index = self._indexes.get(int(weights.shape[0]))
        if index is None or not len(index):
            return []
        mask = index.membership(weights)
        keys = index.keys()
        return [keys[i] for i in np.nonzero(mask)[0]]

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

    def entry_keys(self) -> list[int]:
        """Keys of the currently cached entries (LRU order, oldest first)."""
        return list(self._entries)

    def items(self) -> Iterator[tuple[int, GIRResult]]:
        """(key, entry) pairs in LRU order, oldest first (no recency touch)."""
        return iter(list(self._entries.items()))

    # -- update-driven eviction ------------------------------------------------

    @sanitize.mutates  # lazily materializes the region indexes' ray stacks
    def prescreen_insert(
        self, point_g: np.ndarray, tol: float = MEMBERSHIP_TOL
    ) -> InsertPrescreen:
        """Screen the whole cache against an inserted record's g-image.

        One vectorized pass per region index (see
        :meth:`~repro.core.region_index.RegionIndex.prescreen_insert`)
        partitions the entries into provably-undisturbed / exact-tie /
        provably-disturbed / LP-candidate sets; the caller runs
        :func:`invalidated_by_insert`'s LP only on the candidates.
        Entries indexed under a different dimensionality than ``point_g``
        (impossible through :class:`repro.engine.GIREngine`) are returned
        as candidates so no caller can silently skip them.
        """
        point_g = np.asarray(point_g, dtype=np.float64)
        d = int(point_g.shape[0])
        by_code: dict[int, list[int]] = {
            code: [] for code in (SCREEN_SAFE, SCREEN_TIE, SCREEN_EVICT, SCREEN_LP)
        }
        for dim, index in self._indexes.items():
            if not len(index):
                continue
            keys = np.asarray(index.keys())
            if dim != d:
                by_code[SCREEN_LP].extend(keys.tolist())
                continue
            codes = index.prescreen_insert(point_g, tol=tol)
            for code, bucket in by_code.items():
                bucket.extend(keys[codes == code].tolist())
        return InsertPrescreen(
            safe=tuple(by_code[SCREEN_SAFE]),
            ties=tuple(by_code[SCREEN_TIE]),
            evict=tuple(by_code[SCREEN_EVICT]),
            candidates=tuple(by_code[SCREEN_LP]),
        )

    @sanitize.mutates
    def evict(self, keys: Iterable[int]) -> int:
        """Drop the given entries (update invalidation); returns the number
        actually removed. Unknown keys are ignored. The region indexes are
        compacted once per dimensionality, not once per key."""
        by_dim: dict[int, list[int]] = {}
        removed = 0
        for key in keys:
            gir = self._entries.pop(key, None)
            if gir is None:
                continue
            removed += 1
            self._stamps.pop(key, None)
            by_dim.setdefault(int(gir.weights.shape[0]), []).append(key)
        for dim, dim_keys in by_dim.items():
            index = self._indexes.get(dim)
            if index is not None:
                index.remove_many(dim_keys)
        self.invalidation_evictions += removed
        return removed

    @sanitize.mutates
    def flush(self) -> int:
        """Drop every entry (the flush-on-write baseline); returns the count."""
        removed = len(self._entries)
        self._entries.clear()
        self._stamps.clear()
        for index in self._indexes.values():
            index.clear()
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
            "index_rows": sum(
                index.rows for index in self._indexes.values()
            ),
        }
