"""Vectorized region-membership index over cached GIR polytopes.

The serving hot path of :class:`~repro.core.caching.GIRCache` is "which
cached regions contain this query vector?" — previously answered by a
Python loop calling :meth:`~repro.geometry.polytope.Polytope.contains`
once per entry (one small matmul each). This index stacks every cached
entry's *normalized* half-space rows ``(A, b)`` into one contiguous matrix
with per-entry row segments, so

* a single-query membership test is **one** matvec over all entries plus a
  segment reduction (:meth:`RegionIndex.membership`), and
* a whole request batch is **one** matmul ``W @ A_allᵀ``
  (:meth:`RegionIndex.membership_batch`).

Rows come from :meth:`Polytope.normalized_halfspaces`, so the single
global tolerance is norm-relative and agrees bit-for-bit in form with the
scalar :meth:`Polytope.contains` path.

Write-path prescreen
--------------------

On an insert, the dynamic engine must decide for every cached entry
whether the new record can enter its top-k somewhere in its region: is
``max δ · w > tol`` over the region, with ``δ = g(p_new) − g(p_k)``
(:func:`~repro.core.caching.invalidated_by_insert`, one LP)? The index
decides it without the LP. A GIR is a polyhedral cone cut by the unit
box, so every member is ``w = Σ λ_j r_j`` over the cone's unit-sum
extreme rays ``r_j`` with ``λ_j ≥ 0`` and ``Σ λ_j = Σ w ≤ d``; and each
ray scaled to ``r_j / max(r_j)`` is itself a member. With
``m = max δ · r_j`` and ``s = max δ · r_j / max(r_j)`` the LP optimum
therefore lies in ``[s, d · max(m, 0)]``:

* ``d · m ≤ tol − SCREEN_SAFETY`` (or ``δ`` dominated) — the insert
  provably cannot disturb the entry;
* ``s > tol + SCREEN_SAFETY`` — it provably does: evict, no LP;
* in between — run the LP.

The index keeps, per entry, the rays ``R`` (:meth:`Polytope.cone_rays`,
with the entry's query vector as the interior point) and the dot products
``R @ g(p_k)``; screening every entry against a new ``g(p_new)`` is one
stacked matvec plus two segment maxima. An entry whose ray enumeration
failed (a query vector on a facet, a flat region, rows that are not a
cone) is always left to the LP.

Rays are materialized lazily on the first prescreen, so read-only
workloads never pay for them; each entry's rays are computed **once** and
memoized for the key's whole cache lifetime (regions are immutable) —
re-stacks after add/remove only re-concatenate the memoized per-entry
blocks.

The segmented reductions run through :mod:`repro.core.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import sanitize
from repro.core import kernels
from repro.geometry.polytope import Polytope
from repro.core.tolerances import MEMBERSHIP_TOL, SCREEN_SAFETY

__all__ = [
    "RegionIndex",
    "SCREEN_SAFE",
    "SCREEN_TIE",
    "SCREEN_LP",
    "SCREEN_EVICT",
]

#: Prescreen verdicts (per entry): the insert provably cannot disturb the
#: entry / ties its k-th record exactly everywhere (caller's tie-break
#: decides) / needs the LP to decide / provably disturbs it.
SCREEN_SAFE = 0
SCREEN_TIE = 1
SCREEN_LP = 2
SCREEN_EVICT = 3


@dataclass
class _ScreenEntry:
    """Static insert-screen geometry of one cached region."""

    #: Unit-sum extreme rays of the region's cone, ``(n_rays, d)``.
    R: np.ndarray
    #: Per-ray ``R @ g(p_k)`` for the entry's k-th result record.
    rdots: np.ndarray
    #: g-image of the entry's k-th result record.
    kth_g: np.ndarray


# Single-owner, no lock: owned by one GIRCache and reached only under the
# router's serve lock (membership lazily materializes screen stacks).
class RegionIndex:
    """Contiguously stacked half-space rows of many bounded regions.

    All regions share one dimensionality ``d`` (the cache keeps one index
    per query-space dimension). Entries are identified by the cache's
    integer keys; ``add``/``remove``/``clear`` maintain the stacks
    incrementally (append on add, segment splice on remove).
    """

    def __init__(self, d: int) -> None:
        if d <= 0:
            raise ValueError("dimensionality must be positive")
        self.d = int(d)
        self._keys: list[int] = []
        self._A = np.empty((0, d), dtype=np.float64)
        self._b = np.empty(0, dtype=np.float64)
        #: Row segment boundaries: entry ``i`` owns rows
        #: ``offsets[i]:offsets[i+1]``.
        self._offsets = np.zeros(1, dtype=np.int64)
        #: Per-key screen geometry: ``None`` = always LP (no ``kth_g`` or
        #: interior given, or ray enumeration failed), a
        #: ``(polytope, kth_g, interior)`` tuple = pending lazy
        #: computation, a :class:`_ScreenEntry` = computed.
        self._screen: dict[int, _ScreenEntry | tuple | None] = {}
        self._screen_stacks: tuple | None = None

    # -- maintenance ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def rows(self) -> int:
        """Total stacked half-space rows across all entries."""
        return int(self._offsets[-1])

    def keys(self) -> list[int]:
        """Entry keys in segment (insertion) order."""
        return list(self._keys)

    @sanitize.mutates
    def add(
        self,
        key: int,
        polytope: Polytope,
        kth_g: np.ndarray | None = None,
        interior: np.ndarray | None = None,
    ) -> None:
        """Index a region under ``key``.

        ``kth_g`` (the g-image of the entry's k-th result record) and
        ``interior`` (the entry's query vector, the interior point of the
        ray enumeration) enable the insert-invalidation prescreen for this
        entry; without both the entry is always classified
        :data:`SCREEN_LP`.
        """
        if polytope.d != self.d:
            raise ValueError(f"expected a {self.d}-d region, got {polytope.d}-d")
        if polytope.m == 0:
            raise ValueError("cannot index a constraint-free region")
        if key in self._screen:
            raise KeyError(f"key {key} already indexed")
        A_n, b_n = polytope.normalized_halfspaces()
        self._A = np.concatenate([self._A, A_n])
        self._b = np.concatenate([self._b, b_n])
        self._offsets = np.append(self._offsets, self._offsets[-1] + polytope.m)
        self._keys.append(key)
        self._screen[key] = None if kth_g is None or interior is None else (
            polytope,
            np.asarray(kth_g, dtype=np.float64),
            np.asarray(interior, dtype=np.float64),
        )
        self._screen_stacks = None

    @sanitize.mutates
    def remove(self, key: int) -> bool:
        """Drop an entry; returns False if the key is unknown."""
        return self.remove_many([key]) == 1

    @sanitize.mutates
    def remove_many(self, keys) -> int:
        """Drop several entries in one compaction pass over the stacks
        (an update can invalidate many entries at once; splicing them out
        one at a time would copy the arrays once per key). Unknown keys
        are ignored; returns the number removed.
        """
        drop = [key for key in dict.fromkeys(keys) if key in self._screen]
        if not drop:
            return 0
        # ``list.index`` finds each dropped key's row segment without a
        # Python pass over every indexed key (an LRU eviction drops one),
        # and the kept rows are the runs between the dropped segments:
        # slicing them beats a boolean row mask by an order of magnitude.
        pos = sorted(self._keys.index(key) for key in drop)
        bounds = self._offsets.tolist()
        starts = [0] + [bounds[p + 1] for p in pos]
        stops = [bounds[p] for p in pos] + [bounds[-1]]
        runs = [slice(a, z) for a, z in zip(starts, stops) if z > a]
        self._A = np.concatenate([self._A[run] for run in runs] or [self._A[:0]])
        self._b = np.concatenate([self._b[run] for run in runs] or [self._b[:0]])
        keep = np.ones(len(self._keys), dtype=bool)
        keep[pos] = False
        self._offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(np.diff(self._offsets)[keep])]
        )
        for i in reversed(pos):
            del self._screen[self._keys[i]]
            del self._keys[i]
        self._screen_stacks = None
        return len(drop)

    @sanitize.mutates
    def clear(self) -> None:
        self._keys = []
        self._A = np.empty((0, self.d), dtype=np.float64)
        self._b = np.empty(0, dtype=np.float64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._screen = {}
        self._screen_stacks = None

    # -- membership -----------------------------------------------------------

    def membership(self, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Boolean array over :meth:`keys`: which regions contain ``x``?

        One matvec over all stacked rows + one segment reduction —
        equivalent to calling ``contains`` per entry.
        """
        if not self._keys:
            return np.zeros(0, dtype=bool)
        x = np.asarray(x, dtype=np.float64)
        return kernels.segmented_membership(
            self._A, self._b, self._offsets, x, tol
        )

    def membership_batch(self, X: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Membership of a whole query batch at once.

        ``X`` is ``(q, d)``; returns boolean ``(q, n_entries)``, columns in
        :meth:`keys` order. The entire batch-vs-cache evaluation is one
        matmul ``X @ A_allᵀ``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"X must have shape (q, {self.d})")
        if not self._keys:
            return np.zeros((X.shape[0], 0), dtype=bool)
        return kernels.segmented_membership_batch(
            self._A, self._b, self._offsets, X, tol
        )

    # -- insert-invalidation prescreen ----------------------------------------

    def _materialize_screen(self) -> tuple:
        """Build (lazily, cached) the stacked screen arrays.

        Pending entries enumerate their cone's rays here — once per cache
        lifetime; rebuilds after add/remove only re-stack the
        already-computed per-entry blocks. An entry without rays stacks a
        one-row placeholder and is marked ineligible (always LP).
        """
        if self._screen_stacks is not None:
            return self._screen_stacks
        # Unit-sum like a real ray, so the max(r) divisor stays positive.
        placeholder_R = np.full((1, self.d), 1.0 / self.d)
        R_parts, rdot_parts, kth_rows, eligible = [], [], [], []
        for key in self._keys:
            blob = self._screen[key]
            if isinstance(blob, tuple):
                blob = self._compute_screen_entry(*blob)
                self._screen[key] = blob
            if blob is None:
                R_parts.append(placeholder_R)
                rdot_parts.append(np.zeros(1))
                kth_rows.append(np.full(self.d, np.nan))
                eligible.append(False)
            else:
                R_parts.append(blob.R)
                rdot_parts.append(blob.rdots)
                kth_rows.append(blob.kth_g)
                eligible.append(True)
        n = len(self._keys)
        R_all = np.concatenate(R_parts) if n else np.zeros((0, self.d))
        self._screen_stacks = (
            R_all,
            np.concatenate(rdot_parts) if n else np.zeros(0),
            R_all.max(axis=1),
            np.cumsum([0] + [len(part) for part in rdot_parts], dtype=np.int64),
            np.asarray(kth_rows).reshape(n, self.d),
            np.asarray(eligible, dtype=bool),
        )
        return self._screen_stacks

    def _compute_screen_entry(
        self, polytope: Polytope, kth_g: np.ndarray, interior: np.ndarray
    ) -> _ScreenEntry | None:
        R = polytope.cone_rays(interior)
        if R is None:
            return None
        return _ScreenEntry(R=R, rdots=R @ kth_g, kth_g=kth_g)

    @sanitize.mutates  # lazily materializes the screen stacks
    def prescreen_insert(
        self,
        point_g: np.ndarray,
        tol: float = MEMBERSHIP_TOL,
        safety: float = SCREEN_SAFETY,
    ) -> np.ndarray:
        """Classify every entry against an inserted record's g-image.

        Returns an int8 array aligned with :meth:`keys`. With
        ``δ = g(p_new) − g(p_k)`` and the entry's unit-sum rays ``r``,
        ``m = max δ · r`` and ``s = max δ · r / max(r)`` bracket the LP
        optimum over the region as ``[s, d · max(m, 0)]`` (see the module
        docstring):

        * :data:`SCREEN_SAFE` — the record provably cannot out-score the
          entry's k-th record anywhere in its region: ``δ`` is dominated
          component-wise, or ``d · m ≤ tol − safety``;
        * :data:`SCREEN_TIE` — identical g-image to the k-th record (a tie
          at *every* query vector; the caller's tie-break rule decides);
        * :data:`SCREEN_EVICT` — it provably does, somewhere in the region:
          ``s > tol + safety``;
        * :data:`SCREEN_LP` — undecided, run the exact LP test.

        ``safety`` absorbs ray rounding (un-joggled qhull intersections
        are reliable to ~1e-12), so both decisions are the LP's own
        verdict. It must stay *below* ``tol``: GIR regions contain the
        origin (the cone apex), so every undisturbable entry's exact
        maximum is 0 — a ``safety ≥ tol`` would reject the very bound the
        screen exists to accept. Entries added without ``kth_g`` or
        ``interior``, or whose ray enumeration failed, are always
        :data:`SCREEN_LP`.
        """
        n = len(self._keys)
        codes = np.full(n, SCREEN_LP, dtype=np.int8)
        if n == 0:
            return codes
        point_g = np.asarray(point_g, dtype=np.float64)
        R_all, rdots, rmax, offsets, kth, eligible = self._materialize_screen()
        gap = R_all @ point_g - rdots  # δ · r, one value per ray
        m = kernels.segmented_max(gap, offsets)
        s = kernels.segmented_max(gap / rmax, offsets)
        delta = point_g[None, :] - kth  # NaN rows for ineligible entries
        with np.errstate(invalid="ignore"):
            # repro: allow[numeric-safety] -- exact g-image ties only: a row
            # whose kth g-vector is bit-identical to the query point must be
            # screened as a tie, and any tolerance here would misclassify
            # near-ties that the LP path handles correctly
            tie = eligible & (delta == 0.0).all(axis=1)
            dominated = eligible & ~tie & (delta <= 0.0).all(axis=1)
        bounded = eligible & ~tie
        safe = bounded & (dominated | (self.d * m <= tol - safety))
        evict = bounded & ~safe & (s > tol + safety)
        codes[tie] = SCREEN_TIE
        codes[safe] = SCREEN_SAFE
        codes[evict] = SCREEN_EVICT
        return codes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegionIndex(d={self.d}, entries={len(self)}, rows={self.rows})"
