"""Vectorized region-membership index over cached GIR polytopes.

The serving hot path of :class:`~repro.core.caching.GIRCache` is "which
cached regions contain these query vectors?". This index stacks every
cached entry's *normalized* half-space rows ``(A, b)`` into one contiguous
matrix with per-entry row segments, so a whole request batch is **one**
matmul ``W @ A_allᵀ`` plus a segment reduction
(:meth:`RegionIndex.membership_batch`); a single vector is a batch of one.

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

The index keeps the rays ``R`` (:meth:`Polytope.cone_rays`, with the
entry's query vector as the interior point) and the dot products
``R @ g(p_k)`` of every entry stacked like its membership rows;
screening every entry against a new ``g(p_new)`` is one stacked matvec
plus two segment maxima. An entry whose ray enumeration failed (a query
vector on a facet, a flat region, rows that are not a cone) is always
left to the LP.

Rays are enumerated once, when the entry is admitted (:meth:`add`), so
the screen is a pure read and a write never pays for another entry's
cone. Removal splices the ray stack in the same pass as the membership
rows; regions are immutable, so nothing is ever recomputed.

The segmented reductions run through :mod:`repro.core.kernels`.
"""

from __future__ import annotations

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


def _splice(offsets: np.ndarray, pos: list[int], *stacks: np.ndarray) -> tuple:
    """Cut the row segments of the entries at sorted positions ``pos`` out
    of ``stacks``, whose entry ``i`` owns rows ``offsets[i]:offsets[i+1]``.
    Returns the new offsets followed by the spliced stacks.

    The kept rows are the runs between the dropped segments: slicing them
    beats a boolean row mask by an order of magnitude.
    """
    bounds = offsets.tolist()
    starts = [0] + [bounds[p + 1] for p in pos]
    stops = [bounds[p] for p in pos] + [bounds[-1]]
    runs = [slice(a, z) for a, z in zip(starts, stops) if z > a]
    sizes = np.delete(np.diff(offsets), pos)
    return (
        np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)]),
        *(np.concatenate([stack[run] for run in runs] or [stack[:0]]) for stack in stacks),
    )


# Single-owner, no lock: owned by one GIRCache and reached only under the
# router's serve lock.
class RegionIndex:
    """Contiguously stacked half-space rows and cone rays of many bounded
    regions.

    All regions share one dimensionality ``d``, the cache's query-space
    dimension. Entries are identified by the cache's integer keys;
    ``add``/``remove``/``clear`` maintain the stacks incrementally (append
    on add, segment splice on remove).
    """

    def __init__(self, d: int) -> None:
        if d <= 0:
            raise ValueError("dimensionality must be positive")
        self.d = int(d)
        self.clear()

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
        entry, at the cost of one ray enumeration here; without both the
        entry is always classified :data:`SCREEN_LP`. A ``kth_g`` that is
        not of shape ``(d,)`` is a ``ValueError``, raised before anything
        is written.
        """
        if polytope.d != self.d:
            raise ValueError(f"expected a {self.d}-d region, got {polytope.d}-d")
        if polytope.m == 0:
            raise ValueError("cannot index a constraint-free region")
        if key in self._keys:
            raise KeyError(f"key {key} already indexed")
        if kth_g is not None:
            kth_g = np.asarray(kth_g, dtype=np.float64)
            if kth_g.shape != (self.d,):
                raise ValueError(f"kth_g must have shape ({self.d},), got {kth_g.shape}")
        R = None
        if kth_g is not None and interior is not None:
            R = polytope.cone_rays(np.asarray(interior, dtype=np.float64))
        if R is None:
            # Unit-sum like a real ray, so the max(r) divisor stays positive;
            # the NaN k-th row marks the entry as always LP.
            R, kth_g = np.full((1, self.d), 1.0 / self.d), np.full(self.d, np.nan)
            rdots = np.zeros(1)
        else:
            rdots = R @ kth_g
        A_n, b_n = polytope.normalized_halfspaces()
        self._A = np.concatenate([self._A, A_n])
        self._b = np.concatenate([self._b, b_n])
        self._offsets = np.append(self._offsets, self._offsets[-1] + polytope.m)
        self._R = np.concatenate([self._R, R])
        self._rdots = np.concatenate([self._rdots, rdots])
        self._ray_offsets = np.append(self._ray_offsets, self._ray_offsets[-1] + len(R))
        self._kth = np.concatenate([self._kth, kth_g[None]])
        self._keys.append(key)

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
        drop = [key for key in dict.fromkeys(keys) if key in self._keys]
        if not drop:
            return 0
        # ``list.index`` finds each dropped key's row segment without a
        # Python pass over every indexed key (an LRU eviction drops one).
        pos = sorted(self._keys.index(key) for key in drop)
        self._offsets, self._A, self._b = _splice(self._offsets, pos, self._A, self._b)
        self._ray_offsets, self._R, self._rdots = _splice(
            self._ray_offsets, pos, self._R, self._rdots
        )
        self._kth = np.delete(self._kth, pos, axis=0)
        for i in reversed(pos):
            del self._keys[i]
        return len(drop)

    @sanitize.mutates
    def clear(self) -> None:
        d = self.d
        self._keys: list[int] = []
        # Membership rows: entry ``i`` owns rows ``offsets[i]:offsets[i+1]``.
        self._A = np.empty((0, d), dtype=np.float64)
        self._b = np.empty(0, dtype=np.float64)
        self._offsets = np.zeros(1, dtype=np.int64)
        # Screen rays and their ``R @ g(p_k)``, segmented the same way by
        # ``ray_offsets``, and per entry its k-th g-image: a NaN row for an
        # entry the screen leaves to the LP.
        self._R = np.empty((0, d), dtype=np.float64)
        self._rdots = np.empty(0, dtype=np.float64)
        self._ray_offsets = np.zeros(1, dtype=np.int64)
        self._kth = np.empty((0, d), dtype=np.float64)

    # -- membership -----------------------------------------------------------

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

    @sanitize.reads
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
        point_g = np.asarray(point_g, dtype=np.float64)
        if point_g.shape != (self.d,):
            raise ValueError(f"point_g must have shape ({self.d},)")
        n = len(self._keys)
        codes = np.full(n, SCREEN_LP, dtype=np.int8)
        if n == 0:
            return codes
        eligible = ~np.isnan(self._kth).any(axis=1)
        gap = self._R @ point_g - self._rdots  # δ · r, one value per ray
        m = kernels.segmented_max(gap, self._ray_offsets)
        s = kernels.segmented_max(gap / self._R.max(axis=1), self._ray_offsets)
        delta = point_g[None, :] - self._kth  # NaN rows for ineligible entries
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
