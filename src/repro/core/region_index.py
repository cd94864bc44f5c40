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
rows, and an admission into a full cache splices out the LRU entry and
appends the new one in that same pass (``add(..., evict=)``): one copy
of each stack. Regions are immutable, so nothing is ever recomputed;
:attr:`RegionIndex.version` counts the mutations, for callers that keep
a membership matrix across them.

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


def _kept(n: int, pos: list[int]) -> list[tuple[int, int]]:
    """The runs ``[a, z)`` of entry positions ``0 … n − 1`` left when the
    sorted positions ``pos`` are cut out."""
    return [(a, z) for a, z in zip([0] + [p + 1 for p in pos], pos + [n]) if z > a]


def _splice(
    offsets: np.ndarray, keep: list[tuple[int, int]], stacks: tuple, added: tuple | None
) -> tuple:
    """Keep the row segments of the entry runs ``keep`` (:func:`_kept`) of
    ``stacks``, whose entry ``i`` owns rows ``offsets[i]:offsets[i+1]``,
    and append ``added`` (rows for each stack) as one new segment, unless
    it is None. Returns the new offsets followed by the new stacks, each
    built by one concatenate.

    The kept rows are the runs between the dropped segments: slicing them
    beats a boolean row mask by an order of magnitude, and the few numpy
    calls per run are what an admission pays for its bookkeeping.
    """
    pieces, runs, total = [offsets[:1]], [], 0
    for a, z in keep:
        start, stop = int(offsets[a]), int(offsets[z])
        shifted = offsets[a + 1 : z + 1]
        pieces.append(shifted if start == total else shifted + (total - start))
        runs.append(slice(start, stop))
        total += stop - start
    tails: list[list] = [[] for _ in stacks]
    if added is not None:
        pieces.append([total + len(added[0])])
        tails = [[rows] for rows in added]
    return (
        np.concatenate(pieces),
        *(
            np.concatenate([stack[run] for run in runs] + tail or [stack[:0]])
            for stack, tail in zip(stacks, tails)
        ),
    )


# Single-owner, no lock: owned by one GIRCache and reached only under the
# router's serve lock.
class RegionIndex:
    """Contiguously stacked half-space rows and cone rays of many bounded
    regions.

    All regions share one dimensionality ``d``, the cache's query-space
    dimension. Entries are identified by the cache's integer keys;
    ``add``/``remove_many``/``clear`` maintain the stacks incrementally (append
    on add, segment splice on remove, both in one pass for an add that
    evicts).
    """

    def __init__(self, d: int) -> None:
        if d <= 0:
            raise ValueError("dimensionality must be positive")
        self.d = int(d)
        #: Bumped by every mutation (add, remove_many, clear): a caller holding
        #: a membership matrix (:class:`~repro.core.caching.LookupWindow`)
        #: patches it when this moved.
        self.version = 0
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

    @property
    def depths(self) -> np.ndarray:
        """Each entry's depth (``add(..., depth=)``, the cache's answer
        length), aligned with :meth:`keys`; spliced with the stacks."""
        return self._depths

    @sanitize.mutates
    def add(
        self,
        key: int,
        polytope: Polytope,
        kth_g: np.ndarray | None = None,
        interior: np.ndarray | None = None,
        evict: int | None = None,
        depth: int = 0,
    ) -> None:
        """Index a region under ``key``.

        ``depth`` is the number of ranked records the entry's answer
        holds (:attr:`depths`).

        ``kth_g`` (the g-image of the entry's k-th result record) and
        ``interior`` (the entry's query vector, the interior point of the
        ray enumeration) enable the insert-invalidation prescreen for this
        entry, at the cost of one ray enumeration here; without both the
        entry is always classified :data:`SCREEN_LP`. ``evict`` names an
        indexed entry to drop in the same pass (the cache's LRU entry on
        capacity overflow): each stack is then copied once, not once to
        append and once to splice. A ``kth_g`` that is not of shape
        ``(d,)``, or an ``evict`` key that is not indexed, is an error
        raised before anything is written.
        """
        if polytope.d != self.d:
            raise ValueError(f"expected a {self.d}-d region, got {polytope.d}-d")
        if polytope.m == 0:
            raise ValueError("cannot index a constraint-free region")
        if key in self._keys:
            raise KeyError(f"key {key} already indexed")
        pos = [] if evict is None else [self._position(evict)]
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
        self._restack(
            pos, polytope.normalized_halfspaces(), (R, rdots), kth_g[None], depth
        )
        self._keys.append(key)

    def _position(self, key: int) -> int:
        """The segment position of an indexed key (``KeyError`` if none).
        ``list.index`` finds it without a Python pass over every key."""
        try:
            return self._keys.index(key)
        except ValueError:
            raise KeyError(f"key {key} is not indexed") from None

    def _restack(
        self,
        pos: list[int],
        rows: tuple | None = None,
        rays: tuple | None = None,
        kth: np.ndarray | None = None,
        depth: int | None = None,
    ) -> None:
        """Drop the entries at sorted positions ``pos`` from every stack
        and append one entry's ``(A, b)`` rows, ``(R, R @ g(p_k))`` rays,
        ``(1, d)`` k-th g-image and depth, if given: one concatenate per
        stack."""
        keep = _kept(len(self._keys), pos)
        self._offsets, self._A, self._b = _splice(
            self._offsets, keep, (self._A, self._b), rows
        )
        self._ray_offsets, self._R, self._rdots = _splice(
            self._ray_offsets, keep, (self._R, self._rdots), rays
        )

        def per_entry(stack: np.ndarray, added: np.ndarray | None) -> np.ndarray:
            # One row per entry: the entry runs are its row runs.
            tail = [] if added is None else [added]
            return np.concatenate([stack[a:z] for a, z in keep] + tail or [stack[:0]])

        self._kth = per_entry(self._kth, kth)
        self._depths = per_entry(
            self._depths, None if depth is None else np.array([depth], dtype=np.int64)
        )
        for i in reversed(pos):
            del self._keys[i]
        self.version += 1

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
        self._restack(sorted(self._position(key) for key in drop))
        return len(drop)

    @sanitize.mutates
    def clear(self) -> None:
        d = self.d
        self.version += 1
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
        self._depths = np.empty(0, dtype=np.int64)

    # -- membership -----------------------------------------------------------

    def membership_batch(
        self, X: np.ndarray, tol: float = MEMBERSHIP_TOL, first: int = 0
    ) -> np.ndarray:
        """Membership of a whole query batch at once.

        ``X`` is ``(q, d)``; returns boolean ``(q, n_entries − first)``,
        columns in :meth:`keys` order from entry ``first`` on (a caller
        patching a membership matrix evaluates only the entries added
        since). The entire batch-vs-cache evaluation is one matmul
        ``X @ A_allᵀ``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"X must have shape (q, {self.d})")
        if first >= len(self._keys):
            return np.zeros((X.shape[0], 0), dtype=bool)
        offsets = self._offsets[first:]
        start = offsets[0]
        return kernels.segmented_membership_batch(
            self._A[start:], self._b[start:], offsets - start, X, tol
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
