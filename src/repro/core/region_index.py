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

Admission prescreen (read path)
-------------------------------

Even one matvec is avoidable for most *misses*. The index overlays a
coarse uniform grid on the unit query box (:class:`GridSignature`): when
an entry is added, the cells its region can possibly touch are registered
— decided per cell by the conservative box-vs-polytope corner test
``min over cell of (a · x) <= b + slack`` for every half-space row, which
over-approximates the region, so the construction admits **zero false
negatives**. A lookup hashes its weight vector to one cell (a handful of
multiply-adds plus one array read); if that cell is registered by no
entry, the vector provably lies in no cached region and the matvec is
skipped entirely — an O(1) certain miss. The registration slack covers
the membership tolerance plus the cushion of clipping the probe into the
unit box, and the fast path stands down for out-of-box probes and for
tolerances above :data:`GRID_SAFE_TOL`, which keeps the skip sound for
arbitrary polytopes and every supported ``tol``.

The segmented reductions run through :mod:`repro.core.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import sanitize
from repro.core import kernels
from repro.geometry.polytope import Polytope
from repro.core.tolerances import GRID_SAFE_TOL, GRID_SLACK, MEMBERSHIP_TOL, SCREEN_SAFETY

__all__ = [
    "RegionIndex",
    "GridSignature",
    "GRID_SAFE_TOL",
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


#: Grid registration slack (see :mod:`repro.core.tolerances`:
#: ``GRID_SLACK`` must dominate ``GRID_SAFE_TOL * (1 + sqrt(d))``;
#: both constants live there so the soundness pair cannot drift apart).
_GRID_SLACK = GRID_SLACK

#: Target total cell count of the grid; the per-axis resolution is the
#: largest ``g`` with ``g**d`` at or below this (at least 2 per axis).
_GRID_TARGET_CELLS = 4096


def default_grid_cells(d: int) -> int:
    """Cells per axis for dimensionality ``d`` (largest ``g`` with
    ``g**d <= _GRID_TARGET_CELLS``, floored at 2)."""
    g = max(2, int(round(_GRID_TARGET_CELLS ** (1.0 / d))))
    while g > 2 and g**d > _GRID_TARGET_CELLS:
        g -= 1
    return g


# repro: thread-owned[GridSignature] -- lives inside one RegionIndex and shares its single-owner discipline (probe counters mutate on reads)
class GridSignature:
    """Coarse uniform-grid negative filter over the unit query box.

    Every registered entry marks the grid cells its (slack-relaxed) region
    can intersect; a probe's cell having **zero** registrations proves the
    probe is in no entry's region. Registration over-approximates (per
    cell, per half-space row: the row's minimum over the cell box must not
    exceed ``b + slack`` — corner-separable, and tested top-down over a
    halving subdivision of the box so only boxes near the region are ever
    evaluated), so false negatives are impossible; false positives merely
    fall through to the exact membership matvec.
    """

    def __init__(self, d: int, cells_per_axis: int) -> None:
        self.d = int(d)
        self.g = int(cells_per_axis)
        if self.g < 2:
            raise ValueError("grid needs at least 2 cells per axis")
        self.n_cells = self.g**self.d
        #: Mixed-radix strides: cell id = sum_i idx_i * g**i.
        self._strides = self.g ** np.arange(self.d, dtype=np.int64)
        self._counts = np.zeros(self.n_cells, dtype=np.int64)
        #: Python-list mirror of ``_counts`` for the scalar lookup path
        #: (a list read is faster than a numpy scalar read).
        self._counts_list: list[int] = [0] * self.n_cells
        #: Memoized registered-cell ids per entry key (immutable per key).
        self._cells: dict[int, np.ndarray] = {}
        #: Lookups that consulted the grid / were answered "certain miss".
        self.probes = 0
        self.negatives = 0

    @cached_property
    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The box's subdivision, coarse to fine: every level halves each
        axis interval of the one before (an odd one splits unevenly, a
        single cell stays) down to the cells themselves. Per level: lower /
        upper corners of its boxes, ``(n_boxes, d)`` each, and each box's
        parent id in the level above. Box ids are mixed-radix in the level's
        per-axis interval count, so the finest level's ids are the cell ids
        and its corners ``digits / g`` and ``(digits + 1) / g``."""
        levels = []
        edges = np.array([0, self.g])  # interval boundaries, in cells
        while edges.shape[0] <= self.g:
            coarse = edges
            edges = np.union1d(coarse, (coarse[:-1] + coarse[1:]) // 2)
            n = edges.shape[0] - 1
            radix = n ** np.arange(self.d, dtype=np.int64)
            digits = (np.arange(n**self.d)[:, None] // radix[None, :]) % n
            # The coarse interval holding each fine interval's start.
            up = np.searchsorted(coarse, edges[:-1], side="right") - 1
            parent = up[digits] @ (coarse.shape[0] - 1) ** np.arange(self.d)
            lo = edges[digits].astype(np.float64) / self.g
            hi = edges[digits + 1].astype(np.float64) / self.g
            levels.append((lo, hi, parent))
        return levels

    def register(self, key: int, A_n: np.ndarray, b_n: np.ndarray) -> None:
        """Mark the cells the region ``A_n x <= b_n`` (slack-relaxed) can
        touch. Rows must be normalized so the slack is norm-relative.

        Top-down: only a surviving box's children are tested at the next
        level. A box's minimum is at most its children's, so no passing
        cell is lost, and the cells are decided by the same expression on
        the same corner values as testing all of them at once."""
        pos, neg = np.maximum(A_n, 0.0).T, np.minimum(A_n, 0.0).T
        bound = b_n + _GRID_SLACK
        alive = np.ones(1, dtype=bool)
        for lo, hi, parent in self._levels:
            cells = np.flatnonzero(alive[parent])
            # Min of a linear function over a box is corner-separable.
            mins = lo[cells] @ pos + hi[cells] @ neg
            cells = cells[(mins <= bound).all(axis=1)]
            alive = np.zeros(parent.shape[0], dtype=bool)
            alive[cells] = True
        self._cells[key] = cells
        self._counts[cells] += 1
        lst = self._counts_list
        for c in cells.tolist():
            lst[c] += 1

    def unregister(self, key: int) -> None:
        cells = self._cells.pop(key, None)
        if cells is not None:
            self._counts[cells] -= 1
            lst = self._counts_list
            for c in cells.tolist():
                lst[c] -= 1

    def clear(self) -> None:
        self._counts[:] = 0
        self._counts_list = [0] * self.n_cells
        self._cells.clear()

    def cell_of(self, x: np.ndarray) -> int:
        """Cell id of ``x`` clipped into the unit box."""
        g = self.g
        cell = 0
        stride = 1
        # Scalar loop on purpose: for the handful of coordinates involved,
        # Python float math is several times faster than a chain of tiny
        # numpy array ops — and this runs once per cache lookup.
        for xi in x.tolist():
            c = int(xi * g) if xi > 0.0 else 0
            if c >= g:
                c = g - 1
            cell += c * stride
            stride *= g
        return cell

    def is_certain_miss(self, x: np.ndarray, tol: float) -> bool:
        """True iff the grid *proves* ``x`` is in no registered region.

        Sound only for ``tol <= GRID_SAFE_TOL``; out-of-box probes (beyond
        ``tol`` past the unit box) are never decided by the grid, so the
        proof needs no assumption that regions carry unit-box rows.
        """
        if tol > GRID_SAFE_TOL:
            return False
        g = self.g
        hi = 1.0 + tol
        lo = -tol
        cell = 0
        stride = 1
        for xi in x.tolist():
            if xi < lo or xi > hi:
                return False
            c = int(xi * g) if xi > 0.0 else 0
            if c >= g:
                c = g - 1
            cell += c * stride
            stride *= g
        return self._counts_list[cell] == 0

    def certain_miss_mask(self, X: np.ndarray, tol: float) -> np.ndarray:
        """Vectorized :meth:`is_certain_miss` over ``(q, d)`` probes."""
        q = X.shape[0]
        if tol > GRID_SAFE_TOL:
            return np.zeros(q, dtype=bool)
        in_box = ((X >= -tol) & (X <= 1.0 + tol)).all(axis=1)
        idx = np.minimum(
            (np.clip(X, 0.0, 1.0) * self.g).astype(np.int64), self.g - 1
        )
        empty = self._counts[idx @ self._strides] == 0
        return in_box & empty

    def stats(self) -> dict[str, int]:
        return {
            "cells_per_axis": self.g,
            "cells_total": self.n_cells,
            "registered_cells": int(
                sum(len(c) for c in self._cells.values())
            ),
            "probes": self.probes,
            "negatives": self.negatives,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridSignature(d={self.d}, g={self.g}, "
            f"entries={len(self._cells)})"
        )


@dataclass
class _ScreenEntry:
    """Static insert-screen geometry of one cached region."""

    #: Unit-sum extreme rays of the region's cone, ``(n_rays, d)``.
    R: np.ndarray
    #: Per-ray ``R @ g(p_k)`` for the entry's k-th result record.
    rdots: np.ndarray
    #: g-image of the entry's k-th result record.
    kth_g: np.ndarray


# repro: thread-owned[RegionIndex] -- owned by one GIRCache; reached only under the router's serve lock (membership lazily materializes screen stacks)
class RegionIndex:
    """Contiguously stacked half-space rows of many bounded regions.

    All regions share one dimensionality ``d`` (the cache keeps one index
    per query-space dimension). Entries are identified by the cache's
    integer keys; ``add``/``remove``/``clear`` maintain the stacks
    incrementally (append on add, segment splice on remove).
    """

    def __init__(self, d: int, grid_cells: int | None = None) -> None:
        """``grid_cells`` is the admission grid's per-axis resolution:
        ``None`` picks :func:`default_grid_cells`, ``0`` disables the grid
        (every lookup runs the exact matvec — the pre-grid behaviour)."""
        if d <= 0:
            raise ValueError("dimensionality must be positive")
        self.d = int(d)
        if grid_cells is None:
            grid_cells = default_grid_cells(self.d)
        #: Admission-prescreen grid (``None`` = disabled).
        self.grid: GridSignature | None = (
            GridSignature(self.d, grid_cells) if grid_cells else None
        )
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
        if self.grid is not None:
            self.grid.register(key, A_n, b_n)
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
        drop = {key for key in keys if key in self._screen}
        if not drop:
            return 0
        keep_rows = np.ones(self.rows, dtype=bool)
        kept_keys: list[int] = []
        kept_counts: list[int] = []
        for idx, key in enumerate(self._keys):
            start, stop = int(self._offsets[idx]), int(self._offsets[idx + 1])
            if key in drop:
                keep_rows[start:stop] = False
                del self._screen[key]
                if self.grid is not None:
                    self.grid.unregister(key)
            else:
                kept_keys.append(key)
                kept_counts.append(stop - start)
        self._A = self._A[keep_rows]
        self._b = self._b[keep_rows]
        self._offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(kept_counts, dtype=np.int64)]
        )
        self._keys = kept_keys
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
        if self.grid is not None:
            self.grid.clear()

    def grid_stats(self) -> dict[str, int] | None:
        """Admission-grid counters (``None`` when the grid is disabled)."""
        return None if self.grid is None else self.grid.stats()

    # -- membership -----------------------------------------------------------

    @sanitize.mutates  # grid probe counters advance on every lookup
    def membership(self, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Boolean array over :meth:`keys`: which regions contain ``x``?

        One matvec over all stacked rows + one segment reduction —
        equivalent to calling ``contains`` per entry. When the admission
        grid proves the probe's cell empty the matvec is skipped entirely
        (an O(1) certain miss with all-False answer).
        """
        if not self._keys:
            return np.zeros(0, dtype=bool)
        x = np.asarray(x, dtype=np.float64)
        if self.grid is not None:
            self.grid.probes += 1
            if self.grid.is_certain_miss(x, tol):
                self.grid.negatives += 1
                return np.zeros(len(self._keys), dtype=bool)
        return kernels.segmented_membership(
            self._A, self._b, self._offsets, x, tol
        )

    @sanitize.mutates
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
        if self.grid is not None:
            self.grid.probes += X.shape[0]
            miss = self.grid.certain_miss_mask(X, tol)
            if miss.any():
                self.grid.negatives += int(miss.sum())
                out = np.zeros((X.shape[0], len(self._keys)), dtype=bool)
                survivors = ~miss
                if survivors.any():
                    out[survivors] = kernels.segmented_membership_batch(
                        self._A, self._b, self._offsets, X[survivors], tol
                    )
                return out
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
