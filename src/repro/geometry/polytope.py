"""Convex polytopes in H-representation, for GIR regions.

The GIR is an intersection of half-spaces through the origin, clipped to the
query space ``[0,1]^d`` (Section 3.2): a polyhedral cone ∩ unit box. This
module wraps that as a general ``A x ≤ b`` polytope and provides, on top of
scipy's qhull bindings (the library the paper itself uses for half-space
intersection):

* a strictly interior point via the Chebyshev centre (linear program);
* vertex enumeration (``scipy.spatial.HalfspaceIntersection``), and the
  cheaper extreme rays of a GIR's cone (one intersection on the slice
  ``Σw = 1``);
* exact volume (qhull) — the paper's sensitivity measure is
  ``vol(GIR) / vol(query space)`` (Figure 14);
* per-axis intervals through a base point — the paper's *interactive
  projection* visualisation, which recovers the LIRs of [24] (Section 7.3);
* redundancy classification of constraints (which half-spaces actually
  bound the region — these carry the result perturbations of Section 3.2);
* uniform sampling, used by the test-suite's semantic checks.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
from repro.core.tolerances import (
    COEFFICIENT_EPS,
    CONTAINMENT_TOL,
    DEGENERATE_RADIUS,
    EXACT_TOL,
    MEMBERSHIP_TOL,
)

__all__ = ["Polytope"]

_DEGENERATE_RADIUS = DEGENERATE_RADIUS


class Polytope:
    """The region ``{x : A x ≤ b}``.

    Rows of ``A`` keep their index identity so callers can map facet-ness
    back to the half-space (and hence the record pair) that produced each
    row. Use :meth:`from_unit_box` / :meth:`with_constraints` to build.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray) -> None:
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise ValueError("need A of shape (m, d) and b of shape (m,)")
        self.A = A
        self.b = b
        self._cheb: tuple[np.ndarray, float] | None = None
        self._vertices: np.ndarray | None = None
        self._normalized: tuple[np.ndarray, np.ndarray] | None = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_unit_box(cls, d: int) -> "Polytope":
        """The query space ``[0, 1]^d``."""
        eye = np.eye(d)
        A = np.vstack([eye, -eye])
        b = np.concatenate([np.ones(d), np.zeros(d)])
        return cls(A, b)

    @classmethod
    def intersection(cls, polytopes: "Sequence[Polytope]") -> "Polytope":
        """Intersection of several polytopes over the same query space.

        Pure row stacking: the result's constraint rows are the rows of
        every input in order (``polytopes[0]`` first), so callers that
        track row identity (e.g. via an offset) can still map rows back to
        their source. Redundant duplicates — such as each input's unit-box
        rows — are kept; they cost a few extra matvec rows but preserve
        the identity bookkeeping. This is the primitive behind the sharded
        serving tier's cross-shard region merge: the global result is
        stable wherever *every* shard's local region holds (plus the
        merge-order half-spaces the cluster adds on top).
        """
        polys = list(polytopes)
        if not polys:
            raise ValueError("need at least one polytope to intersect")
        d = polys[0].d
        if any(p.d != d for p in polys):
            raise ValueError("all polytopes must share one dimensionality")
        if len(polys) == 1:
            return cls(polys[0].A.copy(), polys[0].b.copy())
        return cls(
            np.vstack([p.A for p in polys]),
            np.concatenate([p.b for p in polys]),
        )

    def with_constraints(self, normals: np.ndarray) -> "Polytope":
        """Intersect with half-spaces ``normal · x ≥ 0`` (GIR conditions).

        ``normals`` is ``(m, d)``; rows are appended in order after the
        existing rows, preserving index identity.
        """
        normals = np.atleast_2d(np.asarray(normals, dtype=np.float64))
        if normals.size == 0:
            return Polytope(self.A.copy(), self.b.copy())
        A = np.vstack([self.A, -normals])
        b = np.concatenate([self.b, np.zeros(normals.shape[0])])
        return Polytope(A, b)

    @property
    def d(self) -> int:
        return int(self.A.shape[1])

    @property
    def m(self) -> int:
        """Number of constraints."""
        return int(self.A.shape[0])

    # -- byte serialisation ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Exact little-endian serialisation of the H-representation.

        Layout: ``<qq`` (m, d) header followed by the ``A`` rows and the
        ``b`` vector as ``<f8``. The round trip through :meth:`from_bytes`
        is bit-exact — row order and every float64 payload are preserved —
        which is what lets the sharded cluster's process backend ship GIR
        regions across the wire without perturbing the merged-region
        geometry (see :mod:`repro.cluster.wire` for framing/versioning).
        """
        return (
            struct.pack("<qq", self.m, self.d)
            + np.ascontiguousarray(self.A, dtype="<f8").tobytes()
            + np.ascontiguousarray(self.b, dtype="<f8").tobytes()
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Polytope":
        """Reconstruct a polytope serialised by :meth:`to_bytes`.

        Malformed payloads raise :class:`ValueError`.
        """
        if len(payload) < 16:
            raise ValueError(
                f"polytope payload of {len(payload)} bytes is shorter than "
                f"the 16-byte header"
            )
        m, d = struct.unpack_from("<qq", payload, 0)
        if m < 0 or d <= 0:
            raise ValueError(f"malformed polytope header (m={m}, d={d})")
        need = 16 + 8 * m * d + 8 * m
        if len(payload) != need:
            raise ValueError(
                f"polytope payload of {len(payload)} bytes, expected {need}"
            )
        A = np.frombuffer(payload, dtype="<f8", count=m * d, offset=16)
        b = np.frombuffer(payload, dtype="<f8", count=m, offset=16 + 8 * m * d)
        return cls(A.reshape(m, d).copy(), b.copy())

    # -- membership ----------------------------------------------------------------

    def normalized_halfspaces(self) -> tuple[np.ndarray, np.ndarray]:
        """``(A_n, b_n)`` with every row of ``A`` scaled to unit norm (rows of
        zero norm are kept as-is).

        Membership tests use these so the tolerance is *norm-relative*: with
        the raw rows, ``A x ≤ b + tol`` makes nearness-to-a-facet depend on
        the row's scale — a half-space built from two nearly coincident
        records (tiny normal) would accept points far beyond its facet while
        a rescaled copy of the same region would reject them. Computed once
        and cached; the arrays are shared (read-only by convention) with
        :class:`repro.core.region_index.RegionIndex`, which stacks them so
        one global tolerance applies across all cached regions.
        """
        if self._normalized is None:
            norms = np.linalg.norm(self.A, axis=1)
            scale = np.where(norms > 0.0, norms, 1.0)
            self._normalized = (self.A / scale[:, None], self.b / scale)
        return self._normalized

    def contains(self, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        """Membership with a norm-relative tolerance (see
        :meth:`normalized_halfspaces`)."""
        x = np.asarray(x, dtype=np.float64)
        A_n, b_n = self.normalized_halfspaces()
        return bool((A_n @ x <= b_n + tol).all())

    def contains_batch(self, X: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Vectorized membership of many points at once.

        ``X`` is ``(m, d)``; returns a boolean ``(m,)`` array, row ``i``
        agreeing with ``contains(X[i])`` (same normalized rows, same
        tolerance). One matmul instead of ``m`` Python-level loops — the
        primitive behind the serving layer's batched cache lookup.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"X must have shape (m, {self.d})")
        A_n, b_n = self.normalized_halfspaces()
        return (X @ A_n.T <= b_n + tol).all(axis=1)

    def slacks(self, x: np.ndarray) -> np.ndarray:
        """Per-constraint slack ``b − A x`` (negative = violated)."""
        return self.b - self.A @ np.asarray(x, dtype=np.float64)

    # -- interior ------------------------------------------------------------------

    def chebyshev_center(self) -> tuple[np.ndarray, float]:
        """Centre and radius of the largest inscribed ball.

        Radius ``<= 0`` (practically, below ``1e-11``) means the region is
        empty or lower-dimensional.
        """
        if self._cheb is not None:
            return self._cheb
        norms = np.linalg.norm(self.A, axis=1)
        # Variables (x, r): maximise r  s.t.  A x + ||A_i|| r <= b, r >= 0.
        c = np.zeros(self.d + 1)
        c[-1] = -1.0
        A_ub = np.hstack([self.A, norms[:, None]])
        bounds = [(None, None)] * self.d + [(0, None)]
        res = linprog(c, A_ub=A_ub, b_ub=self.b, bounds=bounds, method="highs")
        if not res.success:
            self._cheb = (np.full(self.d, np.nan), -1.0)
        else:
            self._cheb = (res.x[: self.d], float(res.x[-1]))
        return self._cheb

    def is_empty(self, tol: float = _DEGENERATE_RADIUS) -> bool:
        """True when the region has no full-dimensional interior."""
        return self.chebyshev_center()[1] <= tol

    # -- vertices & volume ------------------------------------------------------------

    def vertices(self) -> np.ndarray:
        """Vertex set via qhull half-space intersection.

        Empty array when the region is empty or lower-dimensional.
        """
        if self._vertices is not None:
            return self._vertices
        centre, radius = self.chebyshev_center()
        if radius <= _DEGENERATE_RADIUS:
            self._vertices = np.empty((0, self.d))
            return self._vertices
        halfspaces = np.hstack([self.A, -self.b[:, None]])
        try:
            hs = HalfspaceIntersection(halfspaces, centre)
            verts = hs.intersections
        except QhullError:
            try:
                hs = HalfspaceIntersection(halfspaces, centre, qhull_options="QJ")
                verts = hs.intersections
            except QhullError:
                self._vertices = np.empty((0, self.d))
                return self._vertices
        verts = verts[np.isfinite(verts).all(axis=1)]
        # Deduplicate (qhull reports one point per facet-intersection).
        if len(verts):
            verts = np.unique(np.round(verts, 12), axis=0)
        self._vertices = verts
        return self._vertices

    def starts_with_unit_box(self) -> bool:
        """Whether the leading ``2d`` rows are exactly :meth:`from_unit_box`'s
        (bit-identical, as every GIR assembly writes them)."""
        box = Polytope.from_unit_box(self.d)
        return (
            self.m >= box.m
            and np.array_equal(self.A[: box.m], box.A)
            and np.array_equal(self.b[: box.m], box.b)
        )

    def cone_rays(self, interior: np.ndarray) -> np.ndarray | None:
        """Unit-sum extreme rays of the cone this region cuts from the box.

        Applies to the GIR shape only: the unit-box rows first, then rows
        that are all homogeneous (``b = 0``), so the region is the cone
        ``{w ≥ 0, A' w ≤ 0}`` cut by ``w ≤ 1``. ``interior`` (the entry's
        query vector) must lie strictly inside every homogeneous row,
        ``w ≥ 0`` included; rows with a zero normal constrain nothing and
        are skipped. The rays are the vertices of the cone's slice
        ``Σw = 1``: one (d−1)-dimensional half-space intersection, or the
        closed-form interval for ``d = 2`` (Qhull cannot work in 1-D).

        Returns ``(n_rays, d)``, or ``None`` when the region is not of that
        shape, the interior point is not strictly inside, or Qhull fails —
        callers then fall back to an LP.
        """
        d = self.d
        if not self.starts_with_unit_box() or self.b[2 * d :].any():
            return None
        cone = np.vstack([-np.eye(d), self.A[2 * d :]])
        norms = np.linalg.norm(cone, axis=1)
        cone, norms = cone[norms > 0.0], norms[norms > 0.0]
        x = np.asarray(interior, dtype=np.float64)
        x = x / x.sum()
        if not (cone @ x < -_DEGENERATE_RADIUS * norms).all():
            return None
        if d == 1:
            return np.ones((1, 1))
        # On the slice, w_d = 1 − Σ_{i<d} w_i: a row a · w ≤ 0 becomes
        # (a_{<d} − a_d) · x + a_d ≤ 0 over the first d − 1 coordinates.
        lin = cone[:, :-1] - cone[:, -1:]
        off = cone[:, -1]
        if d == 2:
            coef, rhs = lin[:, 0], -off
            lo = np.max(rhs[coef < 0.0] / coef[coef < 0.0])
            hi = np.min(rhs[coef > 0.0] / coef[coef > 0.0])
            t = np.array([lo, hi])
            return np.column_stack([t, 1.0 - t])
        try:
            hs = HalfspaceIntersection(np.column_stack([lin, off]), x[:-1])
        except QhullError:
            return None
        pts = hs.intersections
        if not pts.shape[0] or not np.isfinite(pts).all():
            return None
        return np.column_stack([pts, 1.0 - pts.sum(axis=1)])

    def volume(self) -> float:
        """Euclidean volume; 0 for empty / lower-dimensional regions.

        Falls back to Monte-Carlo estimation when qhull cannot triangulate
        the vertex set (near-degenerate high-dimensional regions), per the
        approximate-representation route of Section 7.2.
        """
        verts = self.vertices()
        if verts.shape[0] < self.d + 1:
            return 0.0
        try:
            return float(ConvexHull(verts).volume)
        except QhullError:
            try:
                return float(ConvexHull(verts, qhull_options="QJ").volume)
            except QhullError:
                return self.volume_monte_carlo()

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the region (one LP per bound)."""
        lo = np.empty(self.d)
        hi = np.empty(self.d)
        for axis in range(self.d):
            c = np.zeros(self.d)
            c[axis] = 1.0
            res = linprog(c, A_ub=self.A, b_ub=self.b, bounds=[(None, None)] * self.d, method="highs")
            lo[axis] = res.fun if res.success else np.nan
            res = linprog(-c, A_ub=self.A, b_ub=self.b, bounds=[(None, None)] * self.d, method="highs")
            hi[axis] = -res.fun if res.success else np.nan
        return lo, hi

    def volume_monte_carlo(
        self, samples: int = 200_000, rng: np.random.Generator | None = None
    ) -> float:
        """Monte-Carlo volume: rejection sampling in the bounding box.

        Used as the high-dimensional fallback where exact vertex
        triangulation becomes numerically fragile (Section 7.2 suggests
        exactly this approximation for hard regions).
        """
        if self.is_empty():
            return 0.0
        rng = rng or np.random.default_rng(0)
        lo, hi = self.bounding_box()
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            return 0.0
        extent = hi - lo
        box_volume = float(np.prod(extent))
        if box_volume <= 0:
            return 0.0
        pts = lo + rng.random((samples, self.d)) * extent
        inside = (pts @ self.A.T <= self.b + EXACT_TOL).all(axis=1)
        return box_volume * float(inside.mean())

    # -- linear optimisation ---------------------------------------------------------------

    def maximize(self, c: np.ndarray) -> float:
        """Maximum of the linear objective ``c · x`` over the region.

        Returns ``-inf`` for an infeasible (empty) region and ``+inf``
        when the objective is unbounded over it. This is the primitive
        behind the dynamic engine's halfspace-intersection invalidation
        test: an inserted record threatens a cached GIR iff the score gap
        to the k-th result record is positive somewhere in the region,
        i.e. iff ``maximize(g(p_new) − g(p_k)) > 0``.
        """
        c = np.asarray(c, dtype=np.float64)
        if c.shape != (self.d,):
            raise ValueError(f"objective must have shape ({self.d},)")
        # HiGHS stops once every reduced cost is under its absolute dual
        # tolerance (1e-7), so an objective that small (an insert within
        # ~1e-7 of the k-th record) would stop at its first vertex. Solve
        # for c scaled to unit size by a power of two — exact both ways.
        scale = np.ldexp(1.0, int(np.frexp(np.abs(c).max())[1]))
        res = linprog(
            -c / scale,
            A_ub=self.A,
            b_ub=self.b,
            bounds=[(None, None)] * self.d,
            method="highs",
        )
        if res.status == 3:  # unbounded
            return float("inf")
        if not res.success:
            return float("-inf")
        return float(-res.fun) * scale

    # -- projections ---------------------------------------------------------------------

    def axis_interval(self, axis: int, base: np.ndarray) -> tuple[float, float]:
        """Range of coordinate ``axis`` when the other coordinates stay at
        ``base`` — the paper's interactive projection (Figure 13(b)), which
        equals the LIR of [24] for that axis.

        Returns an empty interval ``(nan, nan)`` if the line misses the
        region entirely.
        """
        base = np.asarray(base, dtype=np.float64)
        if base.shape != (self.d,):
            raise ValueError(f"base must have shape ({self.d},)")
        coeff = self.A[:, axis]
        rest = self.b - self.A @ base + coeff * base[axis]
        lo, hi = -np.inf, np.inf
        for a, r in zip(coeff, rest):
            if a > COEFFICIENT_EPS:
                hi = min(hi, r / a)
            elif a < -COEFFICIENT_EPS:
                lo = max(lo, r / a)
            elif r < -MEMBERSHIP_TOL:
                return (float("nan"), float("nan"))
        if lo > hi + EXACT_TOL:
            return (float("nan"), float("nan"))
        return (float(lo), float(hi))

    # -- facet classification -----------------------------------------------------------

    def facet_mask(self, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        """Boolean mask over constraint rows: True where the constraint is
        *non-redundant* (supports a facet of the region).

        Decided by one LP per row: maximise ``A_i x`` subject to all other
        constraints; the row is a facet iff the optimum exceeds ``b_i``.
        """
        m = self.m
        mask = np.zeros(m, dtype=bool)
        for i in range(m):
            keep = np.arange(m) != i
            res = linprog(
                -self.A[i],
                A_ub=self.A[keep],
                b_ub=self.b[keep] ,
                bounds=[(None, None)] * self.d,
                method="highs",
            )
            if res.status == 3:  # unbounded without this row => facet
                mask[i] = True
            elif res.success and -res.fun > self.b[i] + tol:
                mask[i] = True
        return mask

    # -- containment of another polytope ---------------------------------------------------

    def contains_polytope(self, other: "Polytope", tol: float = CONTAINMENT_TOL) -> bool:
        """True iff ``other ⊆ self`` (one LP per constraint of ``self``)."""
        if other.is_empty():
            return True
        for i in range(self.m):
            res = linprog(
                -self.A[i],
                A_ub=other.A,
                b_ub=other.b,
                bounds=[(None, None)] * self.d,
                method="highs",
            )
            if res.status == 3:
                return False
            if res.success and -res.fun > self.b[i] + tol:
                return False
        return True

    # -- sampling -------------------------------------------------------------------------

    def sample(self, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Random points inside the region (Dirichlet mixtures of vertices).

        Not uniform, but supported exactly on the region — sufficient for
        semantic spot checks. Returns ``(count, d)``; empty array if the
        region has no vertices.
        """
        rng = rng or np.random.default_rng(0)
        verts = self.vertices()
        if verts.shape[0] == 0:
            return np.empty((0, self.d))
        weights = rng.dirichlet(np.ones(verts.shape[0]), size=count)
        return weights @ verts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polytope(d={self.d}, m={self.m})"
