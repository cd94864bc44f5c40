"""The facet fan: incremental maintenance of hull facets incident to an apex.

This is the core data structure of the paper's FP algorithm (Section 6.3).
Instead of the full convex hull ``CH' = hull({p_k} ∪ D\\R)``, FP maintains
only the *star* of the apex ``p_k``: the facets of the hull that are
incident to it.

**The star can be maintained in isolation.** The apex is a vertex of every
partial hull: every inserted point scores strictly below it under the
query, so the query hyperplane through the apex supports the hull there.
A ridge that contains the apex is shared by exactly two facets, and both
contain the apex, so the star is closed under "neighbour across a ridge
through the apex". Inserting a point replaces the facets it sees (is
strictly above) by facets from the point to the horizon; a point below
every star facet sees none of them, so whatever it does to the remote
part of the hull it leaves the star as it was. A point above some star
facet changes the star exactly as it changes the hull: the visible star
facets go, and each horizon ridge through the apex — a ridge of a visible
star facet whose other facet is not visible — gains the facet spanned by
the ridge and the new point. Horizon ridges not through the apex create
facets that do not contain the apex and are not part of the star.

**Insertion order cannot change the critical set.** The final star is the
star of the apex in ``hull({apex} ∪ P)``, a function of the point *set*:
by the previous paragraph every insertion sequence maintains exactly the
star of the partial hull, and the last partial hull is the same for all
of them. (Records exactly coplanar with a facet through the apex — ties
the paper assumes away — make that facet a non-simplex; each order then
triangulates it its own way, and all of them bound the same region.)
What the order changes is the work. A point inserted while it
is not extreme is removed again later, and each removal is a rebuild;
:meth:`FacetFan.add_points` therefore always inserts the pending point
*highest above the current fan* (quickhull's choice) — that point is
extreme in the direction of the facet it is farthest from, so it is a
vertex of the final hull unless a later point shadows the whole facet.

**The beneath-every-facet cone only grows.** The set of points below all
star facets is the tangent cone of the partial hull at the apex; a larger
hull has a larger tangent cone. So a point or box that is below every
facet now stays below every facet, which is what lets ``add_points`` drop
the unseen part of a batch once, and FP's disk step prune an R-tree node
before the fan is final: the node's MBB lies in the tangent cone, whose
points induce only half-spaces implied by the fan's.

**The star over a known point set is a hull one dimension lower.** The
facets of ``hull({apex} ∪ T)`` through the apex are the facets of the
cone ``apex + cone(T − apex)``. When every ``p ∈ T`` scores strictly
below the apex under a direction ``q``, every ray ``p − apex`` points
into the open half-space below the apex's score hyperplane: the cone is
pointed, and each ray crosses the parallel hyperplane one unit below
exactly once, at ``u(p) = B(p − apex) / (−(p − apex) · q̂)`` in coordinates
``B`` of ``q̂⊥``. That section — the apex's *vertex figure* — is the
convex hull of the ``u(p)``, and the cone is the cone over it, face for
face: hull vertices of ``u`` are the records on extreme rays (the critical
records) and hull facets are the star's facets. :meth:`FacetFan.bootstrap`
takes both from one Qhull call in ``d − 1`` dimensions (the extreme values
of the scalar ``u`` when ``d = 2``: the paper's angular sweep), whatever
the order of ``T``. Qhull's verdict is not trusted: every candidate it did
not return as a vertex, and every candidate too close to the score
hyperplane for a well-scaled image (a tie with the apex has none), then
goes through ``add_points``, which inserts whatever lies above a facet.
Later points — FP's disk step — are inserted incrementally.

Storage: the inserted points live in one ``(n, d)`` array (a point's row
is its *slot*) and the facets in an integer ``(F, d − 1)`` array of
ascending vertex slots beside the stacked normals and offsets, so the
geometry of a batch of facets is one fancy index and one batched SVD, a
visibility test is one product, and a rebuild is three concatenations.
Both tests take row stacks only — :meth:`FacetFan.add_points` a batch of
points, :meth:`FacetFan.boxes_seen` a batch of boxes — and one point or
box is a batch of one row.
High dimensions produce thousands of incident facets (Figure 8(b)), which
makes this the difference between FP winning and losing the CPU comparison
of Figure 15.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from repro.geometry.predicates import EPS, affine_rank_basis

__all__ = ["FacetFan", "FanError"]

PointKey = Hashable


class FanError(RuntimeError):
    """Raised when fan invariants break (apex not a hull vertex)."""


def _drop_one(n: int) -> np.ndarray:
    """``(n, n − 1)`` index matrix: row ``j`` is ``arange(n)`` without ``j``."""
    return np.tile(np.arange(n), (n, 1))[~np.eye(n, dtype=bool)].reshape(n, n - 1)


class FacetFan:
    """Incrementally maintained star of facets around an apex point.

    Parameters
    ----------
    apex:
        The pinned point ``p_k`` (in data or g-space).
    eps:
        Sidedness tolerance.

    Usage: feed the known candidate points to :meth:`bootstrap` (which
    seeds the star from their vertex figure and then inserts the rest),
    then :meth:`add_points` for further points, and finally read
    :meth:`critical_keys`. :attr:`insertions` counts the rebuilds by
    :meth:`_insert`; the seed is not one.
    """

    def __init__(self, apex: np.ndarray, eps: float = EPS) -> None:
        apex = np.asarray(apex, dtype=np.float64)
        if apex.ndim != 1 or apex.shape[0] < 2:
            raise ValueError("apex must be a vector of dimension >= 2")
        self.apex = apex
        self.d = d = int(apex.shape[0])
        self.eps = eps
        self.insertions = 0
        self._keys: list[PointKey] = []  # slot -> key
        self._pts = np.empty((0, d))  # slot -> point
        self._verts = np.empty((0, d - 1), dtype=np.intp)
        self._normals = np.empty((0, d))
        self._offsets = np.empty(0)
        self._pos = np.empty((0, d))  # max(normal, 0), for MBB tests
        self._neg = np.empty((0, d))  # min(normal, 0)
        # The columns of a facet's vertex row that remain when one vertex
        # is dropped: its d − 1 ridges through the apex.
        self._ridge_cols = _drop_one(d - 1)
        self._interior: np.ndarray | None = None
        self._degenerate = False

    # -- storage --------------------------------------------------------------

    def facet_count(self) -> int:
        return int(self._verts.shape[0])

    def _store(self, keys: list[PointKey], pts: np.ndarray) -> int:
        """Append points; returns the slot of the first."""
        first = len(self._keys)
        self._keys.extend(keys)
        self._pts = np.concatenate([self._pts, pts])
        return first

    def _extend_facets(self, keep: np.ndarray, verts: np.ndarray) -> tuple:
        """Replace the facets outside the mask ``keep`` by the non-flat
        ones among ``verts``; returns the geometry added and the mask."""
        normals, offsets, ok = self._facet_geometry(verts)
        # Degenerate slivers are skipped; the eps-tolerance of the
        # neighbouring facets covers the gap (joggle-style resolution).
        verts, normals, offsets = verts[ok], normals[ok], offsets[ok]
        self._verts = np.concatenate([self._verts[keep], verts])
        self._normals = np.concatenate([self._normals[keep], normals])
        self._offsets = np.concatenate([self._offsets[keep], offsets])
        self._pos = np.maximum(self._normals, 0.0)
        self._neg = np.minimum(self._normals, 0.0)
        return normals, offsets, ok

    def _facet_geometry(
        self, verts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hyperplanes through the apex and each row of vertex slots,
        oriented away from the interior reference, in one batched SVD;
        the mask is false where the vertices are affinely flat."""
        assert self._interior is not None
        _, _, vt = np.linalg.svd(self._pts[verts] - self.apex)
        normals = vt[:, -1, :]  # null-space direction per facet
        offsets = normals @ self.apex
        sides = normals @ self._interior - offsets
        flip = sides > 0
        normals[flip] = -normals[flip]
        offsets[flip] = -offsets[flip]
        return normals, offsets, np.abs(sides) > FACET_SIDE_TOL

    # -- construction -------------------------------------------------------

    def bootstrap(
        self, keys: list[PointKey], pts: np.ndarray, direction: np.ndarray
    ) -> None:
        """Initialise the fan from candidate ``keys`` / ``(m, d)`` points.

        ``direction`` supports the hull at the apex: no candidate scores
        above the apex under it. The fan is seeded with the vertex figure
        of the candidates strictly below (:meth:`_vertex_figure`) — or,
        when they form no hull, with the first ``d`` candidates affinely
        independent of the apex — and every other candidate is then
        inserted with :meth:`add_points`. Candidates that span fewer than
        ``d`` dimensions leave a lower-dimensional fan: ``facets`` stays
        empty and *every* candidate is recorded as critical (a safe
        fallback — their half-spaces are simply all kept).
        """
        keys = list(keys)
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, self.d)
        basis_idx = affine_rank_basis(self.apex, pts, self.d)
        if len(basis_idx) < self.d:
            # Degenerate input: no full-dimensional hull exists. Keep every
            # candidate as critical — correct, merely unpruned.
            self._store(keys, pts)
            self._degenerate = True
            return
        figure = self._vertex_figure(pts, direction)
        if figure is None or not self._seed(keys, pts, *figure):
            figure = np.asarray(basis_idx), _drop_one(self.d)
            if not self._seed(keys, pts, *figure):
                raise FanError("initial simplex produced a flat facet")
        rest = np.ones(len(keys), dtype=bool)
        rest[figure[0]] = False
        self.add_points([k for k, r in zip(keys, rest) if r], pts[rest])

    def _vertex_figure(
        self, pts: np.ndarray, direction: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The star of the apex over ``pts`` from one hull call: ascending
        indices of the candidates on extreme rays, and the facets as rows
        of ``d − 1`` ascending positions in that index array. ``None``
        when the strictly-below candidates form no ``(d − 1)``-dimensional
        hull (see the module docstring for the construction)."""
        q = direction / max(float(np.linalg.norm(direction)), NORM_FLOOR)
        offsets = pts - self.apex
        depth = -(offsets @ q)
        strict = np.flatnonzero(
            depth > STRICT_BELOW_TOL * np.linalg.norm(offsets, axis=1)
        )
        if strict.shape[0] < self.d:
            return None
        # Rows 1.. of the right singular vectors of q span its orthogonal
        # complement: coordinates on the hyperplane one unit below the apex.
        plane = np.linalg.svd(q[None, :])[2][1:]
        u = (offsets[strict] @ plane.T) / depth[strict, None]
        if self.d == 2:
            # The paper's angular sweep: the two extreme-angle records.
            ends = np.array([u.argmin(), u.argmax()])
            if ends[0] == ends[1]:
                return None
            return strict[np.sort(ends)], np.array([[0], [1]])
        try:
            hull = ConvexHull(u)
        except QhullError:
            return None
        vertices = np.sort(hull.vertices)
        facets = np.sort(np.searchsorted(vertices, hull.simplices), axis=1)
        return strict[vertices], facets

    def _seed(
        self, keys: list[PointKey], pts: np.ndarray, idx: np.ndarray, verts: np.ndarray
    ) -> bool:
        """Make candidates ``idx`` the stored points and ``verts`` (rows of
        positions in ``idx``) the facets; False if any facet is flat."""
        self._keys = [keys[i] for i in idx.tolist()]
        self._pts = pts[idx]
        self._interior = np.vstack([self.apex[None, :], self._pts]).mean(axis=0)
        none = np.zeros(self.facet_count(), dtype=bool)
        return bool(self._extend_facets(none, verts)[2].all())

    # -- incremental update (Section 6.3.1) -----------------------------------

    @property
    def degenerate(self) -> bool:
        return self._degenerate

    def add_points(self, keys: list[PointKey], pts: np.ndarray) -> bool:
        """Insert a batch of points; returns True iff the fan changed.

        The ``(m, F)`` height matrix of the pending points over the facets
        is computed once and then kept current: an insertion slices away
        the columns of the facets it removed and appends one product for
        the facets it created. Points below every facet are dropped up
        front (they stay below, see the module docstring); of the rest,
        the one highest above the fan is inserted next.
        """
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, self.d)
        if self._degenerate:
            self._store(list(keys), pts)
            return True
        if not self.facet_count():
            raise FanError("bootstrap the fan before adding points")
        heights = kernels.facet_heights(pts, self._normals, self._offsets)
        seen = np.flatnonzero((heights > self.eps).any(axis=1))
        pts, heights = pts[seen], heights[seen]
        changed = False
        while heights.shape[0]:
            top = heights.max(axis=1)
            i = int(top.argmax())
            if not top[i] > self.eps:
                break
            above = heights[i] > self.eps
            normals, offsets = self._insert(keys[seen[i]], pts[i], above)
            heights = np.concatenate(
                [heights[:, ~above], kernels.facet_heights(pts, normals, offsets)],
                axis=1,
            )
            heights[i] = -np.inf  # inserted: never pending again
            changed = True
        return changed

    def _insert(
        self, key: PointKey, point: np.ndarray, above: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The paper's update for a point that sees the facets ``above``
        (``F_v``): find the horizon ridges *incident to the apex* (ridges
        of ``F_v`` facets shared with unseen facets), drop ``F_v`` and
        connect the point to each horizon ridge. Returns the normals and
        offsets of the facets created."""
        # Vertex rows are ascending, so equal ridges are equal rows. A ridge
        # seen by exactly one visible facet borders an unseen facet.
        visible = self._verts[above]
        ridges = visible[:, self._ridge_cols].reshape(
            visible.shape[0] * (self.d - 1), self.d - 2
        )
        if ridges.shape[1]:
            ridges = ridges[np.lexsort(ridges.T)]
        same = (ridges[1:] == ridges[:-1]).all(axis=1)
        once = np.ones(ridges.shape[0], dtype=bool)
        once[1:] &= ~same
        once[:-1] &= ~same
        horizon = ridges[once]
        if not horizon.shape[0]:
            raise FanError(
                "no horizon ridge: the apex is not a hull vertex — inserted "
                "points must score strictly below the apex under the query"
            )
        # The new slot is the largest, so appending it keeps rows ascending.
        slot = self._store([key], point[None, :])
        new = np.concatenate(
            [horizon, np.full((horizon.shape[0], 1), slot, dtype=np.intp)], axis=1
        )
        normals, offsets, _ = self._extend_facets(~above, new)
        self.insertions += 1
        return normals, offsets

    # -- queries ----------------------------------------------------------------

    def boxes_seen(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Can any point of each box ``[lo, hi]`` lie above some fan facet?
        ``los`` / ``his`` are ``(m, d)`` row stacks; a False row is an
        R-tree node FP's disk step prunes (Sections 6.2 and 6.3.2)."""
        if self._degenerate:
            return np.ones(his.shape[0], dtype=bool)
        return kernels.boxes_any_above(
            self._pos, self._neg, self._offsets, his, los, self.eps
        )

    def critical_keys(self) -> set[PointKey]:
        """Keys of the records incident to the maintained facets — the
        paper's *critical records* (plus every candidate in the degenerate
        fallback)."""
        if self._degenerate:
            return set(self._keys)
        return {self._keys[s] for s in np.unique(self._verts).tolist()}


# Imported at the bottom: repro.core's package init transitively imports
# this module (via phase2_fp), so a top-of-module import would be circular
# whenever the geometry layer loads first. By this point FacetFan exists
# and the re-entrant import succeeds.
from repro.core import kernels  # noqa: E402

# Leaf constants module, but imported down here with the kernels import:
# `repro.core.tolerances` still triggers repro.core's package init, which
# re-enters this module (same cycle as above).
from repro.core.tolerances import (  # noqa: E402
    FACET_SIDE_TOL,
    NORM_FLOOR,
    STRICT_BELOW_TOL,
)
