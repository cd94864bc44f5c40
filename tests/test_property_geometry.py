"""Property-based tests on the geometric data structures.

Complements test_property_based.py (pipeline invariants) with randomized
checks on the facet fan and the polytope machinery themselves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from repro.core.phase2_fp import virtual_seeds
from repro.geometry.incident_facets import FacetFan
from repro.geometry.polytope import Polytope
from repro.geometry.predicates import affine_rank_basis

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def point_cloud(draw, min_n=12, max_n=80, min_d=2, max_d=4):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(min_d, max_d))
    rng = np.random.default_rng(seed)
    return rng.random((n, d))


@st.composite
def fan_candidates(draw):
    """An apex, candidate keys and points it outscores under the all-ones
    direction, and a permutation of them. ``duplicate`` and ``coplanar``
    (with the apex) candidates span fewer than d dimensions: the degenerate
    keep-everything fallback."""
    seed = draw(st.integers(0, 2**31 - 1))
    d = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(d + 2, 40))
    kind = draw(st.sampled_from(["general", "seeded", "duplicate", "coplanar"]))
    rng = np.random.default_rng(seed)
    apex = np.full(d, 1.2)
    pts = rng.random((n, d))
    if kind == "duplicate":
        pts[:] = pts[0]
    elif kind == "coplanar":
        pts[:, -1] = apex[-1]
    keys = list(range(n))
    if kind == "seeded":
        seed_keys, seeds = virtual_seeds(apex, np.zeros(d))
        keys, pts = keys + seed_keys, np.concatenate([pts, seeds])
    return apex, keys, pts, rng.permutation(len(keys)), kind in ("duplicate", "coplanar")


class TestFanProperties:
    @given(point_cloud(min_n=15, max_n=60))
    @SETTINGS
    def test_fan_equals_qhull_star(self, pts):
        d = pts.shape[1]
        apex = np.full(d, 1.2)  # strictly outscores every point under 1-vec
        fan = FacetFan(apex)
        fan.bootstrap(list(range(len(pts))), pts, np.ones(d))
        if fan.degenerate:
            return
        all_pts = np.vstack([apex[None, :], pts])
        hull = ConvexHull(all_pts)
        expected: set[int] = set()
        for simplex in hull.simplices:
            if 0 in simplex:
                expected |= {int(v) - 1 for v in simplex if v != 0}
        assert fan.critical_keys() == expected

    @given(fan_candidates())
    @SETTINGS
    def test_critical_set_ignores_order_and_batching(self, case):
        """The star is a function of the point set: seeded from the vertex
        figure in any candidate order, or grown from a basis simplex by
        ``add_points`` (farthest first) or one ``add_point`` at a time in
        the given order, the fan ends with the same critical keys and
        facets."""
        apex, keys, pts, perm, degenerate = case
        d = apex.shape[0]
        ones = np.ones(d)
        hull, permuted, grown, single = (FacetFan(apex) for _ in range(4))
        hull.bootstrap(keys, pts, ones)
        permuted.bootstrap([keys[i] for i in perm], pts[perm], ones)
        basis = affine_rank_basis(apex, pts, d)
        rest = [i for i in range(len(keys)) if i not in basis]
        for fan in (grown, single):
            # d candidates: their vertex figure is the simplex itself.
            fan.bootstrap([keys[i] for i in basis], pts[basis], ones)
        grown.add_points([keys[i] for i in rest], pts[rest])
        for i in rest:
            single.add_point(keys[i], pts[i])
        for fan in (hull, permuted, grown, single):
            assert fan.degenerate == degenerate
            assert fan.critical_keys() == hull.critical_keys()
            assert fan.facet_count() == hull.facet_count()
        assert hull.insertions == 0  # the seed is not a rebuild
        if degenerate:
            assert hull.critical_keys() == set(keys)

    @given(point_cloud(min_n=15, max_n=50))
    @SETTINGS
    def test_non_criticals_below_all_facets(self, pts):
        d = pts.shape[1]
        apex = np.full(d, 1.2)
        fan = FacetFan(apex)
        fan.bootstrap(list(range(len(pts))), pts, np.ones(d))
        if fan.degenerate:
            return
        crits = fan.critical_keys()
        for i, p in enumerate(pts):
            if i not in crits:
                assert not fan.sees(p)

    @given(point_cloud(min_n=15, max_n=50))
    @SETTINGS
    def test_normal_cone_constraints_sound(self, pts):
        """Inside the fan's normal cone the apex beats every point."""
        d = pts.shape[1]
        apex = np.full(d, 1.2)
        fan = FacetFan(apex)
        fan.bootstrap(list(range(len(pts))), pts, np.ones(d))
        crits = sorted(k for k in fan.critical_keys())
        if fan.degenerate or not crits:
            return
        normals = np.array([apex - pts[c] for c in crits])
        rng = np.random.default_rng(1)
        for q in rng.random((100, d)):
            if (normals @ q >= 0).all():
                assert (pts @ q <= apex @ q + 1e-9).all()


class TestPolytopeProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(1, 4))
    @SETTINGS
    def test_volume_between_zero_and_one(self, seed, d, m):
        rng = np.random.default_rng(seed)
        normals = rng.normal(size=(m, d))
        poly = Polytope.from_unit_box(d).with_constraints(normals)
        vol = poly.volume()
        assert -1e-12 <= vol <= 1.0 + 1e-9

    @given(st.integers(0, 2**31 - 1), st.integers(2, 4))
    @SETTINGS
    def test_chebyshev_centre_inside(self, seed, d):
        rng = np.random.default_rng(seed)
        normals = rng.normal(size=(2, d))
        poly = Polytope.from_unit_box(d).with_constraints(normals)
        centre, radius = poly.chebyshev_center()
        if radius > 1e-9:
            assert poly.contains(centre, tol=1e-9)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 4))
    @SETTINGS
    def test_vertices_satisfy_constraints(self, seed, d):
        rng = np.random.default_rng(seed)
        normals = rng.normal(size=(3, d))
        poly = Polytope.from_unit_box(d).with_constraints(normals)
        for v in poly.vertices():
            assert poly.contains(v, tol=1e-6)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 3))
    @SETTINGS
    def test_axis_interval_edges_inside(self, seed, d):
        rng = np.random.default_rng(seed)
        normals = rng.normal(size=(2, d))
        poly = Polytope.from_unit_box(d).with_constraints(normals)
        centre, radius = poly.chebyshev_center()
        if radius <= 1e-6:
            return
        for axis in range(d):
            lo, hi = poly.axis_interval(axis, centre)
            if np.isnan(lo):
                continue
            probe = centre.copy()
            for edge in (lo, hi):
                probe[axis] = edge
                assert poly.contains(probe, tol=1e-6)
