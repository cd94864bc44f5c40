"""Tests for the FP facet fan (incident-facet maintenance).

The defining property (Section 6.1): the fan's critical records must carry
the same constraint information as the full hull ``CH' = hull({apex} ∪ P)``
— i.e. the normal cone of the apex computed from fan vertices equals the
one computed from all of ``P``.
"""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from repro.core import kernels
from repro.geometry.incident_facets import FacetFan, FanError


def make_apex_and_points(rng, n, d):
    """Random points plus an apex that beats them all under weights w."""
    w = rng.random(d) * 0.8 + 0.2
    pts = rng.random((n, d)) * 0.8
    apex = np.full(d, 0.95)
    assert (pts @ w < apex @ w).all()
    return apex, pts, w


def incident_vertices_via_qhull(apex, pts) -> set[int]:
    """Oracle: indices of points on CH' facets incident to the apex."""
    all_pts = np.vstack([apex[None, :], pts])
    hull = ConvexHull(all_pts)
    out: set[int] = set()
    for simplex in hull.simplices:
        if 0 in simplex:
            out |= {int(v) - 1 for v in simplex if v != 0}
    return out


class TestFanBasics:
    def test_initial_simplex_facets(self, rng):
        apex, pts, w = make_apex_and_points(rng, 3, 3)
        fan = FacetFan(apex)
        fan.bootstrap(list(range(len(pts))), pts, w)
        assert fan.facet_count() == 3  # star of a simplex apex
        assert fan.critical_keys() == {0, 1, 2}

    def test_interior_point_ignored(self, rng):
        apex = np.array([1.0, 1.0, 1.0])
        base = np.eye(3) * 0.8
        fan = FacetFan(apex)
        fan.bootstrap([0, 1, 2], base, np.ones(3))
        assert not fan.add_points([99], np.array([[0.2, 0.2, 0.2]]))
        assert 99 not in fan.critical_keys()

    def test_extending_point_updates_fan(self):
        apex = np.array([1.0, 1.0, 1.0])
        base = np.eye(3) * 0.5
        fan = FacetFan(apex)
        fan.bootstrap([0, 1, 2], base, np.ones(3))
        assert fan.add_points([99], np.array([[0.9, 0.05, 0.05]]))
        assert 99 in fan.critical_keys()

    def test_degenerate_candidates_keep_all(self):
        """Candidates spanning < d dims fall back to keeping everything."""
        apex = np.array([1.0, 1.0, 1.0])
        flat = np.array([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0]])
        fan = FacetFan(apex)
        fan.bootstrap([0, 1], flat, np.ones(3))
        assert fan.degenerate
        assert fan.critical_keys() == {0, 1}
        p = np.array([[0.1, 0.1, 0.1]])
        assert fan.boxes_seen(p, p).all()  # everything is critical

    def test_add_before_bootstrap_raises(self):
        fan = FacetFan(np.array([1.0, 1.0]))
        with pytest.raises(FanError, match="bootstrap"):
            fan.add_points([0], np.array([[0.5, 0.5]]))

    def test_rejects_tiny_apex(self):
        with pytest.raises(ValueError):
            FacetFan(np.array([1.0]))


class TestFanMatchesFullHull:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [30, 120])
    def test_criticals_match_qhull_incident_vertices(self, rng, d, n):
        apex, pts, w = make_apex_and_points(rng, n, d)
        fan = FacetFan(apex)
        fan.bootstrap(list(range(len(pts))), pts, w)
        assert not fan.degenerate
        expected = incident_vertices_via_qhull(apex, pts)
        assert fan.critical_keys() == expected
        # Every candidate is strictly below the apex, so the vertex-figure
        # seed is already the star: nothing is left to insert.
        assert fan.insertions == 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_insertion_order_invariance(self, rng, d):
        apex, pts, w = make_apex_and_points(rng, 60, d)
        orders = [np.arange(60), np.arange(60)[::-1], rng.permutation(60)]
        results = []
        for order in orders:
            fan = FacetFan(apex)
            fan.bootstrap(order.tolist(), pts[order], w)
            results.append(fan.critical_keys())
        assert results[0] == results[1] == results[2]

    def test_normal_cone_property(self, rng):
        """q' satisfying all fan constraints ⇒ apex beats every point."""
        d = 4
        apex, pts, w = make_apex_and_points(rng, 100, d)
        fan = FacetFan(apex)
        fan.bootstrap(list(range(len(pts))), pts, w)
        crits = sorted(fan.critical_keys())
        normals = np.array([apex - pts[c] for c in crits])
        for _ in range(200):
            q = rng.random(d)
            if (normals @ q >= 0).all():
                assert (pts @ q <= apex @ q + 1e-9).all()


def grown_from_simplex(apex, pts, w) -> FacetFan:
    """Reference: the first d candidates (affinely independent here) as
    the seed, everything else through ``add_points``."""
    d = apex.shape[0]
    fan = FacetFan(apex)
    fan.bootstrap(list(range(d)), pts[:d], w)
    fan.add_points(list(range(d, len(pts))), pts[d:])
    return fan


class TestVertexFigureSeedEdges:
    def test_candidate_tying_the_apex_score(self):
        """A zero-weight axis lets a non-dominated record tie the apex: it
        has no image in the vertex figure and is inserted afterwards."""
        apex = np.array([0.5, 0.5, 0.5])
        w = np.array([1.0, 1.0, 0.0])
        pts = np.array([
            [0.45, 0.1, 0.2], [0.1, 0.45, 0.3], [0.2, 0.2, 0.1],
            [0.3, 0.3, 0.6], [0.4, 0.05, 0.7], [0.05, 0.4, 0.05],
            [0.5, 0.5, 0.9],  # ties: (p − apex) · w = 0, larger on axis 2
        ])
        assert (pts[6] - apex) @ w == 0.0
        fan = FacetFan(apex)
        fan.bootstrap(list(range(7)), pts, w)
        reference = grown_from_simplex(apex, pts, w)
        assert not fan.degenerate
        assert fan.critical_keys() == reference.critical_keys()
        assert fan.critical_keys() == incident_vertices_via_qhull(apex, pts)
        assert fan.facet_count() == reference.facet_count()
        assert 6 in fan.critical_keys() and fan.insertions == 1

    def test_fewer_than_d_strict_candidates(self):
        """Two strict candidates cannot span a 2-d vertex figure in d = 3:
        the seed is the basis simplex over all three candidates."""
        apex = np.array([0.5, 0.5, 0.5])
        w = np.array([1.0, 1.0, 0.0])
        pts = np.array([[0.4, 0.1, 0.2], [0.1, 0.4, 0.3], [0.5, 0.5, 0.9]])
        fan = FacetFan(apex)
        fan.bootstrap([0, 1, 2], pts, w)
        assert not fan.degenerate
        assert fan.facet_count() == 3 and fan.insertions == 0
        assert fan.critical_keys() == {0, 1, 2}

    def test_two_dimensions_is_the_angular_sweep(self):
        """d = 2: the vertex figure is an interval; its two ends are the
        minimum- and maximum-angle records of the paper's sweep."""
        apex = np.array([0.9, 0.9])
        w = np.array([1.0, 1.0])
        pts = np.array([
            [0.5, 0.5],   # middle
            [0.95, 0.2],  # clockwise extreme
            [0.2, 0.95],  # anticlockwise extreme
            [0.6, 0.6],   # middle
        ])
        fan = FacetFan(apex)
        fan.bootstrap([0, 1, 2, 3], pts, w)
        assert fan.critical_keys() == {1, 2}
        assert fan.facet_count() == 2 and fan.insertions == 0
        assert fan.critical_keys() == grown_from_simplex(apex, pts, w).critical_keys()


class TestMBBInteraction:
    def test_mbb_below_all_facets_unseen(self):
        apex = np.array([1.0, 1.0])
        fan = FacetFan(apex)
        fan.bootstrap([0, 1], np.array([[0.9, 0.1], [0.1, 0.9]]), np.ones(2))
        lo, hi = np.array([[0.1, 0.1]]), np.array([[0.3, 0.3]])
        assert not fan.boxes_seen(lo, hi).any()

    def test_mbb_crossing_facet_seen(self):
        apex = np.array([1.0, 1.0])
        fan = FacetFan(apex)
        fan.bootstrap([0, 1], np.array([[0.6, 0.1], [0.1, 0.6]]), np.ones(2))
        lo, hi = np.array([[0.5, 0.5]]), np.array([[0.95, 0.95]])
        assert fan.boxes_seen(lo, hi).all()

    def test_mbb_see_is_sound_for_corners(self, rng):
        """A box is seen iff one of its 2^d corners is above some facet."""
        d = 3
        apex, pts, w = make_apex_and_points(rng, 50, d)
        fan = FacetFan(apex)
        fan.bootstrap(list(range(len(pts))), pts, w)
        los = rng.random((50, d)) * 0.5
        his = los + rng.random((50, d)) * 0.5  # some boxes reach above the fan
        seen = fan.boxes_seen(los, his)
        bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1  # (2^d, d)
        for lo, hi, box_seen in zip(los, his, seen):
            corners = np.where(bits, lo, hi)
            heights = kernels.facet_heights(corners, fan._normals, fan._offsets)
            assert box_seen == (heights > fan.eps).any()
        assert seen.any() and not seen.all()


class TestFanErrorConditions:
    def test_point_above_apex_breaks_fan(self):
        """A point scoring above the apex violates the precondition."""
        apex = np.array([0.5, 0.5])
        fan = FacetFan(apex)
        fan.bootstrap([0, 1], np.array([[0.45, 0.1], [0.1, 0.45]]), np.ones(2))
        with pytest.raises(FanError, match="hull vertex"):
            fan.add_points([99], np.array([[0.9, 0.9]]))
