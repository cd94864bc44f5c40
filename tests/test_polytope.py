"""Tests for H-representation polytopes."""

import numpy as np
import pytest

from repro.geometry.polytope import Polytope


class TestUnitBox:
    def test_volume(self):
        for d in (2, 3, 4, 5):
            assert Polytope.from_unit_box(d).volume() == pytest.approx(1.0, rel=1e-9)

    def test_contains(self):
        box = Polytope.from_unit_box(3)
        assert box.contains(np.array([0.5, 0.5, 0.5]))
        assert box.contains(np.array([0.0, 1.0, 0.5]))
        assert not box.contains(np.array([1.1, 0.5, 0.5]))

    def test_chebyshev_center(self):
        centre, radius = Polytope.from_unit_box(2).chebyshev_center()
        assert np.allclose(centre, [0.5, 0.5])
        assert radius == pytest.approx(0.5)

    def test_vertices(self):
        verts = Polytope.from_unit_box(2).vertices()
        expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(np.round(v, 9)) for v in verts} == expected


class TestMaximize:
    @pytest.mark.parametrize("eps", [1.0, 1e-6, 1e-9, 1e-12])
    def test_optimum_is_scale_free(self, eps):
        """The optimum scales with the objective, however small: the
        insert screen's LP oracle compares it against a 1e-9 tolerance,
        and an objective below the solver's dual tolerance must not stop
        at the first vertex it meets."""
        # The cone 1/3 ≤ w1/w0 ≤ 3 cut by the box: vertices (0, 0),
        # (1, 1/3), (1, 1), (1/3, 1); -w0 + 2 w1 peaks at (1/3, 1).
        cone = Polytope.from_unit_box(2).with_constraints(
            np.array([[-1.0, 3.0], [3.0, -1.0]])
        )
        got = cone.maximize(eps * np.array([-1.0, 2.0]))
        assert got == pytest.approx(5.0 / 3.0 * eps, rel=1e-9)


class TestNormalizedMembership:
    def test_rescaled_region_same_membership(self):
        """Scaling every row of (A, b) leaves membership unchanged: the
        tolerance is norm-relative, not absolute."""
        box = Polytope.from_unit_box(3)
        scale = 1e6
        scaled = Polytope(box.A * scale, box.b * scale)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(-0.2, 1.2, 3)
            assert box.contains(x) == scaled.contains(x)

    def test_rescaled_facet_point_stays_member(self):
        """A point a hair outside a facet (within tolerance) is a member
        regardless of row scale — the absolute-tolerance bug rejected it
        once the row was rescaled."""
        box = Polytope.from_unit_box(2)
        x = np.array([1.0 + 5e-10, 0.5])  # violates w1 <= 1 by 5e-10 < tol
        assert box.contains(x)
        scaled = Polytope(box.A * 1e6, box.b * 1e6)
        # Raw slack is now 5e-4 >> tol; the relative test still accepts.
        assert scaled.contains(x)
        clearly_out = np.array([1.1, 0.5])
        assert not box.contains(clearly_out)
        assert not scaled.contains(clearly_out)

    def test_tiny_norm_row_not_overpermissive(self):
        """A near-zero-norm row (nearly coincident records) must not accept
        points far beyond its facet just because the raw slack is tiny."""
        # Row 1e-9 * (x1 - x2) <= 0, i.e. x1 <= x2 — raw violations of this
        # row sit below an absolute 1e-9 tolerance even for points deep in
        # the wrong half-space.
        poly = Polytope.from_unit_box(2).with_constraints(
            np.array([[-1e-9, 1e-9]])
        )
        inside = np.array([0.3, 0.5])
        outside = np.array([0.5, 0.3])  # raw violation 2e-10, real one 0.2
        assert poly.contains(inside)
        assert not poly.contains(outside)

    def test_contains_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        normals = rng.normal(size=(4, 3))
        poly = Polytope.from_unit_box(3).with_constraints(normals)
        X = rng.uniform(-0.2, 1.2, size=(300, 3))
        batch = poly.contains_batch(X)
        assert batch.shape == (300,)
        assert batch.dtype == bool
        for x, flag in zip(X, batch):
            assert flag == poly.contains(x)

    def test_contains_batch_rejects_bad_shape(self):
        poly = Polytope.from_unit_box(3)
        with pytest.raises(ValueError):
            poly.contains_batch(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            poly.contains_batch(np.zeros(3))

    def test_normalized_halfspaces_cached_and_unit(self):
        poly = Polytope.from_unit_box(4)
        A_n, b_n = poly.normalized_halfspaces()
        assert np.allclose(np.linalg.norm(A_n, axis=1), 1.0)
        again = poly.normalized_halfspaces()
        assert again[0] is A_n and again[1] is b_n


class TestWithConstraints:
    def test_halfplane_cuts_volume(self):
        # w1 >= w2 cuts the unit square in half.
        poly = Polytope.from_unit_box(2).with_constraints(np.array([[1.0, -1.0]]))
        assert poly.volume() == pytest.approx(0.5, rel=1e-9)

    def test_cone_wedge_volume(self):
        # w2 <= 2*w1 and w2 >= w1/2: wedge of the unit square.
        normals = np.array([[2.0, -1.0], [-0.5, 1.0]])
        poly = Polytope.from_unit_box(2).with_constraints(normals)
        # Area = 1 - (area above w2=2w1) - (area below w2=w1/2) = 1 - 1/4 - 1/4
        assert poly.volume() == pytest.approx(0.5 + 0.25 - 0.25, rel=1e-6)

    def test_empty_intersection(self):
        # w1 >= w2 + impossible offset via two contradictory cones is not
        # expressible through the origin; use opposite strict halves meeting
        # only on a line => zero volume.
        normals = np.array([[1.0, -1.0], [-1.0, 1.0]])
        poly = Polytope.from_unit_box(2).with_constraints(normals)
        assert poly.volume() == 0.0
        assert poly.is_empty()

    def test_no_constraints_copy(self):
        box = Polytope.from_unit_box(2)
        poly = box.with_constraints(np.empty((0, 2)))
        assert poly.volume() == pytest.approx(1.0)

    def test_row_identity_preserved(self):
        box = Polytope.from_unit_box(2)
        poly = box.with_constraints(np.array([[1.0, -1.0]]))
        assert poly.m == box.m + 1
        assert np.allclose(poly.A[-1], [-1.0, 1.0])  # stored as -normal


class TestAxisInterval:
    def test_box_interval(self):
        box = Polytope.from_unit_box(2)
        lo, hi = box.axis_interval(0, np.array([0.3, 0.7]))
        assert (lo, hi) == (0.0, 1.0)

    def test_constrained_interval(self):
        # w1 >= w2 with base (0.8, 0.4): w1 ranges in [0.4, 1].
        poly = Polytope.from_unit_box(2).with_constraints(np.array([[1.0, -1.0]]))
        lo, hi = poly.axis_interval(0, np.array([0.8, 0.4]))
        assert lo == pytest.approx(0.4)
        assert hi == pytest.approx(1.0)

    def test_line_missing_region(self):
        poly = Polytope.from_unit_box(2).with_constraints(np.array([[1.0, -1.0]]))
        lo, hi = poly.axis_interval(1, np.array([0.1, 0.9]))  # base outside
        assert hi == pytest.approx(0.1)  # w2 <= w1 = 0.1

    def test_wrong_base_shape(self):
        with pytest.raises(ValueError):
            Polytope.from_unit_box(2).axis_interval(0, np.array([0.5]))


class TestFacetMask:
    def test_redundant_constraint_detected(self):
        # w1 >= w2 twice: only one row (plus box rows) is a facet.
        normals = np.array([[1.0, -1.0], [1.0, -1.0], [3.0, -3.0]])
        poly = Polytope.from_unit_box(2).with_constraints(normals)
        mask = poly.facet_mask()
        hs_rows = mask[4:]
        assert hs_rows.sum() <= 1  # duplicates of one plane: at most one kept

    def test_all_box_facets_in_plain_box(self):
        mask = Polytope.from_unit_box(2).facet_mask()
        assert mask.all()

    def test_loose_constraint_not_facet(self):
        # w1 >= w2 - 5 is implied by the box; normal picked accordingly is
        # the cone (1, -0.01): nearly all of the square satisfies it but it
        # still cuts a sliver => facet. Use a constraint fully outside: the
        # box rows already bound w's, so  w1 + w2 >= -1  is never tight.
        poly = Polytope(
            np.vstack([Polytope.from_unit_box(2).A, -np.array([[1.0, 1.0]])]),
            np.concatenate([Polytope.from_unit_box(2).b, [1.0]]),
        )
        assert not poly.facet_mask()[-1]


class TestContainsPolytope:
    def test_box_contains_wedge(self):
        box = Polytope.from_unit_box(2)
        wedge = box.with_constraints(np.array([[1.0, -1.0]]))
        assert box.contains_polytope(wedge)
        assert not wedge.contains_polytope(box)

    def test_self_containment(self):
        poly = Polytope.from_unit_box(3).with_constraints(np.array([[1.0, -0.5, 0.0]]))
        assert poly.contains_polytope(poly)

    def test_empty_contained_in_anything(self):
        empty = Polytope.from_unit_box(2).with_constraints(
            np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 1.0]])
        )
        # w1 = w2 and w2 <= 0 line segment: no interior.
        assert empty.is_empty()
        assert Polytope.from_unit_box(2).contains_polytope(empty)


class TestSampling:
    def test_samples_inside(self, rng):
        poly = Polytope.from_unit_box(3).with_constraints(
            np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        )
        pts = poly.sample(100, rng)
        assert pts.shape == (100, 3)
        for p in pts:
            assert poly.contains(p, tol=1e-8)

    def test_empty_region_samples_nothing(self):
        empty = Polytope.from_unit_box(2).with_constraints(
            np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 1.0]])
        )
        assert empty.sample(10).shape[0] == 0


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Polytope(np.eye(2), np.ones(3))

    def test_slacks(self):
        box = Polytope.from_unit_box(2)
        s = box.slacks(np.array([0.25, 0.5]))
        assert s.min() == pytest.approx(0.25)
