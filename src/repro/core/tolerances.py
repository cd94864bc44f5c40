"""The project's numeric tolerances, consolidated in one module.

Every floating-point comparison in this codebase that is *not* an
intentional bit-exact equality goes through a named constant defined
here. The ``numeric-safety`` check of ``tests/test_source_invariants.py``
enforces this: an inline literal like ``1e-9`` in a comparison or a
default argument anywhere else in ``src/`` fails it, so a tolerance
cannot silently fork from the rest of the system (the insert
prescreen's margin :data:`SCREEN_SAFETY`, for instance, is only sound
because the membership tolerance it must stay below is *this*
:data:`MEMBERSHIP_TOL`, not whatever a caller happened to type).

Grouping, loosest to tightest:

* :data:`APPROX_TOLERANCE` — a coarse model parameter, not a
  correctness tolerance;
* :data:`STRICT_BELOW_TOL` — how far below the apex's score hyperplane
  a record must lie to take part in the facet fan's hull seed;
* :data:`CONTAINMENT_TOL` — LP-backed polytope containment slack
  (linprog answers are good to ~1e-9; one order looser stays safe);
* :data:`MEMBERSHIP_TOL` — the global half-space membership tolerance
  (norm-relative via ``Polytope.normalized_halfspaces``);
* :data:`PREDICATE_EPS` / :data:`DEGENERATE_RADIUS` — geometric
  predicate slack and the radius below which a region counts as empty;
* :data:`EXACT_TOL` / :data:`FACET_SIDE_TOL` / :data:`COEFFICIENT_EPS`
  — near-machine-epsilon guards for hull side tests, score sanity
  checks and treat-as-zero coefficient thresholds;
* :data:`NORM_FLOOR` — an underflow guard, not a tolerance: the
  smallest norm a direction vector is allowed to be scaled by.
"""

from __future__ import annotations

__all__ = [
    "MEMBERSHIP_TOL",
    "EXACT_TOL",
    "DEGENERATE_RADIUS",
    "CONTAINMENT_TOL",
    "COEFFICIENT_EPS",
    "FACET_SIDE_TOL",
    "PREDICATE_EPS",
    "STRICT_BELOW_TOL",
    "SCREEN_SAFETY",
    "APPROX_TOLERANCE",
    "NORM_FLOOR",
    "LP_FTOL",
]

#: Global half-space membership tolerance: ``A_n @ x <= b_n + tol`` over
#: *unit-norm* rows. Shared by ``Polytope.contains``/``contains_batch``,
#: the stacked :class:`~repro.core.region_index.RegionIndex` kernels, GIR
#: containment, cache invalidation LPs and the unit-box bounds checks —
#: one value, so the vectorized and scalar membership paths agree
#: bit-for-bit in form.
MEMBERSHIP_TOL = 1e-9

#: Near-machine-epsilon slack for comparisons that should be exact up to
#: accumulated rounding: convex-hull side tests on normalized data, MBB
#: closed-box predicates, descending-score sanity checks, interval
#: consistency guards.
EXACT_TOL = 1e-12

#: Chebyshev radius below which a polytope is treated as degenerate /
#: empty (scipy's interior-point answers are reliable to ~1e-12; one
#: order of slack on top). Also the least distance from every cone row
#: that ``Polytope.cone_rays`` demands of its interior point — the same
#: "is this point usably inside" bar for the same Qhull call.
DEGENERATE_RADIUS = 1e-11

#: Slack for LP-backed polytope-in-polytope containment and feasibility
#: certificates (one order looser than :data:`MEMBERSHIP_TOL`: two LP
#: solves stack their errors).
CONTAINMENT_TOL = 1e-8

#: Coefficients with absolute value below this are treated as exactly
#: zero when reducing a half-space row to a 1-D interval bound.
COEFFICIENT_EPS = 1e-14

#: Side-of-hyperplane classification threshold of the incident-facet
#: fan (tighter than :data:`EXACT_TOL`: facet normals are unit-scaled
#: and the dot products are short).
FACET_SIDE_TOL = 1e-13

#: Shared slack of the exact geometric predicates
#: (:mod:`repro.geometry.predicates`).
PREDICATE_EPS = 1e-10

#: Strict-below cut-off of the facet fan's vertex-figure seed: a candidate
#: enters the hull call only if its depth below the apex's score
#: hyperplane exceeds this fraction of its distance from the apex. The
#: central projection divides by that depth, so this bounds the projected
#: coordinates by its reciprocal and leaves Qhull nine significant digits.
#: Candidates nearer the hyperplane (score ties included) are inserted
#: incrementally instead; the cut-off moves work, never the result.
STRICT_BELOW_TOL = 1e-6

#: Margin of the insert prescreen's two decisions on the cone-ray bracket
#: ``[s, d · m]`` of the invalidation LP's optimum: an entry is
#: undisturbable only if ``d · m ≤ tol − SCREEN_SAFETY`` and certainly
#: evicted only if ``s > tol + SCREEN_SAFETY`` (un-joggled qhull rays are
#: reliable to ~1e-12; this dominates it comfortably). Must stay below
#: :data:`MEMBERSHIP_TOL`, the ``tol`` it is subtracted from.
SCREEN_SAFETY = 1e-10

#: Default termination tolerance of the approximate (sampling-based)
#: GIR variant. A model parameter, not a correctness tolerance.
APPROX_TOLERANCE = 1e-4

#: Underflow guard when normalizing direction vectors: the smallest
#: norm a vector may be divided by.
NORM_FLOOR = 1e-300

#: ``ftol`` handed to scipy's linprog/minimize when a tight solution is
#: needed (e.g. the visualization's interior-point refinement).
LP_FTOL = 1e-12
