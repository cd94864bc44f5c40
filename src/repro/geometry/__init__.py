"""Computational-geometry substrate for GIR computation.

* :mod:`repro.geometry.predicates` — dominance and facet-sidedness tests
  with explicit tolerances;
* :mod:`repro.geometry.halfspace` — half-spaces of query space whose
  bounding hyperplanes pass through the origin (Section 3.2), plus their
  provenance (which records induced them);
* :mod:`repro.geometry.convexhull` — hull vertices and facet counts
  through scipy's Qhull bindings (CP and GIR* pruning, Fig 8);
* :mod:`repro.geometry.incident_facets` — the *facet fan*: incremental
  maintenance of only the hull facets incident to an apex point, the core
  data structure of the paper's FP algorithm (Section 6.3);
* :mod:`repro.geometry.polytope` — H-representation polytopes with interior
  points, vertex enumeration, volumes and axis projections (via scipy's
  qhull bindings, the same library the paper uses).
"""

from repro.geometry.convexhull import hull_vertex_ids, qhull_facet_count
from repro.geometry.halfspace import Halfspace, order_halfspace, separation_halfspace
from repro.geometry.incident_facets import FacetFan
from repro.geometry.polytope import Polytope
from repro.geometry.predicates import dominates

__all__ = [
    "dominates",
    "Halfspace",
    "order_halfspace",
    "separation_halfspace",
    "hull_vertex_ids",
    "qhull_facet_count",
    "FacetFan",
    "Polytope",
]
