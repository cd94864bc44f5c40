"""repro — reproduction of *Global Immutable Region Computation*
(Zhang, Mouratidis, Pang; SIGMOD 2014).

Given a top-k query over a multi-attribute dataset, the **global immutable
region (GIR)** is the maximal locus of query-weight vectors that produce
exactly the same top-k result. This package implements the paper's full
stack: an R*-tree over a simulated page store, the BRS top-k and BBS
skyline algorithms, and the three GIR Phase-2 methods — Skyline Pruning
(SP), Convex-hull Pruning (CP) and Facet Pruning (FP) — plus the
order-insensitive GIR*, non-linear monotone scoring, visualisation aids,
result caching, and the baselines the paper compares against.

Quickstart::

    import repro

    data = repro.independent(n=20_000, d=4, seed=1)
    tree = repro.bulk_load_str(data)
    gir = repro.compute_gir(tree, data, weights=[0.6, 0.5, 0.6, 0.7], k=10)
    print(gir.volume_ratio(), gir.lir_intervals())
"""

from repro.baselines import exhaustive_gir, lir_intervals_scan, stb_radius
from repro.core import (
    FPOptions,
    GeneralMonotoneScoring,
    GIRCache,
    GIRResult,
    GIRStats,
    RegionIndex,
    boundary_perturbations,
    compute_gir,
    compute_gir_star,
    immutability_probability,
    immutable_ball_radius,
    interactive_projection,
    maximal_axis_rectangle,
)
from repro.cluster import (
    KDSplitPartitioner,
    PARTITIONERS,
    RoundRobinPartitioner,
    ShardedGIREngine,
)
from repro.engine import (
    GIREngine,
    Workload,
    mixed_workload,
    uniform_workload,
    zipf_clustered_workload,
)
from repro.data import (
    Dataset,
    PointTable,
    anticorrelated,
    correlated,
    hotel_surrogate,
    house_surrogate,
    independent,
    make_synthetic,
)
from repro.geometry import FacetFan, Halfspace, Polytope
from repro.index import PageStore, RStarTree, bulk_load_str
from repro.query import BRSRun, TopKResult, bbs_skyline, brs_topk, scan_skyline, scan_topk
from repro.scoring import (
    LinearScoring,
    MonotoneScoring,
    ScoringFunction,
    mixed_scoring,
    polynomial_scoring,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "compute_gir",
    "compute_gir_star",
    "GIRResult",
    "GIRStats",
    "GIRCache",
    "RegionIndex",
    "FPOptions",
    "GeneralMonotoneScoring",
    "immutability_probability",
    "immutable_ball_radius",
    "boundary_perturbations",
    "maximal_axis_rectangle",
    "interactive_projection",
    # cluster
    "ShardedGIREngine",
    "RoundRobinPartitioner",
    "KDSplitPartitioner",
    "PARTITIONERS",
    # engine
    "GIREngine",
    "Workload",
    "uniform_workload",
    "zipf_clustered_workload",
    "mixed_workload",
    # data
    "Dataset",
    "PointTable",
    "independent",
    "correlated",
    "anticorrelated",
    "make_synthetic",
    "house_surrogate",
    "hotel_surrogate",
    # index
    "RStarTree",
    "bulk_load_str",
    "PageStore",
    # query
    "brs_topk",
    "bbs_skyline",
    "scan_topk",
    "scan_skyline",
    "TopKResult",
    "BRSRun",
    # geometry
    "Polytope",
    "Halfspace",
    "FacetFan",
    # scoring
    "ScoringFunction",
    "LinearScoring",
    "MonotoneScoring",
    "polynomial_scoring",
    "mixed_scoring",
    # baselines
    "exhaustive_gir",
    "stb_radius",
    "lir_intervals_scan",
    "__version__",
]
