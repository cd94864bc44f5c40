"""The serving layer: a cache-first top-k engine over the GIR pipeline.

* :class:`repro.engine.GIREngine` — owns tree + mutable point table +
  scorer + :class:`~repro.core.caching.GIRCache`; answers
  ``engine.topk(q, k)`` cache-first, applies ``engine.insert(point)`` /
  ``engine.delete(rid)`` updates with GIR-aware selective cache
  invalidation, and keeps its counters
  in ``engine.stats()`` (time is measured by :mod:`repro.obs` spans);
* :mod:`repro.engine.workload` — uniform / Zipf-clustered / mixed
  read-write query-stream generators for scenario diversity.
"""

from repro.engine.engine import (
    EngineResponse,
    GIREngine,
    UpdateResponse,
    validate_k,
    validate_point,
    validate_weights,
)
from repro.engine.workload import (
    DeleteOp,
    InsertOp,
    Request,
    Workload,
    as_generator,
    flash_crowd_workload,
    mixed_workload,
    uniform_workload,
    zipf_clustered_workload,
)

__all__ = [
    "GIREngine",
    "EngineResponse",
    "UpdateResponse",
    "validate_weights",
    "validate_k",
    "validate_point",
    "Request",
    "InsertOp",
    "DeleteOp",
    "Workload",
    "as_generator",
    "uniform_workload",
    "zipf_clustered_workload",
    "flash_crowd_workload",
    "mixed_workload",
]
