"""`InProcBackend` — the shard engine lives in the router's process.

The default backend and the reference the others are measured against:
zero transport cost, zero serialization, direct object sharing (a reply's
``region`` is the very polytope the shard's cache holds). A fan-out over
in-process backends is the default :meth:`ShardBackend.fan_out`: the
shards answer one after another on the caller's thread, so their
CPU-bound phase-2 work never overlaps — overlapping it is what
:class:`~repro.cluster.backends.process.ProcessBackend` is for.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.cluster.backends.base import (
    ShardBackend,
    ShardReply,
    ShardSpec,
    ShardUpdate,
    build_shard_engine,
    engine_shard_stats,
    guarded_engine_write,
    serve_shard_reads,
    update_from_response,
)
from repro.engine.engine import GIREngine

__all__ = ["InProcBackend"]


# The backend holds no lock of its own: every call arrives under the
# router's serve lock, and the engine it wraps is built before the
# router serves its first request.
class InProcBackend(ShardBackend):
    """Direct calls into a locally owned :class:`GIREngine`."""

    name = "inproc"

    def __init__(self) -> None:
        self._engine: GIREngine | None = None

    @property
    def engine(self) -> GIREngine:
        """The shard engine; raises until :meth:`build` has run."""
        engine = self._engine
        if engine is None:
            raise RuntimeError("backend is not built")
        return engine

    def build(self, spec: ShardSpec) -> None:
        if self._engine is not None:
            raise RuntimeError("backend already built")
        self._engine = build_shard_engine(spec)

    def topk_batch(
        self, requests: Sequence[tuple[np.ndarray, int]]
    ) -> list[ShardReply]:
        return serve_shard_reads(self.engine, requests)

    def insert(self, point: np.ndarray) -> ShardUpdate:
        return update_from_response(
            guarded_engine_write(self.engine, "insert", point)
        )

    def delete(self, rid: int) -> ShardUpdate:
        return update_from_response(
            guarded_engine_write(self.engine, "delete", rid)
        )

    def stats(self) -> dict[str, Any]:
        stats = engine_shard_stats(self.engine)
        assert isinstance(stats, dict)
        return stats

    def close(self) -> None:
        """Nothing to release: the engine is plain in-process state."""
