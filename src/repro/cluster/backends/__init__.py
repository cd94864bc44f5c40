"""Pluggable shard-execution backends for the sharded serving tier.

:class:`~repro.cluster.ShardedGIREngine` routes, fans out, merges and
caches; *where each shard executes* is this package's concern, behind the
:class:`~repro.cluster.backends.base.ShardBackend` contract:

* :class:`InProcBackend` (``"inproc"``, the default) — the shard engine
  lives in the router's process; a fan-out answers the shards one after
  another;
* :class:`ProcessBackend` (``"process"``) — one long-lived worker process
  per shard, speaking the versioned wire format of
  :mod:`repro.cluster.wire`; a fan-out sends every shard its request
  before reading any reply, so CPU-bound phase-2 work runs genuinely in
  parallel across shards.

Both are byte-identical in their answers; the registry (``BACKENDS`` /
:func:`make_backend`) is where a future socket/multi-host backend plugs
in.
"""

from __future__ import annotations

from repro.cluster.backends.base import (
    ShardBackend,
    ShardReply,
    ShardSpec,
    ShardUpdate,
    ShardWriteError,
    build_shard_engine,
    engine_shard_stats,
    guarded_engine_write,
    reply_from_response,
    serve_shard_reads,
    update_from_response,
)
from repro.cluster.backends.inproc import InProcBackend
from repro.cluster.backends.process import ProcessBackend

__all__ = [
    "ShardBackend",
    "ShardSpec",
    "ShardReply",
    "ShardUpdate",
    "InProcBackend",
    "ProcessBackend",
    "ShardWriteError",
    "BACKENDS",
    "make_backend",
    "build_shard_engine",
    "guarded_engine_write",
    "engine_shard_stats",
    "reply_from_response",
    "serve_shard_reads",
    "update_from_response",
]

# repro: allow[fork-safety] -- deliberate plug-in registry: mutated only at
# import time by backend modules registering themselves, read-only afterwards
BACKENDS: dict[str, type[ShardBackend]] = {
    InProcBackend.name: InProcBackend,
    ProcessBackend.name: ProcessBackend,
}


def make_backend(spec: "str | type[ShardBackend]", shard_spec: ShardSpec) -> ShardBackend:
    """Instantiate and build one shard backend.

    ``spec`` is a registry name (``"inproc"`` / ``"process"``) or a
    :class:`ShardBackend` subclass (a plug-in execution home); the
    returned backend has already been built from ``shard_spec``.
    """
    if isinstance(spec, type) and issubclass(spec, ShardBackend):
        backend = spec()
    elif isinstance(spec, str):
        if spec not in BACKENDS:
            raise ValueError(
                f"unknown shard backend {spec!r}; expected one of "
                f"{sorted(BACKENDS)} or a ShardBackend subclass"
            )
        backend = BACKENDS[spec]()
    else:
        raise TypeError(
            f"backend must be a registry name or ShardBackend subclass, "
            f"got {spec!r}"
        )
    backend.build(shard_spec)
    return backend
