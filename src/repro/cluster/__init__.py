"""The sharded serving tier: partition → fan-out → merge, over pluggable
shard-execution backends.

* :class:`repro.cluster.ShardedGIREngine` — partitions the record table
  across N independent :class:`~repro.engine.GIREngine` shards, fans
  reads out on the caller's thread, merges the per-shard
  answers into the byte-identical global top-k with a cross-shard merged
  stability region, caches merged regions at the cluster level, and
  routes writes to the single owning shard;
* :mod:`repro.cluster.backends` — *where* each shard executes, behind
  the narrow ``ShardBackend`` contract: in-process (``"inproc"``,
  default) or one long-lived worker process per shard (``"process"``),
  byte-identical either way (pluggable via the ``BACKENDS`` registry);
* :mod:`repro.cluster.wire` — the versioned frame format requests,
  shard replies (ids/scores/tie-sums/g-images/regions) and stat deltas
  cross process boundaries in;
* :mod:`repro.cluster.partition` — round-robin and kd-split-on-g-space
  partitioners (pluggable via the ``PARTITIONERS`` registry);
* :mod:`repro.cluster.merge` — the pool-and-rank merge plus the merged
  region assembly (per-shard region intersection + merge-order
  half-spaces).
"""

from repro.cluster.backends import (
    BACKENDS,
    InProcBackend,
    ProcessBackend,
    ShardBackend,
    ShardReply,
    ShardSpec,
    ShardUpdate,
    ShardWriteError,
    make_backend,
)
from repro.cluster.merge import MergedAnswer, ShardAnswer, merge_shard_answers
from repro.cluster.partition import (
    KDSplitPartitioner,
    PARTITIONERS,
    Partitioner,
    RoundRobinPartitioner,
    make_partitioner,
)
from repro.cluster.sharded import ShardedGIREngine

__all__ = [
    "ShardedGIREngine",
    "Partitioner",
    "RoundRobinPartitioner",
    "KDSplitPartitioner",
    "PARTITIONERS",
    "make_partitioner",
    "ShardAnswer",
    "MergedAnswer",
    "merge_shard_answers",
    "ShardBackend",
    "ShardSpec",
    "ShardReply",
    "ShardUpdate",
    "InProcBackend",
    "ProcessBackend",
    "ShardWriteError",
    "BACKENDS",
    "make_backend",
]
