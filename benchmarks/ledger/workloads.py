"""The system under test and the four operation streams.

The data set, ``k`` and every engine / front-door setting are the same
for all workloads (see ``README.md``); only the operation stream — and,
for ``sharded_rw``, the engine tier behind the front door — differs.
Streams are a pure function of ``(workload, seed, op count)``; the
program sees only the generated operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.cluster import ShardedGIREngine
from repro.data.synthetic import make_synthetic
from repro.engine import (
    DeleteOp,
    GIREngine,
    InsertOp,
    Request,
    flash_crowd_workload,
    uniform_workload,
)
from repro.index import bulkload
from repro.serve import ServeConfig, ServeFront

__all__ = ["Scale", "SCALES", "CLIENTS", "make_ops", "base_points", "build_front"]

DATA_FAMILY = "IND"
DATA_SEED = 9
D = 4
K = 20
CACHE_CAPACITY = 128
CLUSTER_CACHE_CAPACITY = 256
SHARDS = 2
#: Closed loop: this many client coroutines, each awaiting its reply
#: before sending its next operation. A flash-crowd burst (24) must be
#: concurrently in flight for coalescing to exist at all.
CLIENTS = 32
#: Share of each stream served before the clock starts (cache fill, lazy
#: scipy import, first fork).
WARMUP_SHARE = 0.10

#: hot_zipf: ``zipf_clustered_workload``'s shape — this many archetypes,
#: Zipf-popular, a Gaussian tweak per query. The stock tweak of 0.01 hits
#: only 24 % (median GIR Chebyshev radius is 0.003) and 0.001 still
#: leaves some archetype sets with a working set above the cache; at
#: 0.0002 a cluster spans a handful of regions and the set fits.
HOT_CLUSTERS = 16
HOT_ZIPF_S = 1.1
HOT_SPREAD = 0.0002

#: flash_rw / sharded_rw: one block of the stream is one flash crowd —
#: ``flash_crowd_workload`` at its defaults (bursts of 24, 85 % exact
#: duplicates, 25 % uniform background) but with its own CROWD_HOT hot
#: vectors — of this many reads, with a write burst after every
#: WRITE_EVERY-th. A hot vector gets 1–2 bursts before its crowd is over;
#: blocks are small because their cost varies by ×2.5 with how wide the
#: hot vectors' regions happen to be, and a run should hold many.
CROWD_READS = 100
CROWD_HOT = 2
WRITE_EVERY = 50
#: The block's burst sizes (dealt in a per-block order): four writes, one
#: of each kind, so ~3.8 % of operations are writes.
BURST_SIZES = (1, 3)
WRITE_KINDS = ("insert_high", "insert", "delete_top", "delete")
#: Deletes aimed at records likely to sit in a cached top-k.
TOP_SUM_POOL = 400

#: Every stream is drawn from a *fixed* population (generated from
#: POPULATION_SEED, independent of ``--seed``): the run's seed picks the
#: order it is served in and — of miss_uniform's vectors, which a run has
#: enough of to spare some — which SAMPLE_SHARE. A miss costs
#: 5–60 ms depending on the vector, an insert 10–200 ms depending on the
#: point, a crowd ×2.5 depending on how wide its hot vectors' regions
#: are, and a hot archetype next to a region facet wastes a third of its
#: coalesce attaches, so with independent draws per seed the *inputs*,
#: not the program, moved a 16 s run by ±10–15 %. One population keeps
#: the seeds different (order and subset, hence cache, batch and
#: coalescing state) but their total work within a few percent.
POPULATION_SEED = 2014
SAMPLE_SHARE = 0.9


@dataclass(frozen=True)
class Scale:
    n: int
    #: Operations per measured second on the reference host; turns
    #: ``--seconds`` into an operation count, so one seed and one
    #: ``--seconds`` always mean the same work on every commit.
    ops_per_second: dict[str, float]


SCALES = {
    "standard": Scale(
        n=100_000,
        ops_per_second={
            "miss_uniform": 50.0,
            "hot_zipf": 8000.0,
            "flash_rw": 125.0,
            "sharded_rw": 65.0,
        },
    ),
    # Plumbing check for the tier-1 suite: tens of operations.
    "smoke": Scale(
        n=2_000,
        ops_per_second={
            "miss_uniform": 60.0,
            "hot_zipf": 400.0,
            "flash_rw": 160.0,
            "sharded_rw": 120.0,
        },
    ),
}


def _flash_blocks(n_blocks: int, points: np.ndarray) -> list[list]:
    """The first ``n_blocks`` blocks of the fixed flash population.

    A block is one flash crowd with a write burst after every
    ``WRITE_EVERY``-th read. Four kinds of update, one of each per
    block: an insert drawn from ``[0.8, 1]^d`` (it can enter a cached
    top-k), a uniform insert, a delete from the ``TOP_SUM_POOL`` highest
    coordinate sums (a likely result member), a uniform delete. Burst
    sizes and kinds are dealt, not drawn, so every block holds the same
    writes: one high insert can invalidate most of the cache, and with
    independent draws the count of those decided a run's cost. Deletes
    only ever name base rids, never an rid twice in the whole population,
    so no operation can fail whichever blocks a run serves in whatever
    order the front door commits them."""
    n, d = points.shape
    top = np.argsort(-points.sum(axis=1), kind="stable")[:TOP_SUM_POOL]
    dead: set[int] = set()
    blocks = []
    for index in range(n_blocks):
        rng = np.random.default_rng([POPULATION_SEED, index])
        reads = flash_crowd_workload(d, CROWD_READS, k=K, hot=CROWD_HOT, rng=rng).requests
        sizes = iter(rng.permutation(BURST_SIZES).tolist())
        kinds = iter(rng.permutation(WRITE_KINDS).tolist())
        ops: list = []
        for i, read in enumerate(reads, start=1):
            ops.append(read)
            if i % WRITE_EVERY:
                continue
            for _ in range(next(sizes)):
                kind = next(kinds)
                if kind == "insert_high":
                    ops.append(InsertOp(point=0.8 + 0.2 * rng.random(d)))
                elif kind == "insert":
                    ops.append(InsertOp(point=rng.random(d)))
                else:
                    rid = -1
                    while rid < 0 or rid in dead:
                        if kind == "delete_top":
                            rid = int(top[rng.integers(len(top))])
                        else:
                            rid = int(rng.integers(n))
                    dead.add(rid)
                    ops.append(DeleteOp(rid=rid))
        blocks.append(ops)
    return blocks


def _hot_zipf(d: int, count: int, rng: np.random.Generator) -> list:
    """``zipf_clustered_workload(clusters=HOT_CLUSTERS, zipf_s=HOT_ZIPF_S,
    spread=HOT_SPREAD)`` with the archetypes (and their popularity order)
    taken from the fixed population; the seed draws every query's
    archetype and tweak."""
    population = np.random.default_rng(POPULATION_SEED)
    centres = population.random((HOT_CLUSTERS, d)) * 0.7 + 0.15
    probs = np.arange(1, HOT_CLUSTERS + 1, dtype=np.float64) ** -HOT_ZIPF_S
    picks = rng.choice(HOT_CLUSTERS, size=count, p=probs / probs.sum())
    weights = np.clip(centres[picks] + rng.normal(0.0, HOT_SPREAD, (count, d)), 0.01, 1.0)
    return [Request(weights=w, k=K) for w in weights]


def make_ops(workload: str, seed: int, count: int, points: np.ndarray) -> list:
    """The ``count`` operations a run of ``workload`` serves under ``seed``."""
    d = points.shape[1]
    rng = np.random.default_rng(seed)
    if workload == "hot_zipf":
        return _hot_zipf(d, count, rng)
    if workload == "miss_uniform":
        pool = uniform_workload(
            d, ceil(count / SAMPLE_SHARE), k=K, rng=POPULATION_SEED
        ).requests
        return [pool[i] for i in rng.permutation(len(pool))[:count]]
    if workload in ("flash_rw", "sharded_rw"):
        # Too few crowds in a run to leave any out: the seed orders them.
        blocks = _flash_blocks(ceil(count / (CROWD_READS + sum(BURST_SIZES))), points)
        ops = [op for i in rng.permutation(len(blocks)) for op in blocks[i]]
        return ops[:count]
    raise ValueError(f"unknown workload {workload!r}")


def base_points(scale: Scale) -> np.ndarray:
    return make_synthetic(DATA_FAMILY, scale.n, D, seed=DATA_SEED).points


def build_front(workload: str, scale: Scale) -> ServeFront:
    """Everything ``setup_s`` covers: data generation, STR bulk load,
    engine construction (for ``sharded_rw``: worker spawn and the wire
    build of each shard) and the front door."""
    data = make_synthetic(DATA_FAMILY, scale.n, D, seed=DATA_SEED)
    if workload == "sharded_rw":
        engine = ShardedGIREngine(
            data,
            shards=SHARDS,
            backend="process",
            parallel=True,
            partitioner="round_robin",
            method="fp",
            cache_capacity=CACHE_CAPACITY,
            cache_policy="lru",
            cluster_cache_capacity=CLUSTER_CACHE_CAPACITY,
            page_sleep_ms=0.0,
        )
    else:
        engine = GIREngine(
            data,
            bulkload.bulk_load_str(data),
            method="fp",
            cache_capacity=CACHE_CAPACITY,
            cache_policy="lru",
        )
    return ServeFront(engine, ServeConfig())
