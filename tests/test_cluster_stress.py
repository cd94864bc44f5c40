"""Concurrency stress: racing reads vs routed writes on the sharded tier.

The serve lock makes every router operation atomic, so a concurrent
history must be *linearizable*: each read observes exactly the state
after some prefix of the write sequence — with in-process shards and
with process shards, whose fan-out holds the serve lock from its first
send to its last reply. The test races reader threads
(``topk_batch`` calls of one or several requests) against a writer
applying routed ``insert`` / ``delete`` ops, tags every read with the
write-epoch it observed, then replays the same write sequence sequentially on a fresh
cluster and checks each recorded answer against the sequential engine's
answer at that epoch: the rid sequence must be **bit-identical**, the
scores within the tier-wide serving-path bound (``rtol=0, atol=1e-12``
— a cache hit returns stored bits, a recompute freshly merged ones).

Epoch tagging uses the started/done counter pair: the writer bumps
``started`` before an op and ``done`` after it; a read that saw
``done == a`` before and ``started == b`` after is untorn iff ``a == b``
(no write overlapped it), and then it observed exactly ``a`` writes.
Torn reads are discarded — their ordering is genuinely ambiguous.

The race also witnesses the serve lock itself: the router's cluster
cache, and with in-process shards each shard engine and its cache, carry
an ownership spy (``tests/conftest.py``), so a router path that let a
second thread in while another was inside fails the race with
:class:`~tests.conftest.Overlap` — correct answers alone would not show
a missing lock.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cluster import ShardedGIREngine
from repro.data.synthetic import independent
from repro.engine.workload import Request
from tests.conftest import CACHE_METHODS, ENGINE_METHODS, spy_ownership

N, D, K = 400, 3, 5
SHARDS = 2
WRITES = 30


@pytest.fixture(scope="module")
def data():
    return independent(N, D, seed=23)


@pytest.fixture(scope="module")
def write_ops(data):
    """A deterministic mixed write sequence: inserts of fresh points and
    deletes of (still-live) seed rids, interleaved."""
    rng = np.random.default_rng(77)
    ops = []
    deletable = list(rng.choice(N, size=WRITES // 2, replace=False))
    for i in range(WRITES):
        if i % 2 == 0 and deletable:
            ops.append(("delete", int(deletable.pop())))
        else:
            ops.append(("insert", rng.random(D)))
    return ops


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(99)
    return [rng.random(D) + 0.05 for _ in range(12)]


def apply_op(engine, op):
    kind, arg = op
    if kind == "insert":
        engine.insert(arg)
    else:
        engine.delete(arg)


class TestRacingReadsVsRoutedWrites:
    def _race(self, data, write_ops, queries, batch_size: int, backend="inproc"):
        observations = []  # (epoch, query_index, ids, scores)
        obs_lock = threading.Lock()
        started = 0
        done = 0
        stop = threading.Event()
        errors: list[BaseException] = []

        with ShardedGIREngine(
            data, shards=SHARDS, partitioner="round_robin", backend=backend
        ) as engine:
            spy_ownership(engine.cache, CACHE_METHODS)
            if backend == "inproc":
                for shard in engine.shards:
                    spy_ownership(shard, ENGINE_METHODS)
                    spy_ownership(shard.cache, CACHE_METHODS)
            # Warm the cluster cache so racing reads are mostly fast
            # cache hits — slow cold GIR computations would overlap
            # every write and leave no untorn observation.
            for q in queries:
                engine.topk(q, K)

            def writer():
                nonlocal started, done
                try:
                    for op in write_ops:
                        started += 1
                        apply_op(engine, op)
                        done += 1
                        # Yield so reads can land between writes.
                        time.sleep(0.003)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                finally:
                    stop.set()

            def read_once(i: int) -> None:
                idxs = [(i + j) % len(queries) for j in range(batch_size)]
                a = done
                resps = engine.topk_batch(
                    [Request(weights=queries[q], k=K) for q in idxs]
                )
                b = started
                if a == b:
                    with obs_lock:
                        for q, r in zip(idxs, resps):
                            observations.append((a, q, r.ids, r.scores))

            def reader(offset: int):
                i = offset
                try:
                    while not stop.is_set():
                        read_once(i)
                        i += 1
                    # One post-quiescence read: the writer is done, so
                    # this is untorn by construction and guarantees the
                    # final epoch is always represented.
                    read_once(i)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            readers = [
                threading.Thread(target=reader, args=(off,))
                for off in (0, 5)
            ]
            w = threading.Thread(target=writer)
            for t in readers:
                t.start()
            w.start()
            w.join()
            for t in readers:
                t.join()

        assert errors == [], errors
        assert observations, "no untorn read observed any epoch"
        return observations

    def _replay_and_check(self, data, write_ops, queries, observations):
        by_epoch: dict[int, list] = {}
        for epoch, q, ids, scores in observations:
            by_epoch.setdefault(epoch, []).append((q, ids, scores))

        with ShardedGIREngine(
            data, shards=SHARDS, partitioner="round_robin"
        ) as reference:
            applied = 0
            for epoch in sorted(by_epoch):
                while applied < epoch:
                    apply_op(reference, write_ops[applied])
                    applied += 1
                for q, ids, scores in by_epoch[epoch]:
                    ref = reference.topk(queries[q], K)
                    assert ref.ids == ids, (
                        f"epoch {epoch}, query {q}: racing answer "
                        f"{ids} != sequential replay {ref.ids}"
                    )
                    # Scores carry the tier-wide serving-path bound
                    # (tests/test_cluster.py): a cache hit returns the
                    # stored bits, a recompute the freshly merged ones —
                    # identical rid order, <= 1 ulp apart in score.
                    np.testing.assert_allclose(
                        np.asarray(ref.scores),
                        np.asarray(scores),
                        rtol=0,
                        atol=1e-12,
                    )

    @pytest.mark.parametrize("backend", ["inproc", "process"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_reads_match_sequential_replay(
        self, data, write_ops, queries, batch_size, backend
    ):
        obs = self._race(data, write_ops, queries, batch_size, backend)
        self._replay_and_check(data, write_ops, queries, obs)

    def test_reads_observe_intermediate_epochs(self, data, write_ops, queries):
        # The race is only meaningful if reads actually interleave with
        # the write sequence rather than all landing before or after it.
        obs = self._race(data, write_ops, queries, batch_size=1)
        epochs = {epoch for epoch, *_ in obs}
        assert any(0 < e < WRITES for e in epochs) or len(epochs) > 1, (
            f"reads never interleaved with writes (epochs seen: "
            f"{sorted(epochs)}); the stress test is vacuous"
        )

