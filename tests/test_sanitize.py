"""Tests for the ownership spy (``tests/conftest.py::spy_ownership``).

``GIREngine``, ``GIRCache`` and ``RegionIndex`` are single-owner: one
thread at a time, the router's serve lock being the program's one lock.
The spy is the check of that contract which the concurrency tests
(``test_cluster_stress.py``, ``test_serve.py``) rely on, so here it is
checked on its own, without a race to find: on a toy structure
(``TestAccessToken``) and on the engine's real ones
(``TestProductionWiring``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.caching import GIRCache
from repro.data.synthetic import independent
from repro.engine.engine import GIREngine
from tests.conftest import CACHE_METHODS, ENGINE_METHODS, Overlap, spy_ownership


class Box:
    """A toy structure whose methods can hold their caller inside."""

    def mutate(self, inside=None, release=None):
        if inside is not None:
            inside.set()
            release.wait(5)
        return self.read()

    def read(self, inside=None, release=None):
        if inside is not None:
            inside.set()
            release.wait(5)
        return 1


def spied_box():
    box = Box()
    return box, spy_ownership(box, ("mutate", "read"))


class TestAccessToken:
    def test_serialized_cross_thread_accesses_pass(self):
        box, threads = spied_box()
        for _ in range(3):
            t = threading.Thread(target=box.mutate)
            t.start()
            t.join(5)
            assert not t.is_alive()
        assert box.mutate() == 1
        assert len(threads["mutate"]) >= 2  # the main thread and a worker

    @pytest.mark.parametrize("mine,other", [
        ("mutate", "mutate"),
        ("mutate", "read"),
        ("read", "mutate"),
    ])  # fmt: skip
    def test_overlap_with_a_mutation_raises_with_both_stacks(self, mine, other):
        box, _ = spied_box()
        inside, release = threading.Event(), threading.Event()
        t = threading.Thread(target=getattr(box, other), args=(inside, release))
        t.start()
        assert inside.wait(5)
        try:
            with pytest.raises(Overlap, match=rf"Box\.{mine} entered by two threads") as err:
                getattr(box, mine)()
        finally:
            release.set()
            t.join(5)
        assert not t.is_alive()
        message = str(err.value)
        assert "--- this thread" in message
        assert "--- other thread" in message
        # Both stacks are real tracebacks through this test module.
        assert message.count("test_sanitize.py") >= 2
        assert box.mutate() == 1  # the owner left: the next caller is let in

    def test_same_thread_nesting_is_reentrant(self):
        box, threads = spied_box()
        assert box.mutate() == 1  # mutate calls the spied read
        assert threads["read"] == {threading.get_ident()}


class TestProductionWiring:
    def test_seeded_race_is_detected(self):
        # A worker held inside the cache's lookup while the main thread
        # flushes: two threads inside one real GIRCache at once.
        cache = GIRCache(capacity=4)
        inside, release = threading.Event(), threading.Event()
        lookup = cache.lookup

        def held_lookup(weights, k):
            inside.set()
            release.wait(5)
            return lookup(weights, k)

        cache.lookup = held_lookup
        spy_ownership(cache, CACHE_METHODS)
        t = threading.Thread(target=cache.lookup, args=(np.full(3, 0.5), 3))
        t.start()
        assert inside.wait(5)
        try:
            with pytest.raises(Overlap, match=r"GIRCache\.flush entered by two threads") as err:
                cache.flush()
        finally:
            release.set()
            t.join(5)
        assert not t.is_alive()
        assert "held_lookup" in str(err.value).split("--- other thread")[1]
        assert cache.flush() == 0  # the owner left: the next caller is let in

    def test_serialized_use_of_instrumented_structure_passes(self):
        # Reads and writes on one spied GIREngine from threads taking
        # turns: no overlap, and the answers of a serial engine.
        data = independent(300, 3, seed=9)
        rng = np.random.default_rng(17)
        q0, q1, p = rng.random(3) + 0.05, rng.random(3) + 0.05, rng.random(3)
        ops = [
            ("topk", q0), ("topk", q0), ("insert", p), ("topk", q1),
            ("delete", 5), ("topk", q0), ("topk", q1),
        ]  # fmt: skip

        def apply(engine, op, out):
            kind, arg = op
            if kind == "topk":
                out.append(engine.topk(arg, 5).ids)
            elif kind == "insert":
                engine.insert(arg)
            else:
                engine.delete(arg)

        engine = GIREngine(data, cache_capacity=8)
        spy_ownership(engine.cache, CACHE_METHODS)
        threads = spy_ownership(engine, ENGINE_METHODS)
        answers: list = []
        for op in ops:
            t = threading.Thread(target=apply, args=(engine, op, answers))
            t.start()
            t.join(30)
            assert not t.is_alive()
        apply(engine, ("topk", q1), answers)

        serial = GIREngine(data, cache_capacity=8)
        expected: list = []
        for op in [*ops, ("topk", q1)]:
            apply(serial, op, expected)
        assert answers == expected
        assert len(threads["topk_batch"]) >= 2  # the main thread and a worker
        assert engine.stats()["full_hits"] >= 1
