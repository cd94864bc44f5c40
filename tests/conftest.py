"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import traceback

import numpy as np
import pytest

from repro.core.tolerances import CONTAINMENT_TOL
from repro.data.synthetic import anticorrelated, correlated, independent
from repro.engine import InsertOp, Request
from repro.index.bulkload import bulk_load_str

#: The keyword arguments the performance ledger's ``sharded_rw`` workload
#: builds its cluster with (``benchmarks/ledger/workloads.py``) — among
#: them the ``parallel`` flag, which the cluster accepts and ignores.
LEDGER_CLUSTER_KWARGS = {
    "shards": 2,
    "backend": "process",
    "parallel": True,
    "partitioner": "round_robin",
    "method": "fp",
    "cache_capacity": 128,
    "cache_policy": "lru",
    "cluster_cache_capacity": 256,
    "page_sleep_ms": 0.0,
}


#: The serving surface every engine shares, and the entry points of its
#: GIR cache: what :func:`spy_ownership` watches on each.
ENGINE_METHODS = ("topk_batch", "serve_hits", "insert", "delete")
CACHE_METHODS = (
    "entry", "items", "insert", "lookup", "lookup_scan", "lookup_batch",
    "lookup_window", "resolve_hits", "resolve_miss", "resolve",
    "prescreen_insert", "evict", "flush",
)  # fmt: skip


class Overlap(AssertionError):
    """A second thread entered a single-owner structure while another
    thread was still inside it."""


def spy_ownership(obj, names) -> dict[str, set[int]]:
    """Wrap the methods ``names`` of the instance ``obj`` (its class is
    untouched) with an ownership check: a call raises :class:`Overlap`
    when another thread is inside any of them, with the stacks of both
    threads; the thread inside may nest its own calls. Reads and writes
    are not told apart: every structure it watches is fully serialized.
    Returns the record it fills, ``{name: idents of the threads that
    called it}``."""
    guard = threading.Lock()
    owner, depth = None, 0
    threads: dict[str, set[int]] = {name: set() for name in names}

    def wrap(name, method):
        @functools.wraps(method)
        def spied(*args, **kwargs):
            nonlocal owner, depth
            me = threading.get_ident()
            with guard:
                if depth and owner != me:
                    other = sys._current_frames()[owner]
                    raise Overlap(
                        f"{type(obj).__name__}.{name} entered by two threads\n"
                        f"--- this thread\n{''.join(traceback.format_stack())}"
                        f"--- other thread\n{''.join(traceback.format_stack(other))}"
                    )
                owner, depth = me, depth + 1
                threads[name].add(me)
            try:
                return method(*args, **kwargs)
            finally:
                with guard:
                    depth -= 1

        return spied

    for name in names:
        setattr(obj, name, wrap(name, getattr(obj, name)))
    return threads


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20140622)  # SIGMOD'14 started June 22


@pytest.fixture(scope="session")
def small_ind_2d():
    """A small independent 2-d dataset with its bulk-loaded tree."""
    data = independent(400, 2, seed=7)
    return data, bulk_load_str(data)


@pytest.fixture(scope="session")
def small_ind_4d():
    data = independent(1200, 4, seed=11)
    return data, bulk_load_str(data)


@pytest.fixture(scope="session")
def small_anti_3d():
    data = anticorrelated(800, 3, seed=13)
    return data, bulk_load_str(data)


@pytest.fixture(scope="session")
def small_cor_3d():
    data = correlated(800, 3, seed=17)
    return data, bulk_load_str(data)


def random_query(rng: np.random.Generator, d: int) -> np.ndarray:
    """A strictly positive query vector away from the space boundary."""
    return rng.random(d) * 0.8 + 0.1


def assert_same_region(a, b, msg=""):
    """Region equality of two GIR results by vertex sets.

    Both regions are bounded (they sit inside the unit query box), so
    ``a ⊇ b`` iff every vertex of ``b`` lies in ``a`` — one matmul per
    direction, where :func:`assert_same_region_lp` pays one LP per
    constraint (the exhaustive GIR* oracle has thousands)."""
    va, vb = a.polytope.vertices(), b.polytope.vertices()
    assert len(va) and len(vb), f"{msg}: a region has no vertices"
    assert a.polytope.contains_batch(vb, tol=CONTAINMENT_TOL).all(), (
        f"{msg}: first ⊉ second"
    )
    assert b.polytope.contains_batch(va, tol=CONTAINMENT_TOL).all(), (
        f"{msg}: second ⊉ first"
    )


def assert_same_region_lp(a, b, msg=""):
    """Region equality by mutual LP containment — keep to small cases."""
    assert a.polytope.contains_polytope(b.polytope), f"{msg}: first ⊉ second"
    assert b.polytope.contains_polytope(a.polytope), f"{msg}: second ⊉ first"


def _apply_update(engine, op):
    if isinstance(op, InsertOp):
        return engine.insert(op.point)
    return engine.delete(op.rid)


def run_serial(engine, workload) -> tuple[list, list]:
    """Replay a workload one operation at a time: each read a batch of
    one, each update at its stream position. Returns ``(responses,
    updates)`` in stream order; the engine's counters are in
    ``engine.stats()``."""
    responses, updates = [], []
    for op in workload:
        if isinstance(op, Request):
            responses.append(engine.topk(op.weights, op.k))
        else:
            updates.append(_apply_update(engine, op))
    return responses, updates


def run_batched(engine, workload) -> tuple[list, list]:
    """Replay a workload with every maximal run of consecutive reads as
    *one* ``topk_batch`` call (updates one at a time, at their stream
    positions) — the multi-request counterpart of :func:`run_serial`,
    returning the same ``(responses, updates)`` pair."""
    responses, updates = [], []
    for is_read, ops in itertools.groupby(
        workload, key=lambda op: isinstance(op, Request)
    ):
        if is_read:
            responses.extend(engine.topk_batch(list(ops)))
        else:
            updates.extend(_apply_update(engine, op) for op in ops)
    return responses, updates
