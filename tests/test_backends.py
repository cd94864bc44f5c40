"""Tests for the pluggable shard-execution backends (`repro.cluster.backends`).

The headline property extends PR 4's: a process-backed cluster — one
worker process per shard, every request and reply crossing the versioned
wire format — is *byte-identical* to the in-process cluster (exact float
equality, not just tolerance) and observably identical to a single
:class:`GIREngine`, across shard counts × partitioners × batch sizes
(singleton / multi-request) × mixed read/write workloads. A process
fan-out sends every shard its request before reading any reply, on the
caller's thread; the tests below pin what that must not break.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    BACKENDS,
    InProcBackend,
    ProcessBackend,
    ShardSpec,
    ShardedGIREngine,
    make_backend,
)
from repro.cluster.wire import WorkerFailure
from repro.data.synthetic import anticorrelated, independent
from repro.engine import (
    GIREngine,
    Request,
    mixed_workload,
    uniform_workload,
    zipf_clustered_workload,
)
from repro.index.bulkload import bulk_load_str
from repro.scoring import LinearScoring, MonotoneScoring
from tests.conftest import LEDGER_CLUSTER_KWARGS, run_batched, run_serial

N, D, K = 500, 3, 5
REPO = Path(__file__).resolve().parents[1]

#: One thread polls ``stats()`` while the main thread serves 60 batches
#: of 4 misses on two process shards; the answers must equal an
#: in-process cluster's on the same stream.
STATS_DURING_SERVING = """
import threading
import numpy as np
from repro.cluster import ShardedGIREngine
from repro.data.synthetic import independent
from repro.engine import Request

data = independent(500, 3, seed=19)
rng = np.random.default_rng(31)
stream = [[Request(rng.random(3) + 0.05, 5) for _ in range(4)] for _ in range(60)]
answers = {}
for backend in ("inproc", "process"):
    with ShardedGIREngine(data, shards=2, backend=backend) as engine:
        stop, errors, polls = threading.Event(), [], [0]

        def poll():
            try:
                while not stop.is_set():
                    engine.stats()
                    polls[0] += 1
            except Exception as exc:
                errors.append(exc)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            answers[backend] = [
                (r.ids, r.scores) for batch in stream for r in engine.topk_batch(batch)
            ]
        finally:
            stop.set()
            poller.join(timeout=60)
        assert not poller.is_alive()
        assert errors == [], errors
        assert polls[0] > 0
assert answers["process"] == answers["inproc"]
print("STATS-OK", len(answers["process"]))
"""


@pytest.fixture(scope="module")
def data():
    return independent(N, D, seed=19)


@pytest.fixture(scope="module")
def spec(data):
    return ShardSpec(
        shard=0,
        name="t[shard0]",
        points=np.asarray(data.points),
        method="fp",
        cache_capacity=16,
        page_sleep_ms=0.0,
        scorer=LinearScoring(D),
    )


@pytest.fixture(scope="module")
def workloads():
    return {
        "uniform": uniform_workload(D, 15, k=K, rng=201),
        "zipf": zipf_clustered_workload(D, 25, k=K, clusters=4, rng=202),
        "mixed": mixed_workload(
            D, 30, base_n=N, k=K, update_fraction=0.3, rng=203
        ),
        "anti_zipf": zipf_clustered_workload(D, 25, k=K, clusters=4, rng=204),
    }


@pytest.fixture(scope="module")
def datasets(data):
    """The dataset each workload runs against (ANTI for ``anti_zipf``)."""
    anti = anticorrelated(N, D, seed=19)
    return {"uniform": data, "zipf": data, "mixed": data, "anti_zipf": anti}


def exact_match(report, other) -> None:
    """Bit-exact equality of two ``(responses, updates)`` replays — the
    backend-equivalence bar (stricter than the cluster-vs-single-engine
    tolerance)."""
    (responses, updates), (other_responses, other_updates) = report, other
    assert len(responses) == len(other_responses)
    for r, s in zip(responses, other_responses):
        assert r.ids == s.ids
        assert r.scores == s.scores  # exact float equality
        assert (r.k, r.source, r.pages_read) == (s.k, s.source, s.pages_read)
    assert [
        (u.kind, u.rid, u.evicted, u.prescreen_screened, u.cache_entries)
        for u in updates
    ] == [
        (u.kind, u.rid, u.evicted, u.prescreen_screened, u.cache_entries)
        for u in other_updates
    ]


class TestBackendContract:
    """Unit-level checks of the two backends against one shard spec."""

    def test_registry(self, spec):
        assert set(BACKENDS) == {"inproc", "process"}
        with pytest.raises(ValueError, match="unknown shard backend"):
            make_backend("socket", spec)
        with pytest.raises(TypeError, match="registry name"):
            make_backend(42, spec)

    def test_custom_backend_class_accepted(self, spec):
        class MyBackend(InProcBackend):
            name = "custom"

        backend = make_backend(MyBackend, spec)
        assert isinstance(backend, MyBackend)
        assert backend.topk_batch([(np.array([0.5, 0.5, 0.5]), 3)])[0].ids

    def test_double_build_rejected(self, spec):
        backend = make_backend("inproc", spec)
        with pytest.raises(RuntimeError, match="already built"):
            backend.build(spec)

    def test_process_reply_bit_exact(self, spec):
        a = make_backend("inproc", spec)
        b = make_backend("process", spec)
        try:
            w = np.array([0.6, 0.3, 0.8])
            (ra,), (rb,) = a.topk_batch([(w, K)]), b.topk_batch([(w, K)])
            assert ra.ids == rb.ids
            assert ra.scores == rb.scores
            assert ra.tie_sums == rb.tie_sums
            assert ra.points_g.tobytes() == rb.points_g.tobytes()
            assert ra.region.A.tobytes() == rb.region.A.tobytes()
            assert ra.region.b.tobytes() == rb.region.b.tobytes()
            assert (ra.source, ra.pages_read) == (rb.source, rb.pages_read)
            assert a.stats() == b.stats()
        finally:
            a.close()
            b.close()

    def test_worker_error_propagates_and_worker_survives(self, spec):
        backend = make_backend("process", spec)
        try:
            with pytest.raises(WorkerFailure, match="KeyError") as info:
                backend.delete(10_000)
            # A clean failure (the engine never mutated): the worker
            # caught the error and keeps serving.
            assert not info.value.dirty
            assert backend.topk_batch([(np.array([0.5, 0.5, 0.5]), 3)])[0].ids
        finally:
            backend.close()

    def test_dirty_write_failure_poisons_the_worker(self, spec, monkeypatch):
        """A write failing after the worker's engine mutated marks the
        worker broken: it reports dirty=True and refuses further
        operations (the router fail-stops on its side)."""

        def boom(*args, **kwargs):
            raise RuntimeError("insert screen fell over")

        # Patch before the fork so the worker inherits the broken step.
        monkeypatch.setattr(
            "repro.engine.engine.apply_insert_invalidation", boom
        )
        backend = make_backend("process", spec)
        try:
            with pytest.raises(WorkerFailure, match="insert failed") as info:
                backend.insert(np.array([0.9, 0.9, 0.9]))
            assert info.value.dirty
            with pytest.raises(WorkerFailure, match="refuses further"):
                backend.topk_batch([(np.array([0.5, 0.5, 0.5]), 3)])
            # Stats stay reachable for post-mortem inspection.
            assert backend.stats()["live_records"] == N + 1
        finally:
            backend.close()

    def test_close_is_idempotent_and_terminal(self, spec):
        backend = make_backend("process", spec)
        assert backend.topk_batch([(np.array([0.5, 0.5, 0.5]), 3)])[0].ids
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError, match="not running"):
            backend.topk_batch([(np.array([0.5, 0.5, 0.5]), 3)])


class TestProcessClusterEquivalence:
    """The full matrix: process answers == inproc answers == single engine."""

    @pytest.fixture(scope="class")
    def reference_reports(self, datasets, workloads):
        reports = {}
        for name, wl in workloads.items():
            data = datasets[name]
            engine = GIREngine(data, bulk_load_str(data), cache_capacity=64)
            reports[name] = run_serial(engine, wl)
        return reports

    @pytest.mark.parametrize("workload_name", ["uniform", "zipf", "mixed"])
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("partitioner", ["round_robin", "kd"])
    def test_process_matches_inproc_exactly(
        self, data, workloads, reference_reports, workload_name, shards,
        partitioner,
    ):
        wl = workloads[workload_name]
        with ShardedGIREngine(
            data, shards=shards, partitioner=partitioner, backend="inproc"
        ) as inproc:
            inproc_report = run_serial(inproc, wl)
        with ShardedGIREngine(
            data, shards=shards, partitioner=partitioner, backend="process"
        ) as proc:
            proc_report = run_serial(proc, wl)
        exact_match(proc_report, inproc_report)
        # And both observably match the single engine (repo equivalence bar).
        reference = reference_reports[workload_name]
        for r, s in zip(proc_report[0], reference[0]):
            assert r.ids == s.ids
            np.testing.assert_allclose(r.scores, s.scores, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("workload_name", ["zipf", "mixed", "anti_zipf"])
    def test_batched_process_matches_inproc_exactly(
        self, datasets, workloads, reference_reports, workload_name
    ):
        """Multi-request ``topk_batch`` calls: process ≡ inproc bit for
        bit, and both answer as batches of one do."""
        data, wl = datasets[workload_name], workloads[workload_name]
        with ShardedGIREngine(data, shards=2, backend="inproc") as inproc:
            inproc_report = run_batched(inproc, wl)
        with ShardedGIREngine(data, shards=2, backend="process") as proc:
            proc_report = run_batched(proc, wl)
        exact_match(proc_report, inproc_report)
        singles = reference_reports[workload_name][0]
        assert [r.ids for r in proc_report[0]] == [
            r.ids for r in singles
        ]

    def test_shard_stats_parity_and_sums(self, data, workloads):
        """Per-shard accounting (cache counters, page reads) is identical
        across backends and still sums to cluster totals: ``stats()``
        snapshots taken before and after the same replay."""
        wl = workloads["mixed"]
        before, after = {}, {}
        for backend in ("inproc", "process"):
            with ShardedGIREngine(
                data, shards=4, backend=backend
            ) as engine:
                before[backend] = engine.stats()
                responses, _ = run_serial(engine, wl)
                after[backend] = engine.stats()
            shard_pages = sum(
                a["page_reads"] - b["page_reads"]
                for b, a in zip(
                    before[backend]["shard_stats"], after[backend]["shard_stats"]
                )
            )
            assert shard_pages == sum(r.pages_read for r in responses), backend
        assert before["inproc"]["shard_stats"] == before["process"]["shard_stats"]
        assert after["inproc"]["shard_stats"] == after["process"]["shard_stats"]
        assert (
            after["inproc"]["cluster_full_hits"]
            == after["process"]["cluster_full_hits"]
        )

    def test_cluster_stats_name_the_backend(self, data, workloads):
        with ShardedGIREngine(data, shards=2, backend="process") as engine:
            run_serial(engine, workloads["uniform"])
            stats = engine.stats()
        assert stats["backend"] == "process"
        assert stats["requests_served"] == len(workloads["uniform"])

    def test_shards_property_unavailable_for_process(self, data):
        with ShardedGIREngine(data, shards=2, backend="process") as engine:
            with pytest.raises(RuntimeError, match="not in-process"):
                _ = engine.shards

    def test_context_exit_stops_workers(self, data):
        with ShardedGIREngine(data, shards=2, backend="process") as engine:
            engine.topk(np.array([0.5, 0.4, 0.6]), K)
            procs = [b._proc for b in engine.backends]
            assert all(p is not None and p.is_alive() for p in procs)
        assert all(p is None or not p.is_alive() for p in procs)

    def test_validation_stays_router_side(self, data):
        """Malformed requests are rejected before any frame is sent."""
        with ShardedGIREngine(data, shards=2, backend="process") as engine:
            with pytest.raises(ValueError, match="shape"):
                engine.topk(np.array([0.5, 0.5]), K)
            with pytest.raises(ValueError, match="exceeds live"):
                engine.topk(np.array([0.5, 0.5, 0.5]), N + 1)
            with pytest.raises(ValueError, match="finite"):
                engine.insert(np.array([0.5, np.inf, 0.5]))


class TestProcessFanOut:
    def test_failed_shard_leaves_no_stale_reply(self, data):
        """A fan-out whose second shard fails still reads the first
        shard's reply before raising, so that shard's next read returns
        the answer to *its own* request — bit-equal to an in-process
        twin that served the same two requests."""
        first, second = np.array([0.9, 0.1, 0.2]), np.array([0.1, 0.3, 0.9])
        with ShardedGIREngine(
            data, shards=2, backend="process", cluster_cache_capacity=0
        ) as engine:
            engine.backends[1].close()
            with pytest.raises(RuntimeError, match="not running"):
                engine.topk(first, K)
            (got,) = engine.backends[0].topk_batch([(second, K)])
        with ShardedGIREngine(data, shards=2, backend="inproc") as twin:
            shard0 = twin.backends[0]
            (stale,) = shard0.topk_batch([(first, K)])
            (want,) = shard0.topk_batch([(second, K)])
        assert stale.ids != want.ids  # a stale reply would be caught
        assert got.ids == want.ids
        assert got.scores == want.scores
        assert got.points_g.tobytes() == want.points_g.tobytes()
        assert got.region.A.tobytes() == want.region.A.tobytes()
        assert got.region.b.tobytes() == want.region.b.tobytes()
        assert (got.source, got.pages_read) == (want.source, want.pages_read)

    def test_stats_polled_during_serving(self):
        """``stats()`` from a second thread shares the serve lock with the
        fan-out, so its round trips never interleave with a batch's
        frames. Run in a subprocess so a regression fails on the timeout
        instead of hanging the suite."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", STATS_DURING_SERVING],
                capture_output=True, text=True, cwd=REPO, env=env, timeout=120,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("stats() polled during serving hung the cluster")
        assert proc.returncode == 0, proc.stderr
        assert "STATS-OK 240" in proc.stdout

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL")
    def test_killed_worker_raises_not_hangs(self, data):
        """A SIGKILLed worker turns the next read into an error, not a
        hang: with one lock, a read blocked on a dead pipe would hold the
        whole router. Later reads fail the same way and ``close()``
        returns."""
        rng = np.random.default_rng(9)
        engine = ShardedGIREngine(
            data, shards=2, backend="process", cluster_cache_capacity=0
        )
        try:
            worker = engine.backends[1]._proc
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=10)
            assert not worker.is_alive()
            for _ in range(2):
                t0 = time.perf_counter()
                with pytest.raises(RuntimeError, match="died mid-request"):
                    engine.topk(rng.random(D) + 0.05, K)
                assert time.perf_counter() - t0 < 5.0
        finally:
            t0 = time.perf_counter()
            engine.close()
        assert time.perf_counter() - t0 < 10.0

    def test_serving_starts_no_router_thread(self, data):
        """The ledger's cluster fans out on the caller's thread: building
        it and serving reads leaves the set of threads unchanged, and the
        ignored ``parallel`` flag is not stored."""
        rng = np.random.default_rng(8)
        before = sorted(t.name for t in threading.enumerate())
        with ShardedGIREngine(data, **LEDGER_CLUSTER_KWARGS) as engine:
            assert not hasattr(engine, "parallel")
            for _ in range(3):
                engine.topk_batch(
                    [Request(rng.random(D) + 0.05, K) for _ in range(4)]
                )
            assert engine.fanouts > 0
            during = sorted(t.name for t in threading.enumerate())
        assert during == before


class TestProcessBackendDefaults:
    def test_default_start_method_is_fork_on_linux_only(self):
        import multiprocessing
        import sys

        from repro.cluster.backends.process import default_start_method

        expected = (
            "fork"
            if sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        assert default_start_method() == expected

    def test_failed_cluster_build_stops_started_workers(self, data):
        """If a later shard's backend fails to build, the workers already
        started for earlier shards must be shut down, not leaked."""
        started: list[ProcessBackend] = []

        class FlakyBackend(ProcessBackend):
            name = "process"

            def build(self, spec):
                if spec.shard >= 1:
                    raise RuntimeError("no capacity for this shard")
                super().build(spec)
                started.append(self)

        with pytest.raises(RuntimeError, match="no capacity"):
            ShardedGIREngine(data, shards=3, backend=FlakyBackend)
        assert len(started) == 1
        assert started[0]._proc is None  # closed, not leaked

    @pytest.mark.parametrize("kind", ["lambda", "nested_function"])
    def test_unpicklable_scorer_fails_the_build(self, data, kind):
        """The BUILD frame pickles the scorer, so one built from a lambda
        or a nested function fails the process cluster's build loudly,
        before any worker starts. The in-process backend takes it."""
        import multiprocessing

        def square(x):
            return np.power(x, 2.0)

        g = (lambda x: np.power(x, 2.0)) if kind == "lambda" else square
        scorer = MonotoneScoring([g] * D)
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="not picklable"):
            ShardedGIREngine(data, shards=2, backend="process", scorer=scorer)
        assert set(multiprocessing.active_children()) == before
        with ShardedGIREngine(data, shards=2, scorer=scorer) as cluster:
            assert cluster.scorer is scorer

    def test_backend_instances_are_independent(self, spec):
        """Two process backends from one spec hold independent engines:
        a write to one is invisible to the other."""
        a = make_backend("process", spec)
        b = make_backend("process", spec)
        try:
            a.insert(np.array([0.9, 0.9, 0.9]))
            assert a.stats()["live_records"] == N + 1
            assert b.stats()["live_records"] == N
        finally:
            a.close()
            b.close()
