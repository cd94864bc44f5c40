"""Tests for the observability subsystem (`repro.obs`).

Covers the span/collector contract (nesting, balance, ring capacity,
atomic records, remote-context adoption, minted span ids), the
counter-reporting contract (every counter a stats or report class keeps
is a key of its report), the exporters, the span shape of a process
fan-out, and two end-to-end properties:

* serving is **bit-identical** with tracing on vs off (the front door
  and a process-backed cluster both), and
* worker-process spans **stitch** under the router's trace ids through
  the wire protocol.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.cluster import ShardedGIREngine
from repro.data.synthetic import make_synthetic
from repro.engine import GIREngine, Request, flash_crowd_workload
from repro.index.bulkload import bulk_load_str
from repro.serve import ServeFront, ServeStats, replay_serial_check
from tests.test_serve import drive

D = 3
N = 400


@pytest.fixture(autouse=True)
def _tracing_off_after():
    """Every test leaves tracing disarmed with an empty collector."""
    yield
    obs.disable()
    obs.reset_collector()


@pytest.fixture(scope="module")
def data():
    return make_synthetic("IND", N, D, seed=7)


def fresh_engine(data) -> GIREngine:
    return GIREngine(data, bulk_load_str(data), cache_capacity=64)


class TestSpans:
    def test_nested_spans_share_trace_and_parent_chain(self):
        obs.reset_collector()
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = obs.drain()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[1].parent_id is None

    def test_trace_always_roots_a_fresh_trace(self):
        obs.reset_collector()
        obs.enable()
        with obs.span("ambient"):
            with obs.trace("root") as root:
                assert root.parent_id is None
            with obs.span("child") as child:
                assert child.trace_id != root.trace_id
        assert len({s.trace_id for s in obs.drain()}) == 2

    def test_attrs_and_error_tagging(self):
        obs.reset_collector()
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing", k=10) as sp:
                sp.set("extra", "yes")
                raise ValueError("boom")
        (record,) = obs.drain()
        assert record.attrs == {"k": 10, "extra": "yes", "error": "ValueError"}
        assert obs.collector().balanced

    def test_balance_counters_and_drain_reset(self):
        obs.reset_collector()
        obs.enable()
        with obs.span("a"):
            pass
        leaky = obs.span("leaky")
        leaky.__enter__()  # opened by hand: nothing closes it yet
        stats = obs.collector().stats()
        assert stats["started"] == 2 and stats["finished"] == 1
        assert not stats["balanced"]
        leaky.__exit__(None, None, None)
        assert obs.collector().balanced
        obs.drain()
        stats = obs.collector().stats()
        assert stats == {
            "started": 0,
            "finished": 0,
            "dropped": 0,
            "absorbed": 0,
            "buffered": 0,
            "capacity": stats["capacity"],
            "balanced": True,
        }

    def test_ring_drops_oldest_beyond_capacity(self):
        default_capacity = obs.collector().capacity
        obs.enable(capacity=4)
        try:
            for i in range(7):
                with obs.trace(f"s{i}"):
                    pass
            stats = obs.collector().stats()
            assert stats["dropped"] == 3 and stats["buffered"] == 4
            names = [s.name for s in obs.drain()]
            assert names == ["s3", "s4", "s5", "s6"]
        finally:
            obs.enable(capacity=default_capacity)  # restore the ring size
            obs.disable()

    def test_record_span_is_atomic_and_parents_under_ambient(self):
        obs.reset_collector()
        obs.enable()
        with obs.span("parent") as parent:
            obs.record_span("queued", 1.0, 1.5, queue="ingress")
        spans = obs.drain()
        queued = next(s for s in spans if s.name == "queued")
        assert queued.parent_id == parent.span_id
        assert queued.dur_us == pytest.approx(0.5e6)
        assert queued.attrs == {"queue": "ingress"}
        assert obs.collector().balanced

    def test_record_span_explicit_context_and_rootless(self):
        obs.reset_collector()
        obs.enable()
        obs.record_span("remote", 0.0, 1.0, trace_ctx=("t-x", "s-x"))
        obs.record_span("orphan", 0.0, 1.0)
        remote, orphan = obs.drain()
        assert (remote.trace_id, remote.parent_id) == ("t-x", "s-x")
        assert orphan.parent_id is None and orphan.trace_id != "t-x"

    def test_use_trace_adopts_remote_parent(self):
        obs.reset_collector()
        obs.enable()
        with obs.use_trace(("t-wire", "s-wire")):
            assert obs.current() == ("t-wire", "s-wire")
            with obs.span("worker.side") as sp:
                assert sp.trace_id == "t-wire"
                assert sp.parent_id == "s-wire"
        assert obs.current() is None
        with obs.use_trace(None):
            assert obs.current() is None

    def test_record_span_under_a_minted_id_adopts_its_children(self):
        obs.reset_collector()
        obs.enable()
        with obs.span("fanout") as fan:
            call = (fan.trace_id, obs.new_span_id())
            with obs.use_trace(call), obs.span("wire.encode") as child:
                pass
            obs.record_span("shard.call", 1.0, 2.0, span_id=call[1])
        by_name = {s.name: s for s in obs.drain()}
        assert by_name["shard.call"].span_id == call[1]
        assert by_name["shard.call"].parent_id == fan.span_id
        assert child.parent_id == call[1]

    def test_absorb_merges_foreign_records_without_balance_impact(self):
        obs.reset_collector()
        obs.enable()
        payload = {
            "trace_id": "t-w",
            "span_id": "s-w1",
            "parent_id": "s-router",
            "name": "shard.worker",
            "t0_us": 1.0,
            "dur_us": 2.0,
            "pid": 99,
            "tid": 1,
            "attrs": {"shard": 0},
        }
        assert obs.absorb([payload]) == 1
        assert obs.collector().balanced
        (record,) = obs.drain()
        assert record.span_id == "s-w1" and record.pid == 99


class TestDisabledMode:
    def test_disabled_sites_are_inert(self):
        obs.disable()
        obs.reset_collector()
        assert obs.span("x") is obs.span("y") is obs.trace("z")
        assert obs.use_trace(("t", "s")) is obs.span("x")
        with obs.span("nothing") as sp:
            sp.set("ignored", 1)
        obs.record_span("nothing", 0.0, 1.0)
        assert obs.current() is None
        assert obs.drain() == []
        assert obs.collector().stats()["started"] == 0


def _zero_counters(obj) -> set[str]:
    """Public ``int``/``float`` attributes of ``obj`` that are zero."""
    names = set(getattr(obj, "__dict__", ())) | set(getattr(type(obj), "__slots__", ()))
    return {
        name
        for name in names
        if not name.startswith("_")
        and type(getattr(obj, name)) in (int, float)
        and getattr(obj, name) == 0
    }


def _report_keys(report: dict) -> set[str]:
    keys = set(report)
    for value in report.values():
        if isinstance(value, dict):
            keys |= _report_keys(value)
    return keys


class TestCounterReporting:
    """A counter that is incremented but missing from its class's report
    drops a column from every saved report. Each class that reports is
    taken fresh, so every counter it keeps is zero, and each such
    counter must be a key of the report."""

    def test_every_counter_reaches_its_report(self, data):
        engine = fresh_engine(data)
        collector = obs.TraceCollector()
        serve_stats = ServeStats()
        with ShardedGIREngine(data, shards=2, backend="inproc") as sharded:
            cases = [
                (serve_stats, serve_stats.to_dict()),
                (collector, collector.stats()),
                (engine.cache, engine.cache.stats()),
                (engine, engine.stats()),
                (sharded, sharded.stats()),
            ]
            for obj, report in cases:
                counters = _zero_counters(obj)
                assert counters, type(obj).__name__
                missing = counters - _report_keys(report)
                assert not missing, f"{type(obj).__name__} does not report {sorted(missing)}"


class TestExporters:
    def _sample_spans(self):
        obs.reset_collector()
        obs.enable()
        with obs.trace("serve.request", k=5):
            with obs.span("engine.topk_batch"):
                pass
        with obs.trace("serve.request"):
            pass
        spans = obs.drain()
        obs.disable()
        return spans

    def test_chrome_trace_shape(self):
        spans = self._sample_spans()
        doc = obs.chrome_trace(spans)
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 3
        event = doc["traceEvents"][0]
        assert event["ph"] == "X" and event["cat"] == "repro"
        assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(event)
        assert event["args"]["trace_id"] == spans[0].trace_id

    def test_spans_by_trace_and_roots(self):
        spans = self._sample_spans()
        grouped = obs.spans_by_trace(spans)
        assert len(grouped) == 2
        big = next(recs for recs in grouped.values() if len(recs) == 2)
        roots = obs.trace_roots(big)
        assert [r.name for r in roots] == ["serve.request"]

    def test_explain_renders_indented_tree(self):
        spans = self._sample_spans()
        text = obs.explain(spans)
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert "serve.request" in lines[1] and "[k=5]" in lines[1]
        assert lines[2].lstrip().startswith("engine.topk")
        assert len(lines[2]) - len(lines[2].lstrip()) > (
            len(lines[1]) - len(lines[1].lstrip())
        )
        assert obs.explain([]) == "(no spans collected)"
        assert "no spans for trace" in obs.explain(spans, trace_id="missing")

class TestServeTracing:
    def test_traced_serving_is_equivalent_and_stitched(self, data):
        workload = flash_crowd_workload(D, 60, k=8, rng=1)
        obs.reset_collector()
        obs.enable()
        try:
            front, _ = drive(fresh_engine(data), workload, concurrency=16)
        finally:
            obs.disable()
        collector_stats = obs.collector().stats()
        spans = obs.drain()
        verdict = replay_serial_check(front.log, fresh_engine(data))
        assert verdict["all_match"], verdict["examples"]
        assert collector_stats["balanced"]
        assert collector_stats["dropped"] == 0
        grouped = obs.spans_by_trace(spans)
        stitched = [
            tid
            for tid, recs in grouped.items()
            if any(r.name == "serve.request" for r in recs)
            and any(r.name.startswith("engine.") for r in recs)
        ]
        # every engine-bridged trace carries the request root
        assert stitched, sorted({r.name for r in spans})

    def test_inline_hits_record_the_hit_batch_span_and_stitch(self, data):
        """Full hits served on the loop (the bridge idle) record a
        ``serve.hit_batch`` span, not the bridge's ``serve.engine_batch``,
        under the first leader's request, with the engine's spans nested
        beneath it."""
        hot = np.random.default_rng(4).random((6, D)) * 0.8 + 0.1
        engine = fresh_engine(data)
        engine.topk_batch([Request(w, 5) for w in hot])
        obs.reset_collector()
        obs.enable()
        try:

            async def go():
                async with ServeFront(engine) as front:
                    return await asyncio.gather(*(front.topk(w, 5) for w in hot))

            responses = asyncio.run(go())
        finally:
            obs.disable()
        spans = obs.drain()
        assert [r.source for r in responses] == ["cache"] * 6
        assert not [r for r in spans if r.name == "serve.engine_batch"]
        (batch,) = [r for r in spans if r.name == "serve.hit_batch"]
        assert batch.attrs["n"] == 6
        trace = obs.spans_by_trace(spans)[batch.trace_id]
        (root,) = [r for r in trace if r.name == "serve.request"]
        assert batch.parent_id == root.span_id
        (hits,) = [r for r in trace if r.name == "engine.serve_hits"]
        assert hits.parent_id == batch.span_id
        served = [r for r in trace if r.name == "engine.serve"]
        assert [r.attrs["source"] for r in served] == ["cache"] * 6


class TestClusterTracing:
    @pytest.fixture(scope="class")
    def cluster_data(self):
        return make_synthetic("IND", 600, D, seed=11)

    def _answers(self, engine, requests):
        return [tuple(engine.topk(w, k).ids) for w, k in requests]

    def test_process_cluster_bit_identical_and_worker_spans_stitch(
        self, cluster_data
    ):
        rng = np.random.default_rng(5)
        requests = [
            (rng.random(D) + 0.05, 5 + (i % 3)) for i in range(12)
        ]

        def make_cluster():
            return ShardedGIREngine(
                cluster_data,
                shards=2,
                backend="process",
                cache_capacity=16,
                cluster_cache_capacity=16,
            )

        with make_cluster() as engine:
            baseline = self._answers(engine, requests)

        obs.reset_collector()
        obs.enable()
        try:
            with make_cluster() as engine:
                traced = self._answers(engine, requests)
                drained = engine.drain_worker_spans()
        finally:
            obs.disable()
        collector_stats = obs.collector().stats()
        spans = obs.drain()

        assert traced == baseline  # tracing must not change answers
        assert collector_stats["balanced"]
        assert drained["spans"] > 0 and drained["dropped"] == 0
        assert drained["started"] == drained["finished"]

        router_pid = spans[0].pid if spans else 0
        router_spans = [s for s in spans if s.pid == router_pid]
        worker_spans = [s for s in spans if s.pid != router_pid]
        assert worker_spans, "no worker-process spans came back"
        router_trace_ids = {s.trace_id for s in router_spans}
        known_span_ids = {s.span_id for s in spans}
        for ws in worker_spans:
            assert ws.trace_id in router_trace_ids
            assert ws.parent_id in known_span_ids
        names = {s.name for s in worker_spans}
        assert "shard.worker" in names
        assert any(n.startswith("engine.") for n in names)

    def test_process_fanout_span_shape(self, cluster_data):
        """Each fan-out has one ``shard.call`` child per shard; each
        worker's ``shard.worker`` span parents under its own shard's
        call; and the calls of one fan-out overlap — both frames are
        sent before either reply is read."""
        rng = np.random.default_rng(6)
        obs.reset_collector()
        obs.enable()
        try:
            with ShardedGIREngine(
                cluster_data, shards=2, backend="process",
                cluster_cache_capacity=0,
            ) as engine:
                shard_of_pid = {
                    b._proc.pid: s for s, b in enumerate(engine.backends)
                }
                for _ in range(8):
                    engine.topk(rng.random(D) + 0.05, 5)
                engine.drain_worker_spans()
        finally:
            obs.disable()
        spans = obs.drain()
        by_id = {s.span_id: s for s in spans}
        fanouts = [s for s in spans if s.name == "cluster.fanout"]
        calls = [s for s in spans if s.name == "shard.call"]
        assert len(fanouts) == 8
        assert len(calls) == 2 * len(fanouts)
        for fan in fanouts:
            a, b = sorted(
                (c for c in calls if c.parent_id == fan.span_id),
                key=lambda c: c.attrs["shard"],
            )
            assert (a.attrs["shard"], b.attrs["shard"]) == (0, 1)
            assert a.t0_us < b.t0_us + b.dur_us
            assert b.t0_us < a.t0_us + a.dur_us
        workers = [s for s in spans if s.name == "shard.worker"]
        assert len(workers) == len(calls)
        for w in workers:
            call = by_id[w.parent_id]
            assert call.name == "shard.call"
            assert call.attrs["shard"] == shard_of_pid[w.pid]

    def test_trace_off_cluster_reports_no_spans(self, cluster_data):
        obs.disable()
        obs.reset_collector()
        with ShardedGIREngine(
            cluster_data, shards=2, backend="process"
        ) as engine:
            engine.topk(np.array([0.4, 0.3, 0.3]), 5)
            drained = engine.drain_worker_spans()
        assert drained == {
            "spans": 0, "started": 0, "finished": 0, "dropped": 0,
        }
        assert obs.drain() == []
