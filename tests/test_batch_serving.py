"""Batch-size independence of the GIREngine's one read path.

`GIREngine.topk` is a batch of one through `topk_batch`, so "batched vs
per-request" is no longer two code paths — but `topk_batch(N requests)`
≡ `N` singleton calls is still a real property: a multi-request batch
resolves its cache membership in one stacked `GIRCache.lookup_batch`
pass and must *restart* that pass after every request that runs the
pipeline (`stop_after_non_full`), or later requests would be judged
against a stale cache. Batching may only change how the membership
arithmetic is grouped, never what is served. These property tests replay
the same workload at both batch sizes on twin engines and compare
everything observable.
"""

import numpy as np
import pytest

from repro.data.synthetic import independent
from repro.engine import (
    GIREngine,
    Request,
    mixed_workload,
    uniform_workload,
    zipf_clustered_workload,
)
from repro.index.bulkload import bulk_load_str
from tests.conftest import random_query, run_batched


@pytest.fixture(scope="module")
def batch_setup():
    data = independent(900, 3, seed=47)
    return data


def make_workload(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return uniform_workload(3, 50, k=6, rng=rng)
    if kind == "zipf":
        return zipf_clustered_workload(3, 70, k=8, clusters=4, rng=rng)
    if kind == "mixed":
        return mixed_workload(
            3, 70, base_n=900, k=5, update_fraction=0.25, rng=rng
        )
    raise ValueError(kind)


def assert_responses_identical(r1, r2):
    assert len(r1.responses) == len(r2.responses)
    for a, b in zip(r1.responses, r2.responses):
        assert a.ids == b.ids
        assert a.scores == b.scores
        assert a.source == b.source
        assert a.k == b.k
        assert a.pages_read == b.pages_read
        assert (a.weights == b.weights).all()


class TestBatchEquivalence:
    @pytest.mark.parametrize("kind", ["uniform", "zipf", "mixed"])
    def test_batch_run_matches_sequential_run(self, batch_setup, kind):
        """Property: for uniform, Zipf-clustered and mixed read/write
        workloads, serving every maximal run of reads as one
        ``topk_batch`` call returns byte-identical responses (answers,
        provenance, page reads) and identical engine/cache counters to
        ``run``'s batches of one."""
        data = batch_setup
        workload = make_workload(kind, seed=101)
        sequential = GIREngine(data, bulk_load_str(data))
        batched = GIREngine(data, bulk_load_str(data))
        r_seq = sequential.run(workload)
        r_bat = run_batched(batched, workload)
        assert_responses_identical(r_seq, r_bat)
        assert sequential.stats() == batched.stats()
        # Update accounting (empty lists for read-only kinds) matches too.
        assert len(r_seq.updates) == len(r_bat.updates)
        for ua, ub in zip(r_seq.updates, r_bat.updates):
            assert (ua.kind, ua.rid, ua.evicted, ua.cache_entries) == (
                ub.kind, ub.rid, ub.evicted, ub.cache_entries,
            )
            assert (ua.prescreen_screened, ua.prescreen_lps) == (
                ub.prescreen_screened, ub.prescreen_lps,
            )

    def test_topk_batch_matches_individual_topk(self, batch_setup, rng):
        data = batch_setup
        reference = GIREngine(data, bulk_load_str(data))
        batched = GIREngine(data, bulk_load_str(data))
        requests = [
            Request(weights=random_query(rng, 3), k=int(k))
            for k in rng.integers(4, 12, size=30)
        ]
        individual = [reference.topk(r.weights, r.k) for r in requests]
        batch = batched.topk_batch(requests)
        assert [r.ids for r in individual] == [r.ids for r in batch]
        assert [r.scores for r in individual] == [r.scores for r in batch]
        assert [r.source for r in individual] == [r.source for r in batch]
        assert [r.pages_read for r in individual] == [
            r.pages_read for r in batch
        ]
        assert reference.stats() == batched.stats()

    def test_miss_in_batch_serves_later_requests(self, batch_setup, rng):
        """A miss mid-batch caches its GIR; an identical later request in
        the *same* batch must already be a full hit — exactly as in the
        sequential path."""
        data = batch_setup
        engine = GIREngine(data, bulk_load_str(data))
        q = random_query(rng, 3)
        responses = engine.topk_batch(
            [Request(weights=q, k=8), Request(weights=q, k=8)]
        )
        assert responses[0].source == "computed"
        assert responses[1].source == "cache"
        assert responses[1].pages_read == 0
        assert responses[0].ids == responses[1].ids

    def test_empty_batch(self, batch_setup):
        engine = GIREngine(batch_setup, bulk_load_str(batch_setup))
        assert engine.topk_batch([]) == []


class TestPrescreenReporting:
    def test_report_carries_prescreen_accounting(self, batch_setup):
        data = batch_setup
        workload = make_workload("mixed", seed=202)
        engine = GIREngine(data, bulk_load_str(data))
        report = engine.run(workload)
        assert report.prescreen_screened_total == sum(
            u.prescreen_screened for u in report.updates
        )
        assert report.prescreen_lps_total == sum(
            u.prescreen_lps for u in report.updates
        )
        # With a warm cache and inserts in the stream, the vectorized
        # prescreen must clear entries without LPs.
        assert report.prescreen_screened_total > 0
        payload = report.to_dict()
        assert payload["prescreen_screened"] == report.prescreen_screened_total
        assert payload["prescreen_lps"] == report.prescreen_lps_total
        stats = engine.stats()
        assert stats["prescreen_screened"] == report.prescreen_screened_total
        assert stats["prescreen_lps"] == report.prescreen_lps_total
        assert "prescreen" in report.summary()

    def test_flush_policy_reports_zero_prescreen(self, batch_setup):
        data = batch_setup
        engine = GIREngine(data, bulk_load_str(data), invalidation="flush")
        engine.topk(np.array([0.5, 0.6, 0.7]), 5)
        upd = engine.insert(np.array([0.9, 0.9, 0.9]))
        assert upd.prescreen_screened == 0 and upd.prescreen_lps == 0
        assert engine.stats()["prescreen_screened"] == 0
