"""Batch-size independence of the GIREngine's one read path.

`GIREngine.topk` is a batch of one through `topk_batch`, so "batched vs
per-request" is no longer two code paths — but `topk_batch(N requests)`
≡ `N` singleton calls is still a real property: a multi-request batch
resolves its cache membership from one stacked matrix per lookup window
(`GIRCache.lookup_window` / `GIRCache.resolve`), and every request that
admits a region changes the cache under the requests behind it — and
at capacity it evicts the LRU entry. The window's
matrix must then be *patched* (`RegionIndex.version` moved: the evicted
entry's column dropped, the new entry's evaluated for the unresolved
rows), or later requests would be judged against a stale cache.
Batching may only change how the membership arithmetic is grouped,
never what is served. These property tests replay the same workload at
both batch sizes on twin engines and compare everything observable.
"""

import numpy as np
import pytest

from repro.cluster import ShardedGIREngine
from repro.data.synthetic import independent
from repro.engine import (
    GIREngine,
    Request,
    mixed_workload,
    uniform_workload,
    zipf_clustered_workload,
)
from repro.core.region_index import RegionIndex
from repro.index.bulkload import bulk_load_str
from repro.query.linear_scan import scan_topk
from repro.scoring import LinearScoring
from repro.serve.replay import canonical_scores
from tests.conftest import random_query, run_batched, run_serial
from tests.test_region_index import random_region


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
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
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
        batches of one."""
        data = batch_setup
        workload = make_workload(kind, seed=101)
        sequential = GIREngine(data, bulk_load_str(data))
        batched = GIREngine(data, bulk_load_str(data))
        r_seq, u_seq = run_serial(sequential, workload)
        r_bat, u_bat = run_batched(batched, workload)
        assert_responses_identical(r_seq, r_bat)
        assert sequential.stats() == batched.stats()
        # Update accounting (empty lists for read-only kinds) matches too.
        assert len(u_seq) == len(u_bat)
        for ua, ub in zip(u_seq, u_bat):
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
        assert engine.serve_hits([]) == []


def lru_order(engine) -> list[int]:
    return [key for key, _ in engine.cache.items()]


def assert_batch_matches_sequential(data, batches) -> tuple:
    """Serve ``batches`` (lists of requests) as ``topk_batch`` calls on one
    engine and one request at a time on its twin, both with a 3-entry
    cache; compare every response, the cache counters and the LRU order
    after each batch. Returns the batched responses and cache."""
    batched = GIREngine(data, bulk_load_str(data), cache_capacity=3)
    sequential = GIREngine(data, bulk_load_str(data), cache_capacity=3)
    served = []
    for reqs in batches:
        ours = batched.topk_batch(reqs)
        theirs = [sequential.topk(r.weights, r.k) for r in reqs]
        for a, b in zip(ours, theirs, strict=True):
            assert (a.ids, a.scores, a.source, a.pages_read) == (
                b.ids, b.scores, b.source, b.pages_read,
            )
        assert batched.cache.stats() == sequential.cache.stats()
        assert lru_order(batched) == lru_order(sequential)
        served.extend(ours)
    return served, batched.cache


class TestWindowUnderChurn:
    """A lookup window outlives the misses inside it: a miss admits a
    region while the cache has room, and a full cache admits one only on
    its answer's second sighting, evicting the LRU entry; the requests
    after it are judged against the patched matrix."""

    def test_admitted_evicted_and_deeper_k_in_one_batch(self, batch_setup):
        data = batch_setup
        q1, q2, q3, q4 = (np.array(v) for v in (
            [0.2, 0.5, 0.8], [0.8, 0.2, 0.5], [0.5, 0.8, 0.2], [0.6, 0.6, 0.6],
        ))
        batch = [
            Request(weights=q1, k=5),  # miss: admit E1
            Request(weights=q2, k=5),  # miss: admit E2
            Request(weights=q3, k=5),  # miss: admit E3, cache full
            Request(weights=q1, k=5),  # hits E1, admitted by this batch
            Request(weights=q4, k=5),  # miss, first sighting: no region
            Request(weights=q4, k=5),  # miss, repeat: admit E4, evict E2
            Request(weights=q2, k=5),  # misses E2, evicted by this batch
            Request(weights=q1, k=8),  # deeper k inside E1's region: miss
            Request(weights=q1, k=8),  # its repeat: admit E1', evict E3
            Request(weights=q4, k=3),  # shallower k: hits E4
        ]
        served, cache = assert_batch_matches_sequential(data, [batch])
        assert [r.source for r in served] == [
            "computed", "computed", "computed", "cache", "computed",
            "computed", "computed", "computed", "computed", "cache",
        ]
        assert [r.region is None for r in served] == [
            False, False, False, False, True,
            False, True, True, False, False,
        ]
        assert cache.stats()["capacity_evictions"] == 2
        assert served[3].ids == served[0].ids
        assert served[5].ids == served[4].ids
        assert served[8].ids == served[7].ids
        assert served[9].ids == served[5].ids[:3]
        assert served[9].region is served[5].region

    @pytest.mark.parametrize("seed", [3, 17])
    def test_random_stream(self, batch_setup, seed):
        """Requests drawn from six vectors with ``k`` in {3, 5, 8}, in
        batches of 1–12: hits, misses and evictions interleave inside
        every batch."""
        rng = np.random.default_rng(seed)
        pool = [random_query(rng, 3) for _ in range(6)]
        batches = [
            [
                Request(weights=pool[rng.integers(6)], k=int(rng.choice([3, 5, 8])))
                for _ in range(rng.integers(1, 13))
            ]
            for _ in range(12)
        ]
        served, cache = assert_batch_matches_sequential(batch_setup, batches)
        sources = {r.source for r in served}
        assert sources == {"computed", "cache"}
        assert cache.stats()["capacity_evictions"] > 0


class TestWindowPatch:
    def test_membership_from_first_entry(self, rng):
        index = RegionIndex(3)
        for key in range(6):
            index.add(key, random_region(rng, 3))
        X = rng.uniform(-0.1, 1.1, size=(50, 3))
        full = index.membership_batch(X)
        for p in range(7):
            assert (index.membership_batch(X, first=p) == full[:, p:]).all()

    def test_depths_stay_aligned_with_keys(self, rng):
        index = RegionIndex(3)
        depth = {}
        for key in range(5):
            depth[key] = int(rng.integers(1, 30))
            index.add(key, random_region(rng, 3), depth=depth[key])
        index.add(5, random_region(rng, 3), evict=1, depth=7)
        depth[5] = 7
        index.remove_many([0, 3])
        assert index.depths.tolist() == [depth[key] for key in index.keys()]
        index.clear()
        assert index.depths.tolist() == []

    def test_version_moves_on_every_mutation(self, rng):
        index = RegionIndex(3)
        seen = [index.version]
        for key in range(3):
            index.add(key, random_region(rng, 3))
            seen.append(index.version)
        index.add(3, random_region(rng, 3), evict=0)
        seen.append(index.version)
        assert index.remove_many([1]) == 1
        seen.append(index.version)
        assert index.remove_many([2, 3]) == 2
        seen.append(index.version)
        index.clear()
        seen.append(index.version)
        assert len(set(seen)) == len(seen)
        # Nothing to remove, nothing moved.
        assert index.remove_many([7]) == 0 and index.version == seen[-1]
        index.membership_batch(rng.random((4, 3)))
        assert index.version == seen[-1]


class TestPrescreenReporting:
    def test_report_carries_prescreen_accounting(self, batch_setup):
        data = batch_setup
        workload = make_workload("mixed", seed=202)
        engine = GIREngine(data, bulk_load_str(data))
        _, updates = run_serial(engine, workload)
        screened = sum(u.prescreen_screened for u in updates)
        # With a warm cache and inserts in the stream, the vectorized
        # prescreen must clear entries without LPs.
        assert screened > 0
        stats = engine.stats()
        assert stats["prescreen_screened"] == screened
        assert stats["prescreen_lps"] == sum(u.prescreen_lps for u in updates)

    def test_flush_policy_reports_zero_prescreen(self, batch_setup):
        data = batch_setup
        engine = GIREngine(data, bulk_load_str(data), invalidation="flush")
        engine.topk(np.array([0.5, 0.6, 0.7]), 5)
        upd = engine.insert(np.array([0.9, 0.9, 0.9]))
        assert upd.prescreen_screened == 0 and upd.prescreen_lps == 0
        assert engine.stats()["prescreen_screened"] == 0


def hit_only_engine(kind: str, data):
    """A 3-entry cache in front of ``data``: a :class:`GIREngine`, or a
    two-shard in-process :class:`ShardedGIREngine` whose cluster cache is
    the one ``serve_hits`` reads."""
    if kind == "single":
        return GIREngine(data, bulk_load_str(data), cache_capacity=3)
    return ShardedGIREngine(data, shards=2, cluster_cache_capacity=3)


@pytest.mark.parametrize("kind", ["single", "inproc"])
class TestServeHits:
    """``serve_hits`` is ``topk_batch``'s hit prefix and nothing more: it
    serves the leading full hits exactly as ``topk_batch`` would and
    leaves the first non-hit untouched, so ``serve_hits(batch)`` then
    ``topk_batch(rest)`` is indistinguishable from ``topk_batch(batch)``."""

    def test_prefix_then_rest_matches_whole_batch(self, batch_setup, kind):
        rng = np.random.default_rng(5)
        pool = [random_query(rng, 3) for _ in range(6)]
        batches = [
            [
                Request(weights=pool[rng.integers(6)], k=int(rng.choice([3, 5, 8])))
                for _ in range(rng.integers(1, 13))
            ]
            for _ in range(14)
        ]
        split = hit_only_engine(kind, batch_setup)
        whole = hit_only_engine(kind, batch_setup)
        prefixes = []
        for reqs in batches:
            served = split.serve_hits(reqs)
            prefixes.append(len(served))
            ours = served + split.topk_batch(reqs[len(served):])
            theirs = whole.topk_batch(reqs)
            for a, b in zip(ours, theirs, strict=True):
                assert (a.ids, a.scores, a.source, a.pages_read) == (
                    b.ids, b.scores, b.source, b.pages_read,
                )
            assert all(r.source == "cache" for r in served)
            assert split.cache.stats() == whole.cache.stats()
            assert lru_order(split) == lru_order(whole)
        assert split.stats() == whole.stats()
        # The stream exercises all three shapes: nothing served, a strict
        # prefix, and the whole batch.
        sizes = [len(reqs) for reqs in batches]
        assert 0 in prefixes
        assert any(0 < p < n for p, n in zip(prefixes, sizes))
        assert any(p == n for p, n in zip(prefixes, sizes))

    def test_first_non_hit_is_not_counted(self, batch_setup, kind):
        rng = np.random.default_rng(9)
        engine = hit_only_engine(kind, batch_setup)
        q, cold = random_query(rng, 3), random_query(rng, 3)
        # A cold cache serves nothing and counts nothing.
        before = engine.stats()
        assert engine.serve_hits([Request(weights=q, k=5)]) == []
        assert engine.stats() == before
        engine.topk(q, 5)
        while any(gir.contains(cold) for _, gir in engine.cache.items()):
            cold = random_query(rng, 3)
        before = engine.stats()
        batch = [
            Request(weights=q, k=5),
            Request(weights=q, k=8),  # deeper than the cached k: a miss
            Request(weights=q, k=3),  # a hit, but behind the miss
            Request(weights=cold, k=5),
        ]
        served = engine.serve_hits(batch)
        assert [r.source for r in served] == ["cache"]
        assert served[0].pages_read == 0
        after = engine.stats()
        hits_key = "full_hits" if kind == "single" else "cluster_full_hits"
        misses_key = "misses" if kind == "single" else "cluster_misses"
        assert after[hits_key] == before[hits_key] + 1
        assert after[misses_key] == before[misses_key]
        assert after["requests_served"] == before["requests_served"] + 1
        before.pop(hits_key), after.pop(hits_key)
        before.pop("requests_served"), after.pop("requests_served")
        assert after == before  # no page read, no fan-out, no admission


def twin_engines(kind: str, data, capacity: int = 8):
    """Two identical engines: one served in batches, one request at a time."""
    if kind == "single":
        return (
            GIREngine(data, bulk_load_str(data), cache_capacity=capacity),
            GIREngine(data, bulk_load_str(data), cache_capacity=capacity),
        )
    return (
        ShardedGIREngine(data, shards=2, cluster_cache_capacity=capacity),
        ShardedGIREngine(data, shards=2, cluster_cache_capacity=capacity),
    )


def assert_same_answers(ours, theirs):
    for a, b in zip(ours, theirs, strict=True):
        assert (a.ids, a.scores, a.source, a.pages_read, a.k) == (
            b.ids, b.scores, b.source, b.pages_read, b.k,
        )


def fresh_vector(rng, engine):
    """A query vector no cached entry contains (a certain miss)."""
    while True:
        w = random_query(rng, 3)
        if not any(gir.contains(w) for _, gir in engine.cache.items()):
            return w


@pytest.mark.parametrize("kind", ["single", "inproc"])
class TestOneHitPath:
    """Every full hit — in ``topk_batch`` and ``serve_hits``, of both
    engines — is answered by ``serve_full_hits``: one gather per distinct
    ``k`` and one stacked product. Batched, it serves and accounts
    exactly what sequential ``topk`` calls do."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_hits_match_sequential(self, batch_setup, kind, seed):
        """Mixed ``k`` in one batch, ``k`` below the entry's length, hits
        ahead of a miss: ids, bit-equal scores, source, pages, cache
        counters and LRU order all match the sequential twin."""
        rng = np.random.default_rng(seed)
        batched, sequential = twin_engines(kind, batch_setup)
        pool = [random_query(rng, 3) for _ in range(5)]
        for w in pool:
            batched.topk(w, 10)
            sequential.topk(w, 10)
        for rnd in range(8):
            reqs = [
                Request(weights=pool[rng.integers(5)], k=int(rng.choice([3, 7, 10])))
                for _ in range(rng.integers(2, 12))
            ]
            reqs.append(Request(weights=fresh_vector(rng, sequential), k=10))
            if rnd % 2:
                ours = batched.serve_hits(reqs)
                assert len(ours) == len(reqs) - 1
            else:
                ours = batched.topk_batch(reqs)
                assert ours[-1].source == "computed"
            theirs = [sequential.topk(r.weights, r.k) for r in reqs[: len(ours)]]
            assert_same_answers(ours, theirs)
            assert all(r.source == "cache" for r in ours[: len(reqs) - 1])
            assert batched.cache.stats() == sequential.cache.stats()
            assert lru_order(batched) == lru_order(sequential)
        assert batched.stats() == sequential.stats()

    def test_nested_entries_take_the_most_recent(self, batch_setup, kind):
        """The same vector cached at k = 10 and then at k = 20: both
        entries contain it and serve k = 5, so the recency fallback picks
        the k = 20 entry, exactly as the sequential twin does."""
        batched, sequential = twin_engines(kind, batch_setup)
        w = np.array([0.4, 0.7, 0.5])
        for engine in (batched, sequential):
            engine.topk(w, 10)
            engine.topk(w, 20)
        deeper = lru_order(batched)[-1]
        assert batched.cache.entry(deeper).topk.k == 20
        reqs = [Request(weights=w, k=5), Request(weights=w, k=10), Request(weights=w, k=5)]
        for serve in (batched.serve_hits, batched.topk_batch):
            ours = serve(reqs)
            theirs = [sequential.topk(r.weights, r.k) for r in reqs]
            assert_same_answers(ours, theirs)
            assert all(r.region is batched.cache.entry(deeper).polytope for r in ours)
            assert batched.cache.stats() == sequential.cache.stats()
            assert lru_order(batched) == lru_order(sequential)

    def test_miss_led_serve_hits_evaluates_one_row(self, batch_setup, kind, monkeypatch):
        """A batch led by a miss costs one row of membership: the first
        request is decided alone, before the rest are stacked."""
        rng = np.random.default_rng(4)
        engine = twin_engines(kind, batch_setup)[0]
        q = random_query(rng, 3)
        engine.topk(q, 8)
        rows = []
        evaluate = RegionIndex.membership_batch

        def spy(index, X, *args, **kwargs):
            rows.append(len(X))
            return evaluate(index, X, *args, **kwargs)

        monkeypatch.setattr(RegionIndex, "membership_batch", spy)
        before = engine.stats()
        cold = fresh_vector(rng, engine)
        batch = [Request(weights=cold, k=8)] + [Request(weights=q, k=8)] * 9
        assert engine.serve_hits(batch) == []
        assert rows == [1]
        assert engine.stats() == before
        # A hit-led batch stacks the rest in one more evaluation.
        rows.clear()
        assert len(engine.serve_hits(batch[1:] + batch[:1])) == 9
        assert rows == [1, 9]


class TestScaledVectors:
    """Top-k is scale-invariant and cached regions are clipped to the
    unit box: a vector with a coordinate above 1 is looked up at
    ``w / max(w)`` and served from the entry its first miss admitted."""

    def test_vectors_above_one_hit_on_repeat(self):
        data = independent(400, 3, seed=1)
        engine = GIREngine(data, bulk_load_str(data))
        vectors = np.random.default_rng(21).random((8, 3)) + 0.05
        assert (vectors.max(axis=1) > 1).sum() == 4
        requests = [Request(weights=w, k=5) for w in vectors]
        assert {r.source for r in engine.topk_batch(requests)} == {"computed"}
        assert len(engine.cache) == 8
        for _ in range(2):
            responses = engine.topk_batch(requests)
            assert [r.source for r in responses] == ["cache"] * 8
            for w, resp in zip(vectors, responses):
                assert resp.ids == scan_topk(engine.points, w, 5).ids
                assert resp.scores == canonical_scores(
                    engine.scorer, engine.result_rows(resp.ids), w
                )
            assert len(engine.cache) == 8

    def test_scan_applies_the_same_rule(self):
        data = independent(400, 3, seed=1)
        engine = GIREngine(data, bulk_load_str(data))
        w = np.array([1.4, 0.6, 0.9])
        engine.topk(w, 5)
        key = lru_order(engine)[-1]
        assert engine.cache.lookup_scan(w, 5).entry_key == key
        assert engine.cache.lookup(w, 5).entry_key == key
        assert engine.cache.lookup(w / 1.4, 5).entry_key == key


class TestStackedProduct:
    @pytest.mark.parametrize("m, k", [(32, 20), (7, 20), (1, 20), (32, 5), (32, 100)])
    def test_stacked_product_is_the_canonical_matvec(self, m, k):
        """One ``(m, k, d) @ (m, d, 1)`` product equals each answer's own
        ``canonical_scores`` matvec bit for bit (d = 4)."""
        rng = np.random.default_rng(m * 1000 + k)
        rows = rng.random((5000, 4))
        idx = rng.integers(0, len(rows), size=(m, k))
        W = rng.random((m, 4)) + 0.01
        stacked = (rows[idx] @ W[:, :, None]).reshape(m, k).tolist()
        scorer = LinearScoring(4)
        for i in range(m):
            assert tuple(stacked[i]) == canonical_scores(scorer, rows[idx[i]], W[i])

    def test_hot_zipf_hits_are_canonical(self, batch_setup):
        """A 1 000-read hot-Zipf stream served in batches: every hit's
        scores are ``canonical_scores`` of its answer bit for bit."""
        engine = GIREngine(batch_setup, bulk_load_str(batch_setup))
        requests = zipf_clustered_workload(
            3, 1000, k=8, clusters=6, spread=0.0005, rng=np.random.default_rng(8)
        ).requests
        hits = 0
        for i in range(0, len(requests), 32):
            batch = requests[i : i + 32]
            served = engine.serve_hits(batch)
            served += engine.topk_batch(batch[len(served) :])
            for req, resp in zip(batch, served, strict=True):
                if resp.source != "cache":
                    continue
                hits += 1
                assert resp.scores == canonical_scores(
                    engine.scorer, engine.result_rows(resp.ids), req.weights
                )
        assert hits > 900
