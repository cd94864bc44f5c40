"""GIR-based top-k result caching (Section 1, third application).

A server answering many users' top-k queries caches each computed result
together with its GIR. A new query whose weight vector falls inside a
cached GIR is served instantly — no index access at all. Users with
similar preferences thus share work.

The modern path is :class:`repro.GIREngine`: it owns the tree, dataset,
scorer and GIR cache, answers every request cache-first (a request for
more records than the containing entry holds is a miss, computed afresh)
and accounts the page reads of every request. For comparison, the second
half of this example replays the same workload through the original
manual cache-then-compute loop.

Run with:  python examples/result_caching.py
"""

import numpy as np

import repro


def main(n: int = 30_000, workload_len: int = 400) -> None:
    rng = np.random.default_rng(9)
    data = repro.hotel_surrogate(n=n, seed=2)
    tree = repro.bulk_load_str(data)
    k = 10

    # Workload: 8 preference archetypes with Zipf-distributed popularity;
    # each user is an archetype plus a small personal tweak — the
    # situation result caching exploits.
    workload = repro.zipf_clustered_workload(
        d=4, count=workload_len, k=k, clusters=8, zipf_s=1.1, spread=0.01,
        rng=rng,
    )

    # ---- engine path: cache-first serving with built-in accounting --------
    engine = repro.GIREngine(data, tree, cache_capacity=64)
    responses = [engine.topk(req.weights, req.k) for req in workload]
    stats = engine.stats()
    pages = sum(r.pages_read for r in responses)
    print("GIREngine serving the workload, one request at a time")
    print(f"served from cache : {stats['full_hits']} "
          f"({100 * stats['full_hits'] / len(responses):.1f}%), "
          f"{stats['misses']} computed")
    print(f"I/O               : {pages} pages "
          f"({1000 * pages / len(responses):.0f} per 1k queries)")
    print(f"cache entries     : {stats['entries']}")
    print()

    # Sanity: spot-check that served answers are exact.
    checked = 0
    for req in list(rng.permutation(workload.requests))[:25]:
        resp = engine.topk(req.weights, k)
        assert resp.ids == repro.scan_topk(data.points, req.weights, k).ids
        checked += 1
    print(f"verified {checked} served answers against a full scan — all exact")
    print()

    # A user of a cached entry asks for MORE results: the cached prefix
    # cannot serve it, so the engine computes the deeper answer afresh.
    deep = engine.topk(workload.requests[0].weights, 25)
    print(f"k=25 request after k={k} traffic: source={deep.source!r}, "
          f"{len(deep.ids)} records, {deep.pages_read} pages read")
    print()

    # ---- batched serving: the same workload as one topk_batch call ---------
    # topk() above is a batch of one through topk_batch(); a larger batch
    # evaluates all its requests against every cached region's stacked
    # half-spaces in one matmul (RegionIndex). Answers and hit/miss
    # accounting do not depend on the batch size — only the membership
    # arithmetic is grouped differently.
    batched_engine = repro.GIREngine(
        data, repro.bulk_load_str(data), cache_capacity=64
    )
    batched = batched_engine.topk_batch(workload.requests)
    print("GIREngine serving the same workload as one topk_batch call")
    assert [r.ids for r in batched] == [r.ids for r in responses]
    assert [r.source for r in batched] == [r.source for r in responses]
    print("batched responses identical to the one-request-at-a-time run")
    print()

    # ---- comparison: the original manual cache-then-compute loop ----------
    tree2 = repro.bulk_load_str(data)
    cache = repro.GIRCache(capacity=64)
    served_from_cache = 0
    computed = 0
    io_pages_spent = 0
    for req in workload:
        hit = cache.lookup(req.weights, k)
        if hit is not None:
            served_from_cache += 1
            continue
        tree2.store.reset_meter()
        gir = repro.compute_gir(tree2, data, req.weights, k, method="fp")
        io_pages_spent += tree2.store.stats.page_reads
        computed += 1
        cache.insert(gir)

    print("Manual cache loop on the same workload (for comparison)")
    print(f"queries           : {len(workload)}")
    print(f"computed fresh    : {computed}")
    print(f"served from cache : {served_from_cache} "
          f"({100 * served_from_cache / len(workload):.1f}%)")
    print(f"I/O spent         : {io_pages_spent} pages "
          f"(~{io_pages_spent * 10 / 1000:.1f}s of disk time at 10ms/page)")
    print(f"cache entries     : {len(cache)}")


if __name__ == "__main__":
    import sys

    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)
