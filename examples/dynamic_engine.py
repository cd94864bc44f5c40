"""Serving top-k traffic while the database changes underneath the cache.

The paper's Section 1 scenario assumes a static database, but real
catalogues churn: products appear and disappear between queries. The GIR
is exactly the tool that decides *which* cached results an update can
disturb — a new record invalidates a cached entry only if its score can
exceed the entry's k-th score somewhere inside the entry's region (one
halfspace-intersection LP), and a deleted record only matters if the entry
served it (or its retained search state saw it).

This example runs the same mixed read/write stream through two engines:

* ``invalidation="gir"``   — the selective, region-aware policy;
* ``invalidation="flush"`` — the classic flush-on-write baseline.

Both stay exactly correct (verified against a linear scan of the live
records after every update); the difference is how much of the cache — and
therefore how much of the hit rate — survives the churn.

Run with:  python examples/dynamic_engine.py
"""

import sys

import numpy as np

import repro
from repro.engine import InsertOp, Request
from repro.query.linear_scan import scan_topk


def main(n: int = 20_000, ops: int = 300) -> None:
    rng = np.random.default_rng(42)
    data = repro.independent(n=n, d=3, seed=4)
    k = 10

    # A Zipf-clustered read stream with update bursts blended in: ~20% of
    # operations insert a fresh record or delete a live one.
    workload = repro.mixed_workload(
        d=3, count=ops, base_n=n, k=k,
        update_fraction=0.2, insert_ratio=0.5,
        clusters=8, zipf_s=1.1, rng=rng,
    )
    print(
        f"mixed workload: {workload.reads} reads, "
        f"{workload.updates} updates over {n} records\n"
    )

    # Per policy: (evictions, hit rate, pages per 1k reads).
    results = {}
    engines = {}
    for policy in ("gir", "flush"):
        engine = repro.GIREngine(
            data, repro.bulk_load_str(data),
            cache_capacity=64, invalidation=policy,
        )
        pages = 0
        for op in workload:
            if isinstance(op, Request):
                pages += engine.topk(op.weights, op.k).pages_read
            elif isinstance(op, InsertOp):
                engine.insert(op.point)
            else:
                engine.delete(op.rid)
        stats = engine.stats()
        results[policy] = (
            stats["update_evictions"],
            stats["full_hits"] / stats["requests_served"],
            1000 * pages / stats["requests_served"],
        )
        engines[policy] = engine
        print(f"--- invalidation = {policy!r} " + "-" * 40)
        print(f"served from cache : {stats['full_hits']} of "
              f"{stats['requests_served']} reads, {stats['misses']} computed")
        print(f"I/O               : {pages} pages")
        print(f"updates           : {stats['updates_applied']}, "
              f"{stats['update_evictions']} cache evictions")
        print(f"insert prescreen  : {stats['prescreen_screened']} entries "
              f"cleared without an LP, {stats['prescreen_lps']} LPs run")
        print()

    (gir_ev, gir_hits, gir_pages), (fl_ev, fl_hits, fl_pages) = results.values()
    print("GIR-aware invalidation vs flush-on-write:")
    print(
        f"  cache evictions   : {gir_ev} vs {fl_ev} "
        f"({gir_ev / max(fl_ev, 1):.0%} of baseline)"
    )
    print(f"  cache hit rate    : {gir_hits:.1%} vs {fl_hits:.1%}")
    print(f"  pages / 1k queries: {gir_pages:.0f} vs {fl_pages:.0f}")

    # Correctness spot-check: the selectively-invalidated engine still
    # answers exactly like an exhaustive scan of the live records.
    engine = engines["gir"]
    exact = 0
    probes = 25
    for _ in range(probes):
        q = rng.random(3) * 0.8 + 0.1
        resp = engine.topk(q, k)
        truth = scan_topk(
            engine.points, q, k, live=engine.table.live_mask
        )
        exact += resp.ids == truth.ids
    print(f"\nspot check: {exact}/{probes} probe answers exact — "
          + ("all exact" if exact == probes else "MISMATCH"))


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    main(n=n, ops=220 if n < 20_000 else 300)
