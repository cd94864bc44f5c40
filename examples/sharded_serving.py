"""Sharded serving: a 4-shard cluster absorbing Zipf-clustered traffic.

One GIREngine caps out at one R*-tree and one cache. The sharded tier
(`repro.cluster.ShardedGIREngine`) partitions the records across N
independent shards — here with the kd-split partitioner, so each shard
owns a contiguous block of score space — fans every read out to all
shards, and merges the per-shard answers into the global top-k together
with a *merged stability region*: the intersection of the per-shard GIR
regions with the cross-shard merge-order half-spaces. Merged regions are
cached at the cluster level, so repeat traffic in a hot preference region
is served with zero fan-out and zero page reads.

The demo serves the same Zipf-clustered workload through a single engine
and through a 4-shard cluster on each shard backend — in-process shards
(``backend="inproc"``, answered one after another) and process shards
(``backend="process"``: one long-lived worker process per shard, requests
crossing the versioned wire format of ``repro.cluster.wire``; a fan-out
sends every worker its request before reading any reply, so CPU-bound
phase-2 work escapes the GIL on multi-core hosts) — verifies all answers
are identical, and prints the per-shard breakdowns.

Run with:  python examples/sharded_serving.py
"""

import sys

import repro
from repro.cluster import ShardedGIREngine


def main(n: int = 20_000, queries: int = 200) -> None:
    d, k = 3, 10
    data = repro.independent(n=n, d=d, seed=4)
    workload = repro.zipf_clustered_workload(
        d, queries, k=k, clusters=8, zipf_s=1.2, spread=0.02, rng=7
    )
    print(f"workload: {len(workload)} top-{k} queries over {n} records\n")

    single = repro.GIREngine(data, repro.bulk_load_str(data), cache_capacity=64)
    single_answers = [single.topk(req.weights, req.k) for req in workload]
    stats = single.stats()
    print("--- single engine " + "-" * 44)
    print(f"served from cache : {stats['full_hits']} of "
          f"{stats['requests_served']}, {stats['misses']} computed")
    print(f"I/O               : {sum(r.pages_read for r in single_answers)} pages")

    answers = {}
    for backend in ("inproc", "process"):
        with ShardedGIREngine(
            data,
            shards=4,
            partitioner="kd",
            backend=backend,
            cache_capacity=64,
            cluster_cache_capacity=128,
        ) as cluster:
            answers[backend] = [cluster.topk(req.weights, req.k) for req in workload]
            stats = cluster.stats()
        print(f"\n--- 4-shard cluster ({backend} backend) " + "-" * 24)
        print(f"cluster           : {stats['cluster_full_hits']} cluster-cache "
              f"hits, {stats['fanouts']} fan-outs")
        for s in stats["shard_stats"]:
            print(f"  shard {s['shard']}         : {s['requests']} requests, "
                  f"{s['page_reads']} pages, {s['cache_entries']} cached regions, "
                  f"{s['live_records']} live records")

    for backend, responses in answers.items():
        mismatches = sum(r.ids != s.ids for r, s in zip(responses, single_answers))
        print(
            f"\n{backend:>8} backend vs single engine: "
            f"{len(single_answers) - mismatches}/{len(single_answers)} identical"
            + (" — all exact" if mismatches == 0 else " — MISMATCH")
        )


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))
