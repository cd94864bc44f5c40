"""The ledger's fixed vocabulary: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root repeats this table for the driver;
``test_ledger_smoke.py`` asserts the two agree. Everything else in the
harness (runner, comparer, README tables) reads the names from here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "EXACT_COUNTS",
    "worsening",
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: ``"lower"`` or ``"higher"`` — the direction that is an improvement.
    better: str
    #: Share of the baseline median by which the metric may worsen before
    #: it counts as a regression (end-to-end metrics only).
    bound: float | None = None


#: name -> the one-line reason the workload exists.
WORKLOADS: dict[str, str] = {
    "miss_uniform": (
        "uniform vectors, working set far above the 128-entry cache: every "
        "read is a miss, so BRS, phase 2 and GIRCache.insert do all the work"
    ),
    "hot_zipf": (
        "16 tight Zipf clusters that fit the cache (hit share > 0.99): cost "
        "is front-door admission, batching, coalescing and the cache hit path"
    ),
    "flash_rw": (
        "flash crowds (duplicate bursts over 2 hot vectors each) plus ~4% inserts "
        "and deletes: single-flight coalescing, write fences, invalidation, tree updates"
    ),
    "sharded_rw": (
        "the flash_rw stream against 2 process shards: the difference from "
        "flash_rw is fan-out, pipe wait, wire codec, merge and cluster cache"
    ),
}

#: Every timing carries the widest bound the driver's contract allows:
#: the reference host's speed drifts by 10–20 % within the hour (README,
#: "Reference-host numbers"), and a gate tighter than the instrument's
#: own A/A gap only produces false alarms.
END_TO_END: tuple[Metric, ...] = (
    Metric("qps", "ops/s", "higher", 0.25),
    Metric("read_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Reported by the ``--trace 1`` run. No bounds: these say *where* an
#: end-to-end change came from, they are not themselves gated.
PER_LAYER: tuple[Metric, ...] = (
    # serve — admission, batching, coalescing, the one-thread bridge
    Metric("serve.queue_wait_ms_p50", "ms", "lower"),
    Metric("serve.queue_wait_ms_p95", "ms", "lower"),
    Metric("serve.batch_linger_ms_mean", "ms", "lower"),
    Metric("serve.batch_size_mean", "count", "higher"),
    Metric("serve.bridge_busy_share", "share", "lower"),
    Metric("serve.bridge_self_us_per_read", "us", "lower"),
    Metric("serve.coalesce_attach_share", "share", "higher"),
    Metric("serve.coalesce_fallback_share", "share", "lower"),
    Metric("serve.fence_wait_ms_mean", "ms", "lower"),
    Metric("serve.fences", "count", "lower"),
    Metric("serve.queue_depth_peak", "count", "lower"),
    Metric("serve.shed_share", "share", "lower"),
    Metric("serve.read_p95_ms", "ms", "lower"),
    Metric("serve.read_p99_ms", "ms", "lower"),
    Metric("serve.write_p50_ms", "ms", "lower"),
    Metric("serve.engine_passes_per_read", "count", "lower"),
    # engine — cache-first serving
    Metric("engine.full_hit_share", "share", "higher"),
    Metric("engine.partial_hit_share", "share", "higher"),
    Metric("engine.miss_share", "share", "lower"),
    Metric("engine.hit_serve_us_mean", "us", "lower"),
    Metric("engine.miss_serve_ms_mean", "ms", "lower"),
    Metric("engine.insert_ms_mean", "ms", "lower"),
    Metric("engine.delete_ms_mean", "ms", "lower"),
    Metric("engine.pages_per_read", "count", "lower"),
    # core — the GIR cache
    Metric("core.cache_lookup_us_per_read", "us", "lower"),
    Metric("core.cache_insert_ms_mean", "ms", "lower"),
    Metric("core.cache_insert_ms_p95", "ms", "lower"),
    Metric("core.grid_negative_share", "share", "higher"),
    Metric("core.capacity_evictions", "count", "lower"),
    Metric("core.invalidation_evictions", "count", "lower"),
    Metric("core.subsumption_evictions", "count", "lower"),
    Metric("core.invalidate_insert_ms_mean", "ms", "lower"),
    Metric("core.invalidate_delete_ms_mean", "ms", "lower"),
    Metric("core.prescreen_lp_share", "share", "lower"),
    # core — the GIR pipeline
    Metric("core.phase1_ms_mean", "ms", "lower"),
    Metric("core.phase2_ms_mean", "ms", "lower"),
    Metric("core.phase2_ms_p95", "ms", "lower"),
    Metric("core.assemble_ms_mean", "ms", "lower"),
    Metric("core.phase2_candidates_mean", "count", "lower"),
    Metric("core.halfspaces_per_gir_mean", "count", "lower"),
    # query / index
    Metric("query.brs_ms_mean", "ms", "lower"),
    Metric("query.brs_resumed_share", "share", "higher"),
    Metric("index.pages_per_miss", "count", "lower"),
    Metric("index.tree_insert_ms_mean", "ms", "lower"),
    Metric("index.tree_delete_ms_mean", "ms", "lower"),
    Metric("index.bulk_load_s", "s", "lower"),
    # geometry — the scipy entry points
    Metric("geometry.vertices_ms_mean", "ms", "lower"),
    Metric("geometry.chebyshev_ms_mean", "ms", "lower"),
    Metric("geometry.maximize_ms_mean", "ms", "lower"),
    Metric("geometry.scipy_calls_per_op", "count", "lower"),
    # cluster — zero except on sharded_rw
    Metric("cluster.fanout_share", "share", "lower"),
    Metric("cluster.cache_hit_share", "share", "higher"),
    Metric("cluster.fanout_ms_mean", "ms", "lower"),
    Metric("cluster.merge_ms_mean", "ms", "lower"),
    Metric("cluster.shard_call_ms_mean", "ms", "lower"),
    Metric("cluster.shard_call_slowest_ms_mean", "ms", "lower"),
    Metric("cluster.pipe_wait_ms_mean", "ms", "lower"),
    Metric("cluster.wire_encode_us_mean", "us", "lower"),
    Metric("cluster.wire_decode_us_mean", "us", "lower"),
    Metric("cluster.wire_bytes_per_fanout", "bytes", "lower"),
    Metric("cluster.write_route_ms_mean", "ms", "lower"),
    # obs / host
    Metric("obs.trace_overhead_share", "share", "lower"),
    Metric("obs.spans_per_read", "count", "lower"),
    Metric("obs.dropped_spans", "count", "lower"),
    Metric("host.calib_ms", "ms", "lower"),
)

#: Layer metrics that are counts made by the program, not timings: for one
#: seed they repeat from run to run, so ``compare.py`` compares them by
#: equality instead of against a noise bound.
EXACT_COUNTS: tuple[str, ...] = (
    "engine.pages_per_read",
    "serve.engine_passes_per_read",
)


def worsening(metric: Metric, base: float, new: float) -> float:
    """Signed share of ``base`` by which ``new`` is worse (negative =
    better), in the metric's own direction."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change
