"""Per-layer attribution: benchmark-side shims and span aggregation.

The program already emits ``repro.obs`` spans at its tier boundaries
(``serve.*``, ``engine.*``, ``cluster.*``, ``shard.*``). They stop at
``engine.pipeline`` — exactly where a miss spends its time — so the
traced run wraps the *public* functions of the layers below in further
``obs.span`` blocks from out here: no program file is edited. The shims
are installed before any engine is built, so forked shard workers
inherit them and their spans come back through ``drain_worker_spans``.

``derive`` turns one traced round (spans + the program's own counters)
into the ``PER_LAYER`` metrics of ``spec.py``.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from typing import Any, Callable, Iterable

import numpy as np

from repro import obs

__all__ = ["install_shims", "SpanTable", "derive"]


# -- shims ---------------------------------------------------------------------


def _spanned(fn: Callable, name: str, note: Callable | None = None) -> Callable:
    """``fn`` under an ``obs.span(name)``; ``note(span, args, result)``
    attaches counts measured at the same boundary."""

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        if not obs.tracing_enabled():
            return fn(*args, **kwargs)
        with obs.span(name) as sp:
            out = fn(*args, **kwargs)
            if note is not None:
                note(sp, args, out)
            return out

    return shim


def _patch_function(fn: Callable, shim: Callable) -> None:
    """Rebind every ``repro`` module global that *is* ``fn`` — the
    defining module and each ``from x import fn`` copy."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, shim)


def _cache_insert_shim(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(cache: Any, *args: Any, **kwargs: Any) -> Any:
        if not obs.tracing_enabled():
            return fn(cache, *args, **kwargs)
        with obs.span("core.cache_insert") as sp:
            cap0, sub0 = cache.capacity_evictions, cache.subsumption_evictions
            out = fn(cache, *args, **kwargs)
            sp.set("capacity_evictions", cache.capacity_evictions - cap0)
            sp.set("subsumption_evictions", cache.subsumption_evictions - sub0)
            return out

    return shim


def _cache_lookup_shim(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(cache: Any, *args: Any, **kwargs: Any) -> Any:
        if not obs.tracing_enabled():
            return fn(cache, *args, **kwargs)
        with obs.span("core.cache_lookup") as sp:
            probes0, negatives0 = cache.grid_counters()
            out = fn(cache, *args, **kwargs)
            probes1, negatives1 = cache.grid_counters()
            sp.set("grid_probes", probes1 - probes0)
            sp.set("grid_negatives", negatives1 - negatives0)
            return out

    return shim


def install_shims() -> None:
    """Wrap the layer entry points below the program's own spans. Call
    once, before building any engine."""
    from repro.cluster import merge, wire
    from repro.core import caching, pipeline
    from repro.geometry import polytope
    from repro.index import bulkload
    from repro.index.rtree import RStarTree
    import repro.cluster.backends  # noqa: F401 - holds by-name copies to patch
    import repro.cluster.sharded  # noqa: F401
    import repro.engine.engine  # noqa: F401

    cache_cls = caching.GIRCache
    cache_cls.insert = _cache_insert_shim(cache_cls.insert)
    cache_cls.lookup_batch = _cache_lookup_shim(cache_cls.lookup_batch)

    def note_insert_invalidation(sp: Any, _args: tuple, out: tuple) -> None:
        evicted, screened, lps = out
        sp.set("evicted", int(evicted))
        sp.set("screened", int(screened))
        sp.set("lps", int(lps))

    _patch_function(
        caching.apply_insert_invalidation,
        _spanned(
            caching.apply_insert_invalidation,
            "core.invalidate_insert",
            note_insert_invalidation,
        ),
    )
    _patch_function(
        caching.apply_delete_invalidation,
        _spanned(
            caching.apply_delete_invalidation,
            "core.invalidate_delete",
            lambda sp, _args, out: sp.set("evicted", int(out)),
        ),
    )

    # run_pipeline resolves the stages through its module globals.
    pipeline.stage_phase1 = _spanned(pipeline.stage_phase1, "core.phase1")
    pipeline.stage_phase2 = _spanned(
        pipeline.stage_phase2,
        "core.phase2",
        lambda sp, _args, out: sp.set("candidates", len(out.candidate_ids)),
    )
    pipeline.stage_assemble = _spanned(
        pipeline.stage_assemble,
        "core.assemble",
        lambda sp, _args, out: sp.set("halfspaces", len(out.halfspaces)),
    )

    RStarTree.insert = _spanned(RStarTree.insert, "index.tree_insert")
    RStarTree.delete = _spanned(RStarTree.delete, "index.tree_delete")
    _patch_function(
        bulkload.bulk_load_str,
        _spanned(bulkload.bulk_load_str, "index.bulk_load"),
    )

    # The scipy entry points: the Polytope methods that reach them
    # (memoized — a call that did no scipy work has no geometry.scipy
    # child and is left out of the means) and the scipy names themselves.
    poly = polytope.Polytope
    poly.vertices = _spanned(poly.vertices, "geometry.vertices")
    poly.chebyshev_center = _spanned(poly.chebyshev_center, "geometry.chebyshev")
    poly.maximize = _spanned(poly.maximize, "geometry.maximize")
    polytope.linprog = _spanned(polytope.linprog, "geometry.scipy")
    polytope.HalfspaceIntersection = _spanned(
        polytope.HalfspaceIntersection, "geometry.scipy"
    )

    _patch_function(
        merge.merge_shard_answers,
        _spanned(merge.merge_shard_answers, "cluster.merge_answers"),
    )
    for attr, fn in list(vars(wire).items()):
        if not callable(fn) or attr.startswith("_"):
            continue
        if attr.startswith("encode_"):
            kind, frame = "wire.encode", attr == "encode_frame"
            size = (lambda _args, out: len(out)) if frame else None
        elif attr.startswith("decode_"):
            kind, frame = "wire.decode", attr == "decode_frame"
            size = (lambda args, _out: len(args[0])) if frame else None
        else:
            continue

        def note(sp: Any, args: tuple, out: Any, frame=frame, size=size) -> None:
            if frame:
                sp.set("frame", True)
                sp.set("bytes", size(args, out))

        setattr(wire, attr, _spanned(fn, kind, note))


# -- aggregation ---------------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanTable:
    """Spans of one traced round, indexed by name, with self-times.

    A span's self-time is its duration minus the part of its interval
    that its child spans cover (the union, so children that ran in
    parallel on pool threads or in worker processes are not subtracted
    twice)."""

    def __init__(self, spans: Iterable[Any]) -> None:
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.children: dict[str, list[Any]] = defaultdict(list)
        for s in self.spans:
            if s.parent_id in self.by_id:
                self.children[s.parent_id].append(s)
        self.by_name: dict[str, list[Any]] = defaultdict(list)
        for s in self.spans:
            self.by_name[s.name].append(s)

    def select(self, name: str, where: Callable[[Any], bool] | None = None) -> list:
        spans = self.by_name.get(name, [])
        return spans if where is None else [s for s in spans if where(s)]

    def parent_name(self, span: Any) -> str:
        parent = self.by_id.get(span.parent_id)
        return parent.name if parent is not None else ""

    def has_child(self, span: Any, name: str) -> bool:
        return any(c.name == name for c in self.children.get(span.span_id, ()))

    def self_us(self, span: Any) -> float:
        kids = self.children.get(span.span_id)
        if not kids:
            return span.dur_us
        lo, hi = span.t0_us, span.t0_us + span.dur_us
        covered = _covered(lo, hi, [(c.t0_us, c.t0_us + c.dur_us) for c in kids])
        return max(span.dur_us - covered, 0.0)

    def summary(self) -> dict[str, dict[str, float]]:
        """count / total / self / p50 / p95 per span name (milliseconds)
        — the raw table behind the derived metrics."""
        out = {}
        for name, spans in sorted(self.by_name.items()):
            durs = np.array([s.dur_us for s in spans]) / 1e3
            out[name] = {
                "count": len(spans),
                "total_ms": float(durs.sum()),
                "self_ms": sum(self.self_us(s) for s in spans) / 1e3,
                "p50_ms": float(np.percentile(durs, 50)),
                "p95_ms": float(np.percentile(durs, 95)),
            }
        return out


def _mean_ms(spans: list) -> float:
    return sum(s.dur_us for s in spans) / len(spans) / 1e3 if spans else 0.0


def _pct_ms(spans: list, p: float) -> float:
    if not spans:
        return 0.0
    return float(np.percentile([s.dur_us for s in spans], p)) / 1e3


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _attr_sum(spans: list, key: str) -> float:
    return float(sum(s.attrs.get(key, 0) for s in spans))


def derive(table: SpanTable, round_: dict, router_pid: int) -> dict[str, float]:
    """The span- and counter-derived ``PER_LAYER`` metrics of one traced
    round. ``round_`` is the round record from ``driver.run_round``
    (front-door counters, cluster counters, op counts, wall)."""
    sel = table.select
    stats = round_["serve_stats"]
    cluster = round_["cluster_stats"]
    reads = max(round_["reads"], 1)
    ops = max(round_["ops"], 1)
    m: dict[str, float] = {}

    # serve
    waits = sel("serve.queue_wait")
    bridge = sel("serve.engine_batch") + sel("serve.engine_write")
    m["serve.queue_wait_ms_p50"] = _pct_ms(waits, 50)
    m["serve.queue_wait_ms_p95"] = _pct_ms(waits, 95)
    m["serve.batch_linger_ms_mean"] = _mean_ms(sel("serve.batch_linger"))
    m["serve.batch_size_mean"] = _share(
        stats["engine_requests"], stats["engine_batch_calls"]
    )
    m["serve.bridge_busy_share"] = _share(
        sum(s.dur_us for s in bridge) / 1e6, round_["serve_wall_s"]
    )
    m["serve.bridge_self_us_per_read"] = (
        sum(table.self_us(s) for s in sel("serve.engine_batch")) / reads
    )
    m["serve.coalesce_attach_share"] = _share(
        stats["coalesce_attached"], stats["reads_served"]
    )
    m["serve.coalesce_fallback_share"] = _share(
        stats["coalesce_fallbacks"], stats["coalesce_attached"]
    )
    m["serve.fence_wait_ms_mean"] = _mean_ms(sel("serve.fence_wait"))
    m["serve.fences"] = float(stats["fences"])
    m["serve.queue_depth_peak"] = float(stats["queue_depth_peak"])
    m["serve.shed_share"] = _share(stats["shed"], stats["arrivals"])

    # engine (per engine request; on sharded_rw: per shard-engine request)
    served = sel("engine.serve")
    hits = [s for s in served if s.attrs.get("source") == "cache"]
    partial = [s for s in served if s.attrs.get("source") == "completed"]
    misses = [s for s in served if s.attrs.get("source") == "computed"]
    m["engine.full_hit_share"] = _share(len(hits), len(served))
    m["engine.partial_hit_share"] = _share(len(partial), len(served))
    m["engine.miss_share"] = _share(len(misses), len(served))
    m["engine.hit_serve_us_mean"] = _mean_ms(hits) * 1e3
    m["engine.miss_serve_ms_mean"] = _mean_ms(misses)
    m["engine.insert_ms_mean"] = _mean_ms(sel("engine.insert"))
    m["engine.delete_ms_mean"] = _mean_ms(sel("engine.delete"))

    # core: the shard/engine-tier GIR cache (the cluster tier's own
    # GIRCache is told apart by the span it is called under)
    def engine_tier(s: Any) -> bool:
        return not table.parent_name(s).startswith("cluster.")

    lookups = sel("engine.cache_lookup_batch")
    m["core.cache_lookup_us_per_read"] = _share(
        sum(s.dur_us for s in lookups), _attr_sum(lookups, "n")
    )
    inserts = sel("core.cache_insert", engine_tier)
    m["core.cache_insert_ms_mean"] = _mean_ms(inserts)
    m["core.cache_insert_ms_p95"] = _pct_ms(inserts, 95)
    grid = sel("core.cache_lookup", engine_tier)
    m["core.grid_negative_share"] = _share(
        _attr_sum(grid, "grid_negatives"), _attr_sum(grid, "grid_probes")
    )
    m["core.capacity_evictions"] = _attr_sum(inserts, "capacity_evictions")
    m["core.subsumption_evictions"] = _attr_sum(inserts, "subsumption_evictions")
    inv_ins = sel("core.invalidate_insert", engine_tier)
    inv_del = sel("core.invalidate_delete", engine_tier)
    m["core.invalidation_evictions"] = _attr_sum(inv_ins + inv_del, "evicted")
    m["core.invalidate_insert_ms_mean"] = _mean_ms(inv_ins)
    m["core.invalidate_delete_ms_mean"] = _mean_ms(inv_del)
    lps = _attr_sum(inv_ins, "lps")
    m["core.prescreen_lp_share"] = _share(
        lps, lps + _attr_sum(inv_ins, "screened")
    )

    # core: the GIR pipeline
    phase2 = sel("core.phase2")
    assemble = sel("core.assemble")
    m["core.phase1_ms_mean"] = _mean_ms(sel("core.phase1"))
    m["core.phase2_ms_mean"] = _mean_ms(phase2)
    m["core.phase2_ms_p95"] = _pct_ms(phase2, 95)
    m["core.assemble_ms_mean"] = _mean_ms(assemble)
    m["core.phase2_candidates_mean"] = _share(
        _attr_sum(phase2, "candidates"), len(phase2)
    )
    m["core.halfspaces_per_gir_mean"] = _share(
        _attr_sum(assemble, "halfspaces"), len(assemble)
    )

    # query / index
    brs = sel("engine.brs")
    m["query.brs_ms_mean"] = _mean_ms(brs)
    m["query.brs_resumed_share"] = _share(
        sum(bool(s.attrs.get("resumed")) for s in brs), len(brs)
    )
    m["index.pages_per_miss"] = _share(
        _attr_sum(misses, "pages_read"), len(misses)
    )
    m["index.tree_insert_ms_mean"] = _mean_ms(sel("index.tree_insert"))
    m["index.tree_delete_ms_mean"] = _mean_ms(sel("index.tree_delete"))
    m["index.bulk_load_s"] = sum(s.dur_us for s in sel("index.bulk_load")) / 1e6

    # geometry
    def did_scipy(s: Any) -> bool:
        return table.has_child(s, "geometry.scipy")

    m["geometry.vertices_ms_mean"] = _mean_ms(sel("geometry.vertices", did_scipy))
    m["geometry.chebyshev_ms_mean"] = _mean_ms(sel("geometry.chebyshev", did_scipy))
    m["geometry.maximize_ms_mean"] = _mean_ms(sel("geometry.maximize"))
    m["geometry.scipy_calls_per_op"] = len(sel("geometry.scipy")) / ops

    # cluster
    fanouts = sel("cluster.fanout")
    calls = sel("shard.call")
    m["cluster.fanout_share"] = _share(
        cluster.get("fanouts", 0), cluster.get("requests_served", 0)
    )
    m["cluster.cache_hit_share"] = _share(
        cluster.get("cluster_full_hits", 0),
        cluster.get("cluster_full_hits", 0) + cluster.get("cluster_misses", 0),
    )
    m["cluster.fanout_ms_mean"] = _mean_ms(fanouts)
    m["cluster.merge_ms_mean"] = _mean_ms(sel("cluster.merge_answers"))
    m["cluster.shard_call_ms_mean"] = _mean_ms(calls)
    slowest = [
        max(
            (c.dur_us for c in table.children.get(f.span_id, ()) if c.name == "shard.call"),
            default=0.0,
        )
        for f in fanouts
    ]
    m["cluster.shard_call_slowest_ms_mean"] = (
        sum(slowest) / len(slowest) / 1e3 if slowest else 0.0
    )
    pipe = [
        c.dur_us
        - sum(
            w.dur_us
            for w in table.children.get(c.span_id, ())
            if w.name == "shard.worker"
        )
        for c in calls
    ]
    m["cluster.pipe_wait_ms_mean"] = sum(pipe) / len(pipe) / 1e3 if pipe else 0.0
    enc, dec = sel("wire.encode"), sel("wire.decode")
    m["cluster.wire_encode_us_mean"] = _share(
        sum(s.dur_us for s in enc), sum(1 for s in enc if s.attrs.get("frame"))
    )
    m["cluster.wire_decode_us_mean"] = _share(
        sum(s.dur_us for s in dec), sum(1 for s in dec if s.attrs.get("frame"))
    )
    m["cluster.wire_bytes_per_fanout"] = _share(
        _attr_sum(
            [
                s
                for s in enc + dec
                if s.pid == router_pid and table.parent_name(s) == "shard.call"
            ],
            "bytes",
        ),
        len(fanouts),
    )
    routed = sel("cluster.insert") + sel("cluster.delete")
    m["cluster.write_route_ms_mean"] = (
        sum(table.self_us(s) for s in routed) / len(routed) / 1e3 if routed else 0.0
    )

    m["obs.spans_per_read"] = len(table.spans) / reads
    return m
