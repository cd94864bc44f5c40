"""`GIREngine` — the cache-first serving layer over the staged pipeline.

The paper's headline application (Section 1): a server answering heavy
top-k query traffic caches each computed result together with its GIR, and
serves any later query whose weight vector falls inside a cached GIR
without touching the database. The engine owns the full serving stack —
R*-tree, mutable point table, scorer and
:class:`~repro.core.caching.GIRCache` — and drives the compute pipeline of
:mod:`repro.core.pipeline` on misses.

Serving discipline:

* **full hit** — the request's vector lies in a cached GIR with
  ``k ≤ cached k``: served entirely from memory, zero page reads (scores
  are recomputed for the request's own weights from the in-memory points).
* **miss** — full pipeline run; the GIR is cached for future traffic.
  A vector inside a GIR cached only for a *smaller* ``k`` is a miss too:
  the engine keeps no per-entry search state to complete the cached
  prefix from. Resuming a retained BRS run would save page reads, but
  with pages in memory re-keying the retained heap costs more CPU than
  those reads, and the retained runs cost megabytes per cache.

Dynamic datasets
----------------

The dataset is *mutable*: :meth:`GIREngine.insert` / :meth:`GIREngine.delete`
route through :meth:`~repro.index.rtree.RStarTree.insert` /
:meth:`~repro.index.rtree.RStarTree.delete`, maintain the
:class:`~repro.data.dataset.PointTable` and its cached g-space image, and
invalidate cached GIRs per the engine's ``invalidation`` policy:

* ``"gir"`` (default) — *selective*: an insert evicts entry E only if the
  new record's score can exceed E's k-th score somewhere in E's region
  (one LP, :func:`~repro.core.caching.invalidated_by_insert`); a delete
  only if the rid is in E's result
  (:func:`~repro.core.caching.invalidated_by_delete`).
* ``"flush"`` — flush-on-write: every update empties the whole cache (the
  comparison baseline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs, sanitize
from repro.core.caching import (
    GIRCache,
    apply_delete_invalidation,
    apply_insert_invalidation,
)
from repro.core.gir import GIRResult, GIRStats
from repro.core.pipeline import PHASE2_METHODS, ExecutionContext, run_pipeline
from repro.data.dataset import Dataset, PointTable, grow_rows
from repro.engine.workload import (
    DeleteOp,
    InsertOp,
    Request,
    Workload,
    frozen_array,
)
from repro.geometry.polytope import Polytope
from repro.index.bulkload import bulk_load_str
from repro.index.rtree import RStarTree
from repro.query.brs import brs_topk
from repro.scoring import LinearScoring, ScoringFunction

__all__ = [
    "EngineResponse",
    "UpdateResponse",
    "WorkloadReport",
    "GIREngine",
    "INVALIDATION_POLICIES",
    "percentile",
    "validate_weights",
    "validate_k",
    "validate_point",
    "run_workload",
]

#: Response provenance markers.
SOURCE_CACHE = "cache"
SOURCE_COMPUTED = "computed"

#: Cache-invalidation policies for updates.
INVALIDATION_POLICIES = ("gir", "flush")

#: Max requests stacked into one batched cache lookup. A pipeline-running
#: request (a miss) interrupts the batch and invalidates the
#: membership matrix computed for the requests behind it, so on miss-heavy
#: streams an unbounded window would redo O(batch) membership work per
#: interruption (quadratic overall); the window caps that waste while a
#: hit-heavy stream still amortizes its matmuls over hundreds of requests.
LOOKUP_WINDOW = 256


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty list")
    return float(np.percentile(values, p, method="inverted_cdf"))


def validate_weights(weights: np.ndarray, d: int) -> np.ndarray:
    """Check a query vector at the serving boundary; returns it as float64.

    A malformed vector used to surface as an opaque downstream failure (a
    shape error inside BRS, or NaNs silently poisoning the geometry);
    rejecting it here gives the caller one clear :class:`ValueError`.
    Rejected: wrong dimensionality, non-finite entries (NaN/inf), negative
    entries, and all-nonpositive vectors (a zero preference ranks every
    record identically — degenerate for top-k).
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (d,):
        raise ValueError(
            f"weights must be a vector of shape ({d},), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("weights must be finite (no NaN or inf entries)")
    if (arr < 0).any():
        raise ValueError("query weights must be non-negative")
    if not (arr > 0).any():
        raise ValueError(
            "weights must have at least one positive entry "
            "(an all-zero preference cannot rank records)"
        )
    return arr


def validate_k(k: int, n_live: int) -> int:
    """Check a request's ``k`` at the serving boundary; returns it as int.

    A cache hit serves ``ids[:k]`` of the cached entry, so an unchecked
    ``k = 0`` would come back as an empty "full hit" and a negative ``k``
    as a truncated prefix; only a cold cache would fail, deep inside BRS.
    Rejected: non-integers (bools included), ``k < 1`` and ``k`` above
    the live record count.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
        raise ValueError(f"k must be positive (an int >= 1), got {k!r}")
    if k > n_live:
        raise ValueError(f"k={k} exceeds live record count {n_live}")
    return int(k)


def validate_point(point: np.ndarray, d: int) -> np.ndarray:
    """Check an insert's record at the serving boundary; returns float64.

    Shape and finiteness are rejected here with a clear :class:`ValueError`
    before any structure (table, tree, g-buffer) is touched; the unit-cube
    range check stays with :class:`~repro.data.dataset.PointTable`.
    """
    arr = np.asarray(point, dtype=np.float64)
    if arr.shape != (d,):
        raise ValueError(
            f"point must be a vector of shape ({d},), got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("point must be finite (no NaN or inf entries)")
    return arr


@dataclass(frozen=True)
class EngineResponse:
    """One served request, with its full cost accounting.

    ``weights`` is a read-only copy — a caller mutating its query vector
    in place cannot corrupt the recorded accounting.
    """

    ids: tuple[int, ...]
    scores: tuple[float, ...]
    weights: np.ndarray
    k: int
    #: ``"cache"`` (full hit) or ``"computed"`` (miss).
    source: str
    latency_ms: float
    pages_read: int
    #: Pipeline cost breakdown; ``None`` for pure cache hits (no pipeline ran).
    gir_stats: GIRStats | None = None
    #: The region of query space in which this exact (ordered) answer is
    #: served: the cached entry's GIR on a hit, the freshly computed GIR
    #: otherwise. A shared reference, not a copy — the sharded cluster
    #: tier reads it to assemble the cross-shard merged region.
    region: "Polytope | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", frozen_array(self.weights, "weights"))


@dataclass(frozen=True)
class UpdateResponse:
    """One applied update, with its invalidation accounting."""

    #: ``"insert"`` or ``"delete"``.
    kind: str
    #: Rid of the inserted / deleted record.
    rid: int
    latency_ms: float
    #: Cache entries this update invalidated (under the engine's policy).
    evicted: int
    #: Cache entries remaining after the update.
    cache_entries: int
    #: The policy that made the eviction decision (``"gir"`` / ``"flush"``).
    policy: str
    #: Cache entries the vectorized prescreen resolved without an LP
    #: (inserts under the ``"gir"`` policy; 0 otherwise).
    prescreen_screened: int = 0
    #: Invalidation LPs actually run (the prescreen's survivors).
    prescreen_lps: int = 0


@dataclass
class WorkloadReport:
    """Aggregate accounting of one batched workload run."""

    responses: list[EngineResponse]
    wall_ms: float
    workload_kind: str = "custom"
    updates: list[UpdateResponse] = field(default_factory=list)
    #: Portion of ``wall_ms`` spent applying updates (0 for read-only runs);
    #: read throughput is computed against the remainder so update cost —
    #: which differs by invalidation policy — cannot masquerade as read
    #: serving speed.
    update_wall_ms: float = 0.0
    #: Per-shard breakdown of a sharded-cluster run (one dict per shard:
    #: requests fanned out, page reads, latency, cache counters as
    #: *per-run deltas*; cache entries / live records as end-of-run
    #: state); empty for single-engine runs.
    shard_stats: list[dict] = field(default_factory=list)
    #: Cluster-tier counters of a sharded run (cluster-cache hits and
    #: fan-outs as per-run deltas; backend/partitioner/entries as
    #: state — the backend name makes saved bench reports
    #: self-describing); empty for single-engine runs.
    cluster_stats: dict = field(default_factory=dict)

    # -- derived aggregates ---------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.responses)

    @property
    def full_hits(self) -> int:
        return sum(r.source == SOURCE_CACHE for r in self.responses)

    @property
    def computed(self) -> int:
        return sum(r.source == SOURCE_COMPUTED for r in self.responses)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served without any pipeline run."""
        return self.full_hits / self.total if self.total else 0.0

    @property
    def pages_read_total(self) -> int:
        return sum(r.pages_read for r in self.responses)

    @property
    def pages_per_1k_queries(self) -> float:
        return 1000.0 * self.pages_read_total / self.total if self.total else 0.0

    @property
    def latency_p50_ms(self) -> float:
        if not self.responses:
            return 0.0
        return percentile([r.latency_ms for r in self.responses], 50)

    @property
    def latency_p95_ms(self) -> float:
        if not self.responses:
            return 0.0
        return percentile([r.latency_ms for r in self.responses], 95)

    @property
    def read_wall_ms(self) -> float:
        """Wall time spent serving reads (total minus update time)."""
        return max(self.wall_ms - self.update_wall_ms, 0.0)

    @property
    def throughput_qps(self) -> float:
        ms = self.read_wall_ms
        return 1000.0 * self.total / ms if ms > 0 else 0.0

    # -- update aggregates ----------------------------------------------------

    @property
    def updates_total(self) -> int:
        return len(self.updates)

    @property
    def inserts_applied(self) -> int:
        return sum(u.kind == "insert" for u in self.updates)

    @property
    def deletes_applied(self) -> int:
        return sum(u.kind == "delete" for u in self.updates)

    @property
    def evictions_total(self) -> int:
        """Cache entries invalidated by this run's updates."""
        return sum(u.evicted for u in self.updates)

    @property
    def prescreen_screened_total(self) -> int:
        """Cache entries cleared by the vectorized insert prescreen (no LP)."""
        return sum(u.prescreen_screened for u in self.updates)

    @property
    def prescreen_lps_total(self) -> int:
        """Invalidation LPs actually run across this run's updates."""
        return sum(u.prescreen_lps for u in self.updates)

    @property
    def update_latency_p50_ms(self) -> float:
        if not self.updates:
            return 0.0
        return percentile([u.latency_ms for u in self.updates], 50)

    @property
    def update_latency_p95_ms(self) -> float:
        if not self.updates:
            return 0.0
        return percentile([u.latency_ms for u in self.updates], 95)

    def to_dict(self) -> dict:
        """JSON-ready summary of the run."""
        payload = {
            "workload_kind": self.workload_kind,
            "queries": self.total,
            "full_hits": self.full_hits,
            "computed": self.computed,
            "hit_rate": self.hit_rate,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "pages_read_total": self.pages_read_total,
            "pages_per_1k_queries": self.pages_per_1k_queries,
            "wall_ms": self.wall_ms,
            "throughput_qps": self.throughput_qps,
        }
        if self.updates:
            payload.update(
                {
                    "updates": self.updates_total,
                    "inserts": self.inserts_applied,
                    "deletes": self.deletes_applied,
                    "evictions": self.evictions_total,
                    "update_latency_p50_ms": self.update_latency_p50_ms,
                    "update_latency_p95_ms": self.update_latency_p95_ms,
                    "update_wall_ms": self.update_wall_ms,
                    "prescreen_screened": self.prescreen_screened_total,
                    "prescreen_lps": self.prescreen_lps_total,
                }
            )
        if self.cluster_stats:
            payload["cluster"] = dict(self.cluster_stats)
        if self.shard_stats:
            payload["shards"] = [dict(s) for s in self.shard_stats]
        return payload

    def summary(self) -> str:
        lines = [
            f"workload          : {self.total} queries ({self.workload_kind})",
            f"served from cache : {self.full_hits} "
            f"({100 * self.hit_rate:.1f}%), {self.computed} computed",
            f"latency           : p50 {self.latency_p50_ms:.2f} ms, "
            f"p95 {self.latency_p95_ms:.2f} ms",
            f"I/O               : {self.pages_read_total} pages "
            f"({self.pages_per_1k_queries:.0f} per 1k queries)",
            f"throughput        : {self.throughput_qps:.0f} q/s",
        ]
        if self.updates:
            lines.append(
                f"updates           : {self.updates_total} "
                f"({self.inserts_applied} ins / {self.deletes_applied} del), "
                f"{self.evictions_total} cache evictions, "
                f"p50 {self.update_latency_p50_ms:.2f} ms"
            )
            lines.append(
                f"insert prescreen  : {self.prescreen_screened_total} entries "
                f"cleared without an LP, {self.prescreen_lps_total} LPs run"
            )
        if self.cluster_stats:
            cs = self.cluster_stats
            lines.append(
                f"cluster           : {len(self.shard_stats)} shards "
                f"({cs.get('backend', 'inproc')} backend), "
                f"{cs.get('cluster_full_hits', 0)} cluster-cache hits, "
                f"{cs.get('fanouts', 0)} fan-outs"
            )
        for s in self.shard_stats:
            lines.append(
                f"  shard {s.get('shard', '?')}         : "
                f"{s.get('requests', 0)} requests, "
                f"{s.get('page_reads', 0)} pages, "
                f"{s.get('cache_entries', 0)} cached regions, "
                f"{s.get('live_records', 0)} live records"
            )
        return "\n".join(lines)


def run_workload(engine, workload: Workload | list) -> WorkloadReport:
    """Serve an operation stream through ``engine`` one operation at a
    time — each read a batch of one, each update at its stream position —
    and return the aggregate accounting. The shared body of
    :meth:`GIREngine.run` and
    :meth:`~repro.cluster.ShardedGIREngine.run`; ``engine`` is anything
    with ``topk`` / ``insert`` / ``delete``."""
    kind = workload.kind if isinstance(workload, Workload) else "custom"
    responses: list[EngineResponse] = []
    updates: list[UpdateResponse] = []
    update_ms = 0.0
    t0 = time.perf_counter()
    for op in workload:
        if isinstance(op, Request):
            responses.append(engine.topk(op.weights, op.k))
        elif isinstance(op, InsertOp):
            tu = time.perf_counter()
            updates.append(engine.insert(op.point))
            update_ms += (time.perf_counter() - tu) * 1e3
        elif isinstance(op, DeleteOp):
            tu = time.perf_counter()
            updates.append(engine.delete(op.rid))
            update_ms += (time.perf_counter() - tu) * 1e3
        else:
            raise TypeError(f"unknown workload operation {op!r}")
    return WorkloadReport(
        responses=responses,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        workload_kind=kind,
        updates=updates,
        update_wall_ms=update_ms,
    )


# repro: thread-owned[GIREngine] -- one engine serves one shard; the router's serve lock (or the worker process) serializes all access
class GIREngine:
    """A cache-first top-k serving engine over a *dynamic* dataset
    (Section 1 application).

    Parameters
    ----------
    data:
        The :class:`Dataset` (or raw ``(n, d)`` array) to serve. Copied
        into a mutable :class:`PointTable`; the engine owns all updates.
    tree:
        R*-tree over ``data``; bulk-loaded on the spot if omitted. The
        engine mutates the tree on :meth:`insert` / :meth:`delete`, so it
        must not be shared with another engine.
    method:
        Phase-2 algorithm for GIR computation (``"fp"`` default).
    scorer:
        Scoring function; linear by default.
    cache_capacity:
        Capacity of the GIR cache.
    cache_policy:
        Must be ``"lru"``, the cache's one eviction rule; anything else
        raises ``ValueError``. The keyword is accepted only so that
        callers written against the former choice of policies keep
        working; it is neither stored nor forwarded.
    invalidation:
        Cache policy on updates: ``"gir"`` (selective, default) or
        ``"flush"`` (drop everything — the baseline).
    """

    def __init__(
        self,
        data: Dataset | np.ndarray,
        tree: RStarTree | None = None,
        *,
        method: str = "fp",
        scorer: ScoringFunction | None = None,
        cache_capacity: int = 128,
        cache_policy: str = "lru",
        invalidation: str = "gir",
    ) -> None:
        if method not in PHASE2_METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {sorted(PHASE2_METHODS)}"
            )
        if invalidation not in INVALIDATION_POLICIES:
            raise ValueError(
                f"unknown invalidation policy {invalidation!r}; "
                f"expected one of {INVALIDATION_POLICIES}"
            )
        if cache_policy != "lru":
            raise ValueError(f"unknown cache policy {cache_policy!r}; expected 'lru'")
        if not isinstance(data, Dataset):
            data = Dataset(np.asarray(data, float))
        self.data = data
        self.table = PointTable.from_dataset(data)
        self.tree = tree if tree is not None else bulk_load_str(data)
        self.scorer = scorer or LinearScoring(self.tree.d)
        self.method = method
        self.invalidation = invalidation
        #: g-space image of the table, maintained incrementally alongside it
        #: (capacity-doubling buffer mirroring the table's rows).
        self._g_buf = self.scorer.transform(self.table.rows).copy()
        self._g_n = self.table.n_allocated
        self.cache = GIRCache(capacity=cache_capacity)
        self.requests_served = 0
        self.updates_applied = 0
        self.update_evictions = 0
        self.prescreen_screened = 0
        self.prescreen_lps = 0

    @property
    def d(self) -> int:
        return self.tree.d

    @property
    def points(self) -> np.ndarray:
        """Read-only ``(n_allocated, d)`` row array, indexable by rid
        (tombstoned rows included — the tree never references them)."""
        return self.table.rows

    @property
    def points_g(self) -> np.ndarray:
        """G-space image of :attr:`points` (same shape, read-only)."""
        view = self._g_buf[: self._g_n]
        view.setflags(write=False)
        return view

    @property
    def n_live(self) -> int:
        return self.table.n_live

    @sanitize.reads
    def result_rows(self, ids) -> np.ndarray:
        """Snapshot copy of the rows behind an answer, in answer order.

        The serving front door takes this on the engine thread right
        after the response it belongs to, before any later insert/delete
        can run, and scores it canonically: ``scorer.score(
        result_rows(ids), w)`` is bit-identical to the full-hit
        rescoring path for any ``w`` in the response's region.
        """
        return np.array(self.points[list(ids)], dtype=np.float64)

    # -- serving --------------------------------------------------------------

    @sanitize.mutates  # cache-first serving touches recency and counters
    def topk(self, weights: np.ndarray, k: int) -> EngineResponse:
        """Answer one top-k request, cache-first: a batch of one through
        :meth:`topk_batch`, which documents the serving and validation
        rules."""
        return self.topk_batch([Request(weights=weights, k=k)])[0]

    @sanitize.mutates
    def topk_batch(self, requests: list) -> list[EngineResponse]:
        """Serve a batch of :class:`~repro.engine.workload.Request`\\ s,
        cache-first — the engine's one read path.

        A full cache hit performs zero metered page reads; a miss — any
        request no entry cached for at least its ``k`` contains — runs the
        full pipeline. Either way each response carries a complete ordered
        top-k and exact latency / page-read accounting.

        Answers, provenance and all cache/hit accounting are identical to
        issuing the requests one-by-one; the cache membership work,
        however, is batched — one matmul of the pending request matrix
        against every cached region's stacked half-spaces
        (:meth:`~repro.core.caching.GIRCache.lookup_batch`). A request
        that triggers the pipeline (a miss) mutates the
        cache, so batched evaluation restarts from the following request —
        exactly the state a sequential run would see. Lookups are stacked
        at most :data:`LOOKUP_WINDOW` at a time, bounding the membership
        work a mid-batch pipeline run can invalidate.

        Malformed requests (query vector of the wrong dimension, NaN/inf,
        all-nonpositive; ``k`` not a positive int or above the live
        count) are rejected with a :class:`ValueError` up front — see
        :func:`validate_weights` / :func:`validate_k`.
        """
        reqs = list(requests)
        # Validate the whole batch before serving anything: a malformed
        # request must fail the call up front, not abort mid-batch after
        # earlier windows already mutated the cache and the counters.
        validated = [validate_weights(r.weights, self.d) for r in reqs]
        n_live = self.n_live
        all_ks = [validate_k(r.k, n_live) for r in reqs]
        responses: list[EngineResponse] = []
        with obs.span("engine.topk_batch", n=len(reqs)):
            i = 0
            while i < len(reqs):
                W = np.stack(validated[i : i + LOOKUP_WINDOW])
                ks = all_ks[i : i + LOOKUP_WINDOW]
                t_lookup = time.perf_counter()
                with obs.span("engine.cache_lookup_batch", n=len(ks)):
                    hits = self.cache.lookup_batch(
                        W, ks, stop_after_non_full=True
                    )
                # Attribute the shared membership matmul evenly to the
                # requests it resolved, so a request's latency_ms
                # includes its share of the lookup.
                lookup_share_ms = (
                    (time.perf_counter() - t_lookup) * 1e3 / max(len(hits), 1)
                )
                for offset, hit in enumerate(hits):
                    io_before = self.tree.store.stats.page_reads
                    t0 = time.perf_counter()
                    responses.append(
                        self._serve(
                            W[offset], ks[offset], hit, t0, io_before,
                            extra_latency_ms=lookup_share_ms,
                        )
                    )
                i += len(hits)
        return responses

    def _serve(
        self,
        weights: np.ndarray,
        k: int,
        hit,
        t0: float,
        io_before: int,
        extra_latency_ms: float = 0.0,
    ) -> EngineResponse:
        """Turn a resolved cache outcome into a full response (running the
        pipeline on a miss). ``extra_latency_ms``
        charges work done for this request before ``t0`` (a batched
        lookup's amortized share)."""
        with obs.span("engine.serve") as sp:
            if hit is not None:
                ids = hit.ids
                scores = tuple(
                    float(s)
                    for s in self.scorer.score(self.points[list(ids)], weights)
                )
                source = SOURCE_CACHE
                gir_stats = None
                region = self.cache.entry(hit.entry_key).polytope
            else:
                gir = self._compute_and_cache(weights, k)
                ids = gir.topk.ids
                scores = gir.topk.scores
                source = SOURCE_COMPUTED
                gir_stats = gir.stats
                region = gir.polytope

            latency_ms = (time.perf_counter() - t0) * 1e3 + extra_latency_ms
            pages_read = self.tree.store.stats.page_reads - io_before
            self.requests_served += 1
            if obs.tracing_enabled():
                sp.set("source", source)
                sp.set("pages_read", pages_read)
                sp.set("k", k)
            return EngineResponse(
                ids=ids,
                scores=scores,
                weights=weights,
                k=k,
                source=source,
                latency_ms=latency_ms,
                pages_read=pages_read,
                gir_stats=gir_stats,
                region=region,
            )

    def _compute_and_cache(self, weights: np.ndarray, k: int) -> GIRResult:
        """Run the staged pipeline and cache the resulting GIR."""
        points = self.points
        ctx = ExecutionContext(
            tree=self.tree,
            points=points,
            points_g=self.points_g,
            weights=np.asarray(weights, dtype=np.float64),
            k=k,
            scorer=self.scorer,
            method=self.method,
        )
        io_before = self.tree.store.stats.page_reads
        t0 = time.perf_counter()
        with obs.span("engine.brs") as bsp:
            run = brs_topk(self.tree, points, weights, k, scorer=self.scorer)
            if obs.tracing_enabled():
                bsp.set(
                    "pages_read",
                    self.tree.store.stats.page_reads - io_before,
                )
        retrieve_ms = (time.perf_counter() - t0) * 1e3
        retrieve_pages = self.tree.store.stats.page_reads - io_before

        with obs.span("engine.pipeline"):
            gir = run_pipeline(ctx, run)
        # stage_retrieve adopted our run and charged nothing; attribute the
        # engine-side retrieval so per-request GIRStats
        # stay exact.
        gir.stats.cpu_ms_topk = retrieve_ms
        gir.stats.io_pages_topk = retrieve_pages

        # kth_g enables the cache's vectorized insert-invalidation
        # prescreen for this entry (copied: the g-buffer may be
        # reallocated by later growth).
        self.cache.insert(gir, kth_g=self._g_buf[gir.topk.kth_id].copy())
        return gir

    # -- updates --------------------------------------------------------------

    @sanitize.mutates
    def insert(self, point: np.ndarray) -> UpdateResponse:
        """Insert a new record; returns its rid and eviction accounting.

        The point joins the table (fresh rid), the R*-tree and the cached
        g-space image; then the cache is invalidated per the engine's
        policy — under ``"gir"``, entry E is evicted only if the new
        record can out-score E's k-th result record somewhere in E's
        region (the halfspace-intersection LP of
        :meth:`~repro.core.gir.GIRResult.admits_above_kth`). The cache's
        vectorized prescreen
        (:meth:`~repro.core.caching.GIRCache.prescreen_insert`) brackets
        that LP's optimum by each region's cone rays and so decides
        nearly every entry — undisturbable or certainly evicted — without
        it; the LP runs only where ray enumeration failed or the bracket
        straddles the tolerance.

        Malformed points (wrong dimension, NaN/inf) are rejected with a
        :class:`ValueError` before any structure is touched — see
        :func:`validate_point`.
        """
        t0 = time.perf_counter()
        point = validate_point(point, self.d)
        rid = self.table.insert(point)
        self.tree.insert(self.table.point(rid), rid)
        point_g = self._append_g(self.table.point(rid))
        screened = lps = 0
        if self.invalidation == "flush":
            evicted = self.cache.flush()
        else:
            evicted, screened, lps = apply_insert_invalidation(
                self.cache,
                point_g,
                new_sum=float(self.points[rid].sum()),
                new_rid=rid,
                kth_point=lambda kid: self.points[kid],
                kth_g=lambda kid: self._g_buf[kid],
            )
            self.prescreen_screened += screened
            self.prescreen_lps += lps
        return self._finish_update(
            "insert", rid, t0, evicted, screened=screened, lps=lps
        )

    @sanitize.mutates
    def delete(self, rid: int) -> UpdateResponse:
        """Delete a live record; returns eviction accounting.

        Under the ``"gir"`` policy an entry is evicted only if ``rid``
        appears in its result; deleting any other record leaves the cached
        ordered top-k valid everywhere in its region (removing a
        non-member never changes a top-k answer).
        """
        t0 = time.perf_counter()
        point = self.table.delete(rid)
        removed = self.tree.delete(point, rid)
        if not removed:  # pragma: no cover - table and tree always agree
            raise RuntimeError(f"rid {rid} live in table but absent from tree")
        if self.invalidation == "flush":
            evicted = self.cache.flush()
        else:
            evicted = apply_delete_invalidation(self.cache, rid)
        return self._finish_update("delete", rid, t0, evicted)

    def _append_g(self, point: np.ndarray) -> np.ndarray:
        """Maintain the g-space image for a freshly inserted row (grown with
        the same policy as the table it mirrors)."""
        self._g_buf = grow_rows(self._g_buf, self._g_n)
        g_row = self.scorer.transform_one(point)
        self._g_buf[self._g_n] = g_row
        self._g_n += 1
        return g_row

    def _finish_update(
        self,
        kind: str,
        rid: int,
        t0: float,
        evicted: int,
        screened: int = 0,
        lps: int = 0,
    ) -> UpdateResponse:
        self.updates_applied += 1
        self.update_evictions += evicted
        if obs.tracing_enabled():
            obs.record_span(
                f"engine.{kind}",
                t0,
                time.perf_counter(),
                rid=rid,
                evicted=evicted,
            )
        return UpdateResponse(
            kind=kind,
            rid=rid,
            latency_ms=(time.perf_counter() - t0) * 1e3,
            evicted=evicted,
            cache_entries=len(self.cache),
            policy=self.invalidation,
            prescreen_screened=screened,
            prescreen_lps=lps,
        )

    # -- workload runner ------------------------------------------------------

    def run(self, workload: Workload | list) -> WorkloadReport:
        """Serve a whole workload — reads and updates — and return
        aggregate accounting (see :func:`run_workload`)."""
        return run_workload(self, workload)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Engine-level counters merged with the cache's."""
        return {
            "requests_served": self.requests_served,
            "updates_applied": self.updates_applied,
            "update_evictions": self.update_evictions,
            "prescreen_screened": self.prescreen_screened,
            "prescreen_lps": self.prescreen_lps,
            "live_records": self.n_live,
            **self.cache.stats(),
        }
