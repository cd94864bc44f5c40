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
* **miss** — BRS retrieves the answer. While the cache has room the
  pipeline runs on that same retrieval and the GIR is cached for future
  traffic. Once the cache is full, a region is computed and admitted only
  for an answer seen before (the doorkeeper of TinyLFU, Einziger et al.,
  ACM TOS 2017): the first sighting of an answer key ``(k, sorted ids)``
  is remembered in a table of the last :data:`SIGHTING_SPAN` ``×
  capacity`` keys and served without a region, and its repeat pays for
  the region and evicts the LRU entry. Where answers rarely repeat, most
  misses then pay for BRS alone. The table only decides whether to
  compute; every answer comes from BRS or from a region computed as
  before, and writes never touch it.
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

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.caching import (
    GIRCache,
    apply_delete_invalidation,
    apply_insert_invalidation,
)
from repro.core.gir import GIRStats
from repro.core.pipeline import PHASE2_METHODS, ExecutionContext, run_pipeline
from repro.data.dataset import Dataset, PointTable, grow_rows
from repro.engine.workload import Request, frozen_array
from repro.geometry.polytope import Polytope
from repro.index.bulkload import bulk_load_str
from repro.index.rtree import RStarTree
from repro.query.brs import brs_topk
from repro.query.topk import TopKResult
from repro.scoring import LinearScoring, ScoringFunction

__all__ = [
    "EngineResponse",
    "serve_full_hits",
    "UpdateResponse",
    "GIREngine",
    "INVALIDATION_POLICIES",
    "validate_weights",
    "validate_weight_rows",
    "validate_requests",
    "validate_k",
    "validate_k_type",
    "validate_rid_type",
    "validate_point",
]

#: Response provenance markers.
SOURCE_CACHE = "cache"
SOURCE_COMPUTED = "computed"

#: Cache-invalidation policies for updates.
INVALIDATION_POLICIES = ("gir", "flush")

#: A full cache remembers the answer keys of the last
#: ``SIGHTING_SPAN × capacity`` misses it served without a region; an
#: answer found there is computed and admitted (see :meth:`GIREngine._admits`).
SIGHTING_SPAN = 4

#: Max requests stacked into one batched cache lookup. A pipeline-running
#: request (a miss) changes the cache under the requests behind it, and
#: their membership matrix is patched — one copy of it per miss — so on
#: miss-heavy streams an unbounded window would copy O(batch) per miss
#: (quadratic overall); the window caps that while a hit-heavy stream
#: still amortizes its matmuls over hundreds of requests.
LOOKUP_WINDOW = 256


def validate_weights(weights: np.ndarray, d: int) -> np.ndarray:
    """Check a query vector at the serving boundary; returns it as float64.

    A malformed vector used to surface as an opaque downstream failure (a
    shape error inside BRS, or NaNs silently poisoning the geometry);
    rejecting it here gives the caller one clear :class:`ValueError`.
    Rejected: wrong dimensionality, non-finite entries (NaN/inf), negative
    entries, all-nonpositive vectors (a zero preference ranks every
    record identically — degenerate for top-k), and finite entries whose
    sum overflows float64 (a record's score could overflow to ``inf``;
    top-k is scale-invariant, so the caller scales the vector down).

    A well-formed vector passes one test over its entries as Python
    floats: a finite positive sum (NaN and inf propagate into it, an
    all-zero vector sums to 0, and an overflowing sum is ``inf``) and a
    non-negative minimum. The checks below it only choose the message.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (d,):
        raise ValueError(
            f"weights must be a vector of shape ({d},), got {arr.shape}"
        )
    vals = arr.tolist()
    if 0.0 < sum(vals) < math.inf and min(vals) >= 0.0:
        return arr
    if not np.isfinite(arr).all():
        raise ValueError("weights must be finite (no NaN or inf entries)")
    if (arr < 0).any():
        raise ValueError("query weights must be non-negative")
    if not (arr > 0).any():
        raise ValueError(
            "weights must have at least one positive entry "
            "(an all-zero preference cannot rank records)"
        )
    raise ValueError(
        "the sum of the weights overflows float64; scale the vector down "
        "(top-k does not depend on its scale)"
    )


def validate_weight_rows(rows: list, d: int) -> np.ndarray:
    """Check a batch's query vectors; returns them stacked as ``(n, d)``.

    One set of reductions over the stacked batch accepts a well-formed
    one: ``d`` times its largest entry bounds every row's sum, so a
    finite bound rules out NaN, inf and overflowing rows at once. A batch
    that fails them (or does not stack) is checked row by row with
    :func:`validate_weights`, so a bad row raises that function's
    message and a row the bound was too coarse for is still accepted.
    """
    try:
        W = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError):
        W = None
    if (
        W is None
        or W.shape != (len(rows), d)
        or not float(W.max()) * d < math.inf
        or (W < 0).any()
        or not (W > 0).any(axis=1).all()
    ):
        return np.array([validate_weights(w, d) for w in rows]).reshape(-1, d)
    return W


def validate_requests(
    requests: list, d: int, n_live: int
) -> tuple[np.ndarray, list[int], list[np.ndarray]]:
    """Check a read batch before any of it is served: returns its vectors
    stacked as ``(n, d)`` (:func:`validate_weight_rows`), its ``k``
    values (:func:`validate_k`) and each request's frozen vector
    (:func:`~repro.engine.workload.frozen_array`), the array its response
    carries — a :class:`~repro.engine.workload.Request`'s own copy, not
    another one. A malformed request fails the whole call up front,
    before any cache entry or counter moves."""
    W = validate_weight_rows([r.weights for r in requests], d)
    ks = [validate_k(r.k, n_live) for r in requests]
    return W, ks, [frozen_array(r.weights, "weights") for r in requests]


def validate_k_type(k: int) -> int:
    """The stateless part of :func:`validate_k` (the front door applies
    it at admission): an int or numpy integer, not a bool, at least 1.
    Returns it as int."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k <= 0:
        raise ValueError(f"k must be positive (an int >= 1), got {k!r}")
    return int(k)


def validate_k(k: int, n_live: int) -> int:
    """Check a request's ``k`` at the serving boundary; returns it as int.

    A cache hit serves ``ids[:k]`` of the cached entry, so an unchecked
    ``k = 0`` would come back as an empty "full hit" and a negative ``k``
    as a truncated prefix; only a cold cache would fail, deep inside BRS.
    Rejected: non-integers (bools included), ``k < 1``
    (:func:`validate_k_type`) and ``k`` above the live record count.
    """
    k = validate_k_type(k)
    if k > n_live:
        raise ValueError(f"k={k} exceeds live record count {n_live}")
    return k


def validate_rid_type(rid: int) -> int:
    """Check a delete's rid type before any lookup: an int or numpy
    integer, not a bool. Returns it as int; whether it is live is the
    table's question (a negative or dead rid raises ``KeyError`` there)."""
    if isinstance(rid, bool) or not isinstance(rid, (int, np.integer)):
        raise ValueError(f"rid must be an int, got {rid!r}")
    return int(rid)


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
    in place cannot corrupt the recorded accounting. The public
    constructor copies and freezes it (:func:`frozen_array`); the engines
    build their responses from a request's already-frozen vector through
    :meth:`_frozen`, which skips that re-check.
    """

    ids: tuple[int, ...]
    #: The answer's scores, canonical: bit for bit
    #: ``canonical_scores(scorer, result_rows(ids), weights)`` (one
    #: product over the ranked rows, see :mod:`repro.serve.replay`),
    #: whichever path served it — the response contract every engine
    #: keeps, so a front door passes them through unscored.
    scores: tuple[float, ...]
    weights: np.ndarray
    k: int
    #: ``"cache"`` (full hit) or ``"computed"`` (miss).
    source: str
    pages_read: int
    #: Pipeline cost breakdown; ``None`` for pure cache hits (no pipeline
    #: ran). A miss answered without a region carries only its retrieval
    #: pages (``io_pages_topk``).
    gir_stats: GIRStats | None = None
    #: The region of query space in which this exact (ordered) answer is
    #: served, if one was computed: the cached entry's GIR on a hit, the
    #: freshly computed GIR on a miss that admitted it, and ``None`` on a
    #: miss a full cache answered from BRS alone (the first sighting of
    #: its answer, see :meth:`GIREngine._admits`). A shared reference,
    #: not a copy — the sharded cluster tier reads it to assemble the
    #: cross-shard merged region.
    region: "Polytope | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", frozen_array(self.weights, "weights"))

    @classmethod
    def _frozen(
        cls,
        ids: tuple[int, ...],
        scores: tuple[float, ...],
        weights: np.ndarray,
        k: int,
        source: str,
        pages_read: int,
        gir_stats: GIRStats | None = None,
        region: "Polytope | None" = None,
    ) -> "EngineResponse":
        """A response over ``weights`` that is already what
        :func:`frozen_array` returns (a request's frozen copy), built
        without the dataclass ``__init__`` and its re-check."""
        self = object.__new__(cls)
        self.__dict__.update(
            ids=ids,
            scores=scores,
            weights=weights,
            k=k,
            source=source,
            pages_read=pages_read,
            gir_stats=gir_stats,
            region=region,
        )
        return self


def serve_full_hits(
    cache: GIRCache,
    rows: np.ndarray,
    scorer: ScoringFunction,
    keys: list[int],
    W: np.ndarray,
    vectors: list[np.ndarray],
    ks: list[int],
) -> list[EngineResponse]:
    """Answer resolved full cache hits: the one hit path of both engines.

    ``keys[i]`` is the entry serving request ``i``
    (:meth:`~repro.core.caching.GIRCache.resolve_hits`), whose vector is
    ``W[i]``, frozen copy ``vectors[i]`` and depth ``ks[i]``; ``rows``
    holds the records by rid. Each answer is its entry's first ``k`` ids,
    at zero page reads. Its scores come from one gather of the answers'
    rows per distinct ``k`` and one stacked product
    ``(m, k, d) @ (m, d, 1)``: each slice of it is the matvec
    :func:`~repro.serve.replay.canonical_scores` runs on the same rows,
    so the scores are canonical bit for bit.
    """
    m = len(keys)
    entries = [cache.entry(key) for key in keys]
    scores: list = [None] * m
    distinct = set(ks)
    for k in distinct:
        if len(distinct) == 1:
            group: "list[int] | range" = range(m)
            Wg = W
        else:
            group = [i for i in range(m) if ks[i] == k]
            Wg = W[group]
        idx = np.array([entries[i].topk.rid_array[:k] for i in group])
        G = rows[idx]
        G = scorer.transform(G.reshape(-1, G.shape[2])).reshape(G.shape)
        for i, row in zip(group, (G @ Wg[:, :, None]).reshape(len(group), k).tolist()):
            scores[i] = tuple(row)
    return [
        EngineResponse._frozen(
            ids=entry.topk.ids[:k],
            scores=row_scores,
            weights=weights,
            k=k,
            source=SOURCE_CACHE,
            pages_read=0,
            region=entry.polytope,
        )
        for entry, row_scores, weights, k in zip(entries, scores, vectors, ks)
    ]


@dataclass(frozen=True)
class UpdateResponse:
    """One applied update, with its invalidation accounting."""

    #: ``"insert"`` or ``"delete"``.
    kind: str
    #: Rid of the inserted / deleted record.
    rid: int
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


# Single-owner, no lock: one engine serves one shard, and the router's
# serve lock (or the worker process) serializes all access.
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
        #: Answer keys a full cache served without a region, oldest first
        #: (see :meth:`_admits`).
        self._sightings: dict[tuple[int, tuple[int, ...]], bool] = {}
        #: Misses answered without a region (first sightings).
        self.regions_deferred = 0
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

    def result_rows(self, ids) -> np.ndarray:
        """Snapshot copy of the rows behind an answer, in answer order.

        The replay check (:func:`~repro.serve.replay.replay_serial_check`)
        scores it canonically: ``scorer.score(result_rows(ids), w)`` is
        bit-identical to the ``scores`` of the response with those ids
        for ``w`` — the engine's response contract.
        """
        return np.array(self.points[list(ids)], dtype=np.float64)

    # -- serving --------------------------------------------------------------

    def topk(self, weights: np.ndarray, k: int) -> EngineResponse:
        """Answer one top-k request, cache-first: a batch of one through
        :meth:`topk_batch`, which documents the serving and validation
        rules."""
        return self.topk_batch([Request(weights=weights, k=k)])[0]

    def topk_batch(self, requests: list) -> list[EngineResponse]:
        """Serve a batch of :class:`~repro.engine.workload.Request`\\ s,
        cache-first — the engine's one read path.

        A full cache hit performs zero metered page reads; a miss — any
        request no entry cached for at least its ``k`` contains — runs the
        full pipeline. Either way each response carries a complete ordered
        top-k and its exact page-read count; time is the ``engine.serve``
        span's (:mod:`repro.obs`).

        Answers, provenance and all cache/hit accounting are identical to
        issuing the requests one-by-one; the work, however, is batched.
        Cache membership is one matmul of the request matrix against
        every cached region's stacked half-spaces
        (:meth:`~repro.core.caching.GIRCache.resolve_hits`), and the hits
        it resolves before each miss are answered together
        (:func:`serve_full_hits`: one gather and one stacked product). A
        miss runs BRS (:meth:`_serve`). While the cache has room it also
        computes and admits the answer's region; a full cache does so
        only for an answer seen before, evicting the LRU entry, and
        answers a first sighting without a region, leaving the cache as
        it was. After an admission the requests behind the miss are
        judged against a patched matrix — the evicted entry's column
        dropped, the new entry's evaluated for them only — exactly the
        state a sequential run would see. Lookups are stacked at most
        :data:`LOOKUP_WINDOW` at a time, bounding the matrix every patch
        copies.

        Malformed requests (query vector of the wrong dimension, NaN/inf,
        all-nonpositive; ``k`` not a positive int or above the live
        count) are rejected with a :class:`ValueError` up front — see
        :func:`validate_weights` / :func:`validate_k`.
        """
        reqs = list(requests)
        W, ks, vectors = validate_requests(reqs, self.d, self.n_live)
        responses: list[EngineResponse] = []
        with obs.span("engine.topk_batch", n=len(reqs)):
            for i in range(0, len(reqs), LOOKUP_WINDOW):
                window = self.cache.lookup_window(
                    W[i : i + LOOKUP_WINDOW], ks[i : i + LOOKUP_WINDOW]
                )
                while window.pending:
                    start = i + window.resolved
                    # The matmul, or the patch after a miss's admission,
                    # over the pending rows.
                    with obs.span("engine.cache_lookup_batch", n=window.pending):
                        keys = self.cache.resolve_hits(window)
                        missed = window.pending > 0
                        if missed:
                            self.cache.resolve_miss(window)
                    stop = start + len(keys)
                    responses += self._serve_hits(
                        keys, W[start:stop], vectors[start:stop], ks[start:stop]
                    )
                    if missed:
                        responses.append(self._serve(vectors[stop], ks[stop]))
        return responses

    def serve_hits(self, requests: list) -> list[EngineResponse]:
        """Serve the longest prefix of ``requests`` the cache answers in
        full — a bounded, hit-only read that never runs the pipeline.

        Every request it serves gets exactly what :meth:`topk_batch`
        would give it: the same response, recency touch and counters,
        through the same hit path (:func:`serve_full_hits`). The first
        request the cache does not answer in full is not touched — no
        miss is counted, no pipeline runs, no page is read — and neither
        is any after it, so ``serve_hits(reqs)`` followed by
        ``topk_batch`` of the rest serves and accounts exactly what
        ``topk_batch(reqs)`` does. The first request's membership is
        decided alone before the rest are stacked, so a batch led by a
        miss costs one row of membership. Validation is
        :meth:`topk_batch`'s, up front.
        """
        reqs = list(requests)
        W, ks, vectors = validate_requests(reqs, self.d, self.n_live)
        responses: list[EngineResponse] = []
        with obs.span("engine.serve_hits", n=len(reqs)):
            for i in range(0, len(reqs), LOOKUP_WINDOW):
                window = self.cache.lookup_window(
                    W[i : i + LOOKUP_WINDOW], ks[i : i + LOOKUP_WINDOW]
                )
                with obs.span("engine.cache_lookup_batch", n=window.pending):
                    keys = self.cache.resolve_hits(window)
                stop = i + len(keys)
                responses += self._serve_hits(
                    keys, W[i:stop], vectors[i:stop], ks[i:stop]
                )
                if window.pending:
                    break
        return responses

    def _serve_hits(
        self, keys: list[int], W: np.ndarray, vectors: list[np.ndarray], ks: list[int]
    ) -> list[EngineResponse]:
        """Answer resolved hits (:func:`serve_full_hits`); under tracing,
        one ``engine.serve`` span per hit, each an equal share of the
        call's time."""
        if not keys:
            return []
        t0 = time.perf_counter()
        responses = serve_full_hits(self.cache, self.points, self.scorer, keys, W, vectors, ks)
        self.requests_served += len(responses)
        if obs.tracing_enabled():
            step = (time.perf_counter() - t0) / len(responses)
            for i, k in enumerate(ks):
                obs.record_span(
                    "engine.serve",
                    t0 + i * step,
                    t0 + (i + 1) * step,
                    source=SOURCE_CACHE,
                    pages_read=0,
                    k=k,
                )
        return responses

    def _serve(self, weights: np.ndarray, k: int) -> EngineResponse:
        """Answer a miss from one BRS run (:meth:`_answer_miss`): with
        its region when one was computed and admitted, without one (and
        with only the retrieval pages in ``gir_stats``) when a full cache
        deferred it. Either way the answer is BRS's, and its source is
        ``"computed"``."""
        io_before = self.tree.store.stats.page_reads
        with obs.span("engine.serve") as sp:
            topk, gir_stats, region = self._answer_miss(weights, k)
            pages_read = self.tree.store.stats.page_reads - io_before
            self.requests_served += 1
            if obs.tracing_enabled():
                sp.set("source", SOURCE_COMPUTED)
                sp.set("pages_read", pages_read)
                sp.set("k", k)
            return EngineResponse._frozen(
                ids=topk.ids,
                scores=topk.scores,
                weights=weights,
                k=k,
                source=SOURCE_COMPUTED,
                pages_read=pages_read,
                gir_stats=gir_stats,
                region=region,
            )

    def _answer_miss(
        self, weights: np.ndarray, k: int
    ) -> tuple[TopKResult, GIRStats, Polytope | None]:
        """Retrieve a miss's answer with BRS, then compute and cache its
        GIR from that same run if :meth:`_admits` keeps it. Returns the
        answer, its cost breakdown and the admitted region (``None`` when
        deferred)."""
        points = self.points
        io_before = self.tree.store.stats.page_reads
        with obs.span("engine.brs") as bsp:
            run = brs_topk(self.tree, points, weights, k, scorer=self.scorer)
            if obs.tracing_enabled():
                bsp.set(
                    "pages_read",
                    self.tree.store.stats.page_reads - io_before,
                )
        retrieve_pages = self.tree.store.stats.page_reads - io_before
        if not self._admits(run.result.ids, k):
            self.regions_deferred += 1
            return run.result, GIRStats(io_pages_topk=retrieve_pages), None

        ctx = ExecutionContext(
            tree=self.tree,
            points=points,
            points_g=self.points_g,
            weights=np.asarray(weights, dtype=np.float64),
            k=k,
            scorer=self.scorer,
            method=self.method,
        )
        with obs.span("engine.pipeline"):
            gir = run_pipeline(ctx, run)
        # stage_retrieve adopted our run and charged nothing; attribute the
        # engine-side retrieval's pages (its time is the engine.brs span).
        gir.stats.io_pages_topk = retrieve_pages

        # kth_g enables the cache's vectorized insert-invalidation
        # prescreen for this entry (copied: the g-buffer may be
        # reallocated by later growth).
        self.cache.insert(gir, kth_g=self._g_buf[gir.topk.kth_id].copy())
        return gir.topk, gir.stats, gir.polytope

    def _admits(self, ids: tuple[int, ...], k: int) -> bool:
        """Whether a miss's region is worth computing and caching.

        Always while the cache has room: admitting evicts nothing. A full
        cache admits an answer only on its second sighting: the first
        records its key ``(k, sorted ids)`` in :attr:`_sightings`, which
        keeps the last ``SIGHTING_SPAN × capacity`` keys (the oldest
        dropped first), and the repeat takes it out and admits.
        """
        if len(self.cache) < self.cache.capacity:
            return True
        key = (k, tuple(sorted(ids)))
        if self._sightings.pop(key, False):
            return True
        self._sightings[key] = True
        if len(self._sightings) > SIGHTING_SPAN * self.cache.capacity:
            del self._sightings[next(iter(self._sightings))]
        return False

    # -- updates --------------------------------------------------------------

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
        point = validate_point(point, self.d)
        with obs.span("engine.insert") as sp:
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
                sp, "insert", rid, evicted, screened=screened, lps=lps
            )

    def delete(self, rid: int) -> UpdateResponse:
        """Delete a live record; returns eviction accounting.

        Under the ``"gir"`` policy an entry is evicted only if ``rid``
        appears in its result; deleting any other record leaves the cached
        ordered top-k valid everywhere in its region (removing a
        non-member never changes a top-k answer).
        """
        rid = validate_rid_type(rid)
        with obs.span("engine.delete") as sp:
            point = self.table.delete(rid)
            removed = self.tree.delete(point, rid)
            if not removed:  # pragma: no cover - table and tree always agree
                raise RuntimeError(f"rid {rid} live in table but absent from tree")
            if self.invalidation == "flush":
                evicted = self.cache.flush()
            else:
                evicted = apply_delete_invalidation(self.cache, rid)
            return self._finish_update(sp, "delete", rid, evicted)

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
        sp,
        kind: str,
        rid: int,
        evicted: int,
        screened: int = 0,
        lps: int = 0,
    ) -> UpdateResponse:
        """Count the applied write, and tag its ``engine.<kind>`` span
        ``sp`` with the rid and the evictions."""
        self.updates_applied += 1
        self.update_evictions += evicted
        if obs.tracing_enabled():
            sp.set("rid", rid)
            sp.set("evicted", evicted)
        return UpdateResponse(
            kind=kind,
            rid=rid,
            evicted=evicted,
            cache_entries=len(self.cache),
            policy=self.invalidation,
            prescreen_screened=screened,
            prescreen_lps=lps,
        )

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Engine-level counters merged with the cache's."""
        return {
            "requests_served": self.requests_served,
            "updates_applied": self.updates_applied,
            "update_evictions": self.update_evictions,
            "prescreen_screened": self.prescreen_screened,
            "prescreen_lps": self.prescreen_lps,
            "regions_deferred": self.regions_deferred,
            "live_records": self.n_live,
            **self.cache.stats(),
        }
