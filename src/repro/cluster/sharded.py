"""`ShardedGIREngine` — the sharded serving tier over N shard backends.

One :class:`~repro.engine.GIREngine` serves from one R*-tree and one GIR
cache; both its data size and its query throughput stop scaling with the
machine. This tier partitions the record table across ``N`` shards — each
a full, independent ``GIREngine`` (own R*-tree over its own simulated page
store, own point table, own :class:`~repro.core.caching.GIRCache`) — and
serves the *global* top-k on top:

* **shards execute behind a pluggable backend**
  (:mod:`repro.cluster.backends`): the router speaks only the narrow
  :class:`~repro.cluster.backends.ShardBackend` contract —
  ``build / topk_batch / fan_out / insert / delete / stats / close`` over
  plain serializable data — so the same cluster runs its shards in-process
  (``backend="inproc"``, the default) or in one long-lived worker process
  per shard (``backend="process"``, speaking the versioned wire format of
  :mod:`repro.cluster.wire`), with byte-identical answers either way;
* **reads fan out**: every non-empty shard answers its local top-k
  (cache-first, exactly as a standalone engine would), all on the
  caller's thread through one
  :meth:`~repro.cluster.backends.ShardBackend.fan_out` call. The backend
  decides how: in-process shards answer one after another; process
  shards are each sent their request before any reply is read, so the
  workers run CPU-bound phase-2 work at once, outside the router's GIL;
* **the merge layer** (:mod:`repro.cluster.merge`) pools the per-shard
  candidates into the global ordered top-k — byte-identical to a single
  engine over the unpartitioned data — and assembles its stability region
  as the intersection of the per-shard serving regions with the
  cross-shard merge-order half-spaces;
* **a cluster-level GIR cache** holds those merged regions, so repeat
  traffic in a hot region is served with *zero* fan-out and zero page
  reads. As at a shard, a request deeper than every containing entry's
  ``k`` is a miss and fans out. A shard whose full cache answers a first
  sighting from BRS alone sends no region; the merge then builds only
  the ordered answer, and the cluster cache admits nothing for it;
* **writes route** to the single owning shard (the partitioner decides),
  reuse the shard's selective ``invalidated_by_insert`` /
  ``invalidated_by_delete`` machinery unchanged, and apply the same
  selective test to the cluster-level cache under the global rids.

Global rids are the cluster's public record identity: the ``i``-th insert
lands at rid ``base_n + i`` exactly as in the single engine, so workload
generators (and their delete streams) work against either unchanged.
Each shard assigns its local rids in ascending global-rid order, which
keeps every local ``(score, coord-sum, rid)`` tie-break consistent with
the global one — the invariant the merge's byte-identity rests on.

**Thread safety.** The router itself is safe for concurrent external
callers: every serving and update entry point runs under one reentrant
*serve lock* (``_serve_lock``), so a ``topk`` observes either all or
none of a concurrent ``insert``/``delete`` — reads and the maps/caches
they consult can never interleave with a half-applied write. The router
starts no threads, and the serve lock is the tier's only lock: the
backends are router-owned, so every backend call — a fan-out, a write,
a stats or span round trip, ``close`` — runs under it, and a process
shard's request holds it from its send to its reply. Its witness is the
ownership-spied race of ``tests/test_cluster_stress.py``.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.cluster.backends import (
    InProcBackend,
    ShardBackend,
    ShardReply,
    ShardSpec,
    make_backend,
)
from repro.cluster.merge import MergedAnswer, ShardAnswer, merge_shard_answers
from repro.cluster.partition import Partitioner, make_partitioner
from repro.core.caching import (
    GIRCache,
    apply_delete_invalidation,
    apply_insert_invalidation,
)
from repro.data.dataset import Dataset, PointTable, grow_rows
from repro.engine.engine import (
    EngineResponse,
    GIREngine,
    INVALIDATION_POLICIES,
    UpdateResponse,
    serve_full_hits,
    validate_point,
    validate_requests,
    validate_rid_type,
)
from repro.engine.workload import Request
from repro.scoring import LinearScoring, ScoringFunction

__all__ = ["ShardedGIREngine"]


class ShardedGIREngine:
    """A sharded, fan-out top-k serving engine (see module docstring).

    Parameters
    ----------
    data:
        The :class:`Dataset` (or raw ``(n, d)`` array) to serve; must hold
        at least ``shards`` records.
    shards:
        Number of shards; each becomes an independent :class:`GIREngine`
        living behind a shard backend.
    partitioner:
        ``"round_robin"`` (default), ``"kd"`` (median splits of g-space),
        or a ready :class:`~repro.cluster.partition.Partitioner`.
    backend:
        Shard execution home: ``"inproc"`` (default — shard engines live
        in this process), ``"process"`` (one worker process per shard,
        requests crossing the :mod:`repro.cluster.wire` format), or a
        :class:`~repro.cluster.backends.ShardBackend` subclass. Answers
        and accounting are byte-identical across backends.
    parallel:
        Ignored. The backend, not a flag, decides how a fan-out overlaps
        its shards (see :meth:`ShardBackend.fan_out`). The keyword is
        accepted only so that callers written against the former thread
        fan-out keep working; it is neither stored nor forwarded.
    cache_capacity:
        Capacity of each *shard's* GIR cache.
    cache_policy:
        Must be ``"lru"``, the one eviction rule of every shard cache and
        the cluster-level cache; anything else raises ``ValueError``. The
        keyword is accepted only so that callers written against the
        former choice of policies keep working; it is neither stored nor
        forwarded.
    cluster_cache_capacity:
        Capacity of the cluster-level merged-region cache; ``0``
        disables the cluster cache (every read fans out).
    page_sleep_ms:
        Real per-page read latency of each shard's simulated store
        (see :class:`~repro.index.storage.PageStore`); ``0`` keeps page
        reads accounting-only.
    method / scorer / invalidation:
        Forwarded to every shard engine (one shared scorer instance keeps
        g-space identical across shards; the process backend pickles it
        into each worker).
    """

    def __init__(
        self,
        data: Dataset | np.ndarray,
        *,
        shards: int = 4,
        partitioner: "str | Partitioner" = "round_robin",
        backend: "str | type[ShardBackend]" = "inproc",
        parallel: bool = False,
        method: str = "fp",
        scorer: ScoringFunction | None = None,
        cache_capacity: int = 128,
        cache_policy: str = "lru",
        cluster_cache_capacity: int = 256,
        invalidation: str = "gir",
        page_sleep_ms: float = 0.0,
    ) -> None:
        if not isinstance(data, Dataset):
            data = Dataset(np.asarray(data, float))
        if shards <= 0:
            raise ValueError("shards must be positive")
        if data.n < shards:
            raise ValueError(
                f"need at least one record per shard: n={data.n} < shards={shards}"
            )
        if invalidation not in INVALIDATION_POLICIES:
            raise ValueError(
                f"unknown invalidation policy {invalidation!r}; "
                f"expected one of {INVALIDATION_POLICIES}"
            )
        if cache_policy != "lru":
            raise ValueError(f"unknown cache policy {cache_policy!r}; expected 'lru'")
        self.n_shards = int(shards)
        self.scorer = scorer or LinearScoring(data.d)
        self.method = method
        self.invalidation = invalidation
        self.partitioner = make_partitioner(partitioner, self.n_shards)
        self.backend_name: str = (
            backend if isinstance(backend, str) else getattr(backend, "name", "custom")
        )
        #: Serializes every serving/update entry point and every backend
        #: call against concurrent external callers (reentrant: the
        #: fan-out helpers re-enter it).
        self._serve_lock = threading.RLock()

        #: Global mirror of the record table: the cluster's public rids.
        #: Keeps the full point rows addressable for cluster-cache
        #: rescoring and for ground-truth oracles, at one extra copy of
        #: the data (the shards own theirs).
        self.table = PointTable.from_dataset(data)
        #: g-space image of the global table, maintained in lockstep
        #: (the cluster-cache invalidation LPs need the g-image of any
        #: global rid without asking the owning shard — which may live in
        #: another process).
        self._g_buf = self.scorer.transform(self.table.rows).copy()
        self._g_n: int = int(self.table.n_allocated)

        assignment = self.partitioner.assign_initial(self._g_buf[: data.n])
        #: Per shard: local rid → global rid (append-only, ascending).
        self._local_to_global: list[list[int]] = []
        #: Global rid → (shard, local rid).
        self._rid_map: list[tuple[int, int]] = [(-1, -1)] * data.n
        #: Per-shard live record counts, tracked router-side so fan-out
        #: targeting never needs a backend round trip.
        self._shard_live: list[int] = []
        #: Per-shard cache-entry snapshots (exact: every reply/update
        #: reports the post-op count, and nothing touches a shard's cache
        #: between the router's own calls) — update accounting sums these
        #: instead of fanning a stats request out on every write.
        self._shard_cache_entries: list[int] = []
        self.backends: list[ShardBackend] = []
        try:
            for s in range(self.n_shards):
                gids = np.flatnonzero(assignment == s)
                if gids.size == 0:  # pragma: no cover - partitioners guarantee
                    raise ValueError(f"partitioner left shard {s} empty")
                spec = ShardSpec(
                    shard=s,
                    name=f"{data.name}[shard{s}]",
                    points=data.points[gids],
                    method=method,
                    cache_capacity=cache_capacity,
                    invalidation=invalidation,
                    page_sleep_ms=page_sleep_ms,
                    scorer=self.scorer,
                )
                self.backends.append(make_backend(backend, spec))
                self._shard_live.append(int(gids.size))
                self._shard_cache_entries.append(0)
                self._local_to_global.append([int(g) for g in gids])
                for local, g in enumerate(gids):
                    self._rid_map[int(g)] = (s, local)
        except BaseException:
            # A later shard failed to build: release the execution homes
            # already started (process backends hold live workers and open
            # pipes that close() on this half-built object would never
            # reach).
            for built in self.backends:
                try:
                    built.close()
                except Exception:  # pragma: no cover - best-effort cleanup
                    pass
            raise

        #: Cluster-level cache of merged answers (``None`` = disabled).
        self.cache: GIRCache | None = (
            GIRCache(capacity=cluster_cache_capacity)
            if cluster_cache_capacity > 0
            else None
        )
        self.requests_served = 0
        self.fanouts = 0
        self.updates_applied = 0
        self.update_evictions = 0
        self._shard_requests: list[int] = [0] * self.n_shards
        #: Set when a shard diverged mid-write (dirty failure): the
        #: router's maps no longer describe the shard's state, so every
        #: further serving call fail-stops instead of returning answers
        #: merged from untrusted shards.
        self._broken: str | None = None

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut every shard backend down (idempotent; process-backed
        shards get an orderly worker shutdown). Taking the serve lock
        first lets any in-flight request finish before the backends under
        it disappear."""
        with self._serve_lock:
            for backend in self.backends:
                backend.close()

    def __enter__(self) -> "ShardedGIREngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- views ----------------------------------------------------------------

    @property
    def shards(self) -> list[GIREngine]:
        """The per-shard engines — only addressable with the in-process
        backend (a process-backed shard's engine lives in its worker)."""
        engines = [
            b.engine for b in self.backends if isinstance(b, InProcBackend)
        ]
        if len(engines) != len(self.backends):
            raise RuntimeError(
                f"shard engines are not in-process under the "
                f"{self.backend_name!r} backend; use backend.stats() or the "
                f"cluster API instead"
            )
        return engines

    @property
    def d(self) -> int:
        return int(self.table.d)

    @property
    def n_live(self) -> int:
        return int(self.table.n_live)

    @property
    def points(self) -> np.ndarray:
        """Read-only global row array, indexable by global rid."""
        return self.table.rows

    @property
    def points_g(self) -> np.ndarray:
        """G-space image of :attr:`points` (same shape, read-only)."""
        view = self._g_buf[: self._g_n]
        view.setflags(write=False)
        return view

    @property
    def live_mask(self) -> np.ndarray:
        return self.table.live_mask

    def locate(self, rid: int) -> tuple[int, int]:
        """``(shard, local rid)`` of a global rid (live or tombstoned)."""
        if not 0 <= rid < len(self._rid_map):
            raise KeyError(f"rid {rid} was never allocated")
        return self._rid_map[rid]

    def result_rows(self, ids: Sequence[int]) -> np.ndarray:
        """Snapshot copy of the global rows behind an answer, in answer
        order — the cluster half of the canonical-score contract (see
        :meth:`repro.engine.GIREngine.result_rows`); taken under the
        serve lock so it never interleaves with an update."""
        with self._serve_lock:
            return np.array(self.table.rows[list(ids)], dtype=np.float64)

    # -- serving --------------------------------------------------------------

    def topk(self, weights: np.ndarray, k: int) -> EngineResponse:
        """Answer one global top-k request: a batch of one through
        :meth:`topk_batch`."""
        return self.topk_batch([Request(weights=weights, k=k)])[0]

    def topk_batch(self, requests: "list[Request] | list[Any]") -> list[EngineResponse]:
        """Serve a batch of read requests — the cluster's one read path.

        The cluster cache is probed in one batched membership pass
        (full-only; zero fan-out and zero page reads on a hit); the
        remaining requests fan out with **one** batched backend
        ``topk_batch`` call per shard, then merge per request. Each
        response's rid sequence is identical to a single
        :class:`GIREngine` over the unpartitioned data, and its scores
        are the canonical product over the answer's rows (rescored after
        the merge), as the engine response contract requires; ``region``
        carries the merged stability region the answer is valid in, or
        ``None`` when a shard's full cache answered without a region (a
        first sighting, see :meth:`repro.engine.GIREngine._admits`) —
        such an answer is not admitted into the cluster cache.
        Answers are identical to issuing the requests through
        :meth:`topk` one-by-one; cluster-cache *hit accounting* may
        differ (a request in this batch does not see merged entries
        cached by an earlier request of the same batch — it fans out
        instead and caches its own merged entry; the LRU bounds the
        duplicates).
        """
        with obs.span("cluster.topk_batch", n=len(requests)), self._serve_lock:
            self._ensure_serving()
            reqs = list(requests)
            if not reqs:
                return []
            W, ks, vectors = validate_requests(reqs, self.d, self.n_live)
            hits = (
                self.cache.lookup_batch(W, ks)
                if self.cache is not None
                else [None] * len(reqs)
            )

            responses: list[EngineResponse | None] = [None] * len(reqs)
            served = {i: hit.entry_key for i, hit in enumerate(hits) if hit is not None}
            if served:
                rows = list(served)
                answers = self._serve_hits(
                    list(served.values()),
                    W[rows],
                    [vectors[i] for i in rows],
                    [ks[i] for i in rows],
                )
                for i, response in zip(rows, answers):
                    responses[i] = response
            pending = [i for i, hit in enumerate(hits) if hit is None]
            if pending:
                per_shard = self._fan_out(
                    [W[i] for i in pending], [ks[i] for i in pending]
                )
                for offset, i in enumerate(pending):
                    answers = [
                        self._lift(s, shard_replies[offset])
                        for s, shard_replies in per_shard
                    ]
                    merged = merge_shard_answers(answers, W[i], ks[i])
                    self._cache_merged(merged)
                    self.requests_served += 1
                    ids = merged.topk.ids
                    responses[i] = EngineResponse._frozen(
                        ids=ids,
                        # The pooled per-shard scores can differ from the
                        # canonical product by an ulp: rescore the answer.
                        scores=self._canonical_scores(ids, vectors[i]),
                        weights=vectors[i],
                        k=ks[i],
                        source=merged.source,
                        pages_read=merged.pages_read,
                        gir_stats=None,
                        region=(
                            merged.gir.polytope if merged.gir is not None else None
                        ),
                    )
            # Every slot is filled by now; the comprehension (rather than a
            # cast) keeps the narrowing visible to the type checker.
            out = [r for r in responses if r is not None]
            assert len(out) == len(reqs)
            return out

    def serve_hits(self, requests: "list[Request] | list[Any]") -> list[EngineResponse]:
        """Serve the longest prefix of ``requests`` the cluster cache
        answers in full — a bounded, hit-only read with no fan-out.

        Each served request gets exactly what :meth:`topk_batch` would
        give it, through the same hit path
        (:func:`~repro.engine.engine.serve_full_hits`). The first request
        the cluster cache does not answer in full is not touched (no miss
        counted, no shard called), and neither is any after it, so
        ``serve_hits(reqs)`` followed by ``topk_batch`` of the rest serves
        and accounts exactly what ``topk_batch(reqs)`` does. The first
        request's membership is decided alone before the rest are
        stacked, so a batch led by a miss costs one row of membership.
        Without a cluster cache it serves nothing. Validation is
        :meth:`topk_batch`'s, up front.
        """
        with obs.span("cluster.serve_hits", n=len(requests)), self._serve_lock:
            self._ensure_serving()
            reqs = list(requests)
            if not reqs:
                return []
            W, ks, vectors = validate_requests(reqs, self.d, self.n_live)
            if self.cache is None:
                return []
            keys = self.cache.resolve_hits(self.cache.lookup_window(W, ks))
            m = len(keys)
            return self._serve_hits(keys, W[:m], vectors[:m], ks[:m])

    def _ensure_serving(self) -> None:
        if self._broken is not None:
            raise RuntimeError(
                f"cluster is broken — {self._broken}; rebuild the "
                f"ShardedGIREngine (a shard's state diverged mid-write and "
                f"cannot be trusted)"
            )

    def _mark_broken(self, shard: int, kind: str, exc: Exception) -> None:
        self._broken = (
            f"shard {shard} diverged while applying a routed {kind} ({exc})"
        )

    def _serve_hits(
        self, keys: list[int], W: np.ndarray, vectors: list[np.ndarray], ks: list[int]
    ) -> list[EngineResponse]:
        """Answer resolved cluster-cache hits: zero fan-out, zero pages,
        scores canonical for each request's own weights
        (:func:`~repro.engine.engine.serve_full_hits`)."""
        assert self.cache is not None  # hits only come from the cache
        responses = serve_full_hits(
            self.cache, self.points, self.scorer, keys, W, vectors, ks
        )
        self.requests_served += len(responses)
        return responses

    def _canonical_scores(
        self, ids: Sequence[int], weights: np.ndarray
    ) -> tuple[float, ...]:
        """The response contract's scores: one product over the answer's
        global rows (:func:`repro.serve.replay.canonical_scores`)."""
        return tuple(self.scorer.score(self.points[list(ids)], weights).tolist())

    # -- fan-out --------------------------------------------------------------

    def _fan_out(
        self, weights_list: list[np.ndarray], ks: list[int]
    ) -> list[tuple[int, list[ShardReply]]]:
        """One read fan-out: a single backend ``topk_batch`` per non-empty
        shard over the whole pending request list (each answered locally,
        cache-first), in one :meth:`ShardBackend.fan_out` call that lets
        the backend class overlap the shards as it can. Each request's local
        ``k`` is clamped to the shard's live count (a shard holding fewer
        than ``k`` records contributes its whole live set — the pool still
        dominates every unseen record). Returns ``(shard, replies)``
        pairs, replies aligned with the request list. Re-enters the serve
        lock so the targeting maps cannot move under it even when a
        subclass (or test harness) calls it directly."""
        with obs.span("cluster.fanout", n=len(weights_list)), self._serve_lock:
            targets = [
                (s, self.backends[s], [(w, min(k, live)) for w, k in zip(weights_list, ks)])
                for s, live in enumerate(self._shard_live)
                if live > 0
            ]
            reply_lists = type(self.backends[0]).fan_out(targets)
            self.fanouts += len(weights_list)
            return [(s, r) for (s, _, _), r in zip(targets, reply_lists)]

    def _lift(self, shard: int, reply: ShardReply) -> ShardAnswer:
        """Lift a local-rid shard reply into global-rid terms for the
        merge, accounting the fan-out traffic."""
        self._shard_requests[shard] += 1
        self._shard_cache_entries[shard] = reply.cache_entries
        l2g = self._local_to_global[shard]
        return ShardAnswer(
            shard=shard,
            ids=tuple(l2g[lid] for lid in reply.ids),
            scores=reply.scores,
            tie_sums=reply.tie_sums,
            points_g=reply.points_g,
            region=reply.region,
            source=reply.source,
            pages_read=reply.pages_read,
        )

    def _cache_merged(self, merged: MergedAnswer) -> None:
        """Admit a merged entry into the cluster cache: only one with a
        merged region, which needs every shard's reply to carry one."""
        if self.cache is not None and merged.gir is not None:
            self.cache.insert(merged.gir, kth_g=merged.kth_g)

    # -- updates --------------------------------------------------------------

    def insert(self, point: np.ndarray) -> UpdateResponse:
        """Insert a record: route to the owning shard only, then apply the
        selective (or flush) invalidation to that shard's cache *and* to
        the cluster-level cache under the global rids."""
        with obs.span("cluster.insert"), self._serve_lock:
            self._ensure_serving()
            point = validate_point(point, self.d)
            gid = self.table.insert(point)
            # Work from the *stored* (unit-cube-clipped) row from here on,
            # so the cluster tier's g-image — and hence its exact-tie
            # prescreen classification — is byte-identical to what the
            # owning shard computes from its own stored copy.
            stored = self.table.point(gid)
            point_g = self._append_g(stored)
            shard = self.partitioner.route(point_g)
            try:
                sub = self.backends[shard].insert(stored)
            except Exception as exc:
                if getattr(exc, "dirty", False):
                    # The shard mutated before failing: its state no
                    # longer matches the router's maps (or possibly its
                    # own cache). Rolling back here would serve wrong
                    # answers later — fail-stop instead.
                    self._mark_broken(shard, "insert", exc)
                    raise
                # Clean failure: the shard never stored the row. Tombstone
                # the global allocation and keep the rid map aligned with
                # the table — otherwise every later insert's routing entry
                # would land one rid off.
                self.table.delete(gid)
                self._rid_map.append((-1, -1))
                raise
            local = sub.rid
            assert local == len(self._local_to_global[shard])
            self._local_to_global[shard].append(gid)
            self._rid_map.append((shard, local))
            self._shard_live[shard] += 1
            self._shard_cache_entries[shard] = sub.cache_entries
            evicted, screened, lps = self._cluster_invalidate_insert(
                point_g, gid
            )
            return self._finish_update(
                "insert",
                gid,
                evicted=sub.evicted + evicted,
                screened=sub.screened + screened,
                lps=sub.lps + lps,
            )

    def delete(self, rid: int) -> UpdateResponse:
        """Delete a live record by global rid: routed to its owning shard;
        cluster-cache entries are evicted only if they served the rid."""
        rid = validate_rid_type(rid)
        with obs.span("cluster.delete"), self._serve_lock:
            self._ensure_serving()
            # Validate first, mutate the global table only after the owning
            # shard applied the delete — a clean backend failure must not
            # strand a live shard record that the router counts as dead (a
            # *dirty* failure, where the shard tombstoned the row before
            # raising, fail-stops the cluster instead: see _mark_broken).
            if not self.table.is_live(rid):
                raise KeyError(f"rid {rid} is not a live record")
            shard, local = self.locate(rid)
            try:
                sub = self.backends[shard].delete(local)
            except Exception as exc:
                if getattr(exc, "dirty", False):
                    self._mark_broken(shard, "delete", exc)
                raise
            self.table.delete(rid)
            self._shard_live[shard] -= 1
            self._shard_cache_entries[shard] = sub.cache_entries
            if self.cache is None:
                evicted = 0
            elif self.invalidation == "flush":
                evicted = self.cache.flush()
            else:
                evicted = apply_delete_invalidation(self.cache, rid)
            return self._finish_update(
                "delete",
                rid,
                evicted=sub.evicted + evicted,
                screened=sub.screened,
                lps=sub.lps,
            )

    def _append_g(self, stored: np.ndarray) -> np.ndarray:
        """Maintain the global g-space image for a freshly inserted row
        (same growth policy as the table it mirrors)."""
        self._g_buf = grow_rows(self._g_buf, self._g_n)
        g_row = self.scorer.transform_one(stored)
        self._g_buf[self._g_n] = g_row
        self._g_n += 1
        return g_row

    def _cluster_invalidate_insert(
        self, point_g: np.ndarray, gid: int
    ) -> tuple[int, int, int]:
        """Apply the insert-invalidation policy to the cluster cache;
        returns (evicted, prescreen_screened, lps_run). The same
        ray prescreen (safe / tie / certain eviction) → tie-break → LP on
        the undecided rest sequence as :meth:`GIREngine.insert`
        (:func:`~repro.core.caching.apply_insert_invalidation`), keyed by
        global rids; merged entries carry their request weights as the
        rays' interior point."""
        if self.cache is None:
            return 0, 0, 0
        if self.invalidation == "flush":
            return int(self.cache.flush()), 0, 0
        rows = self.points
        evicted, screened, lps = apply_insert_invalidation(
            self.cache,
            point_g,
            new_sum=float(rows[gid].sum()),
            new_rid=gid,
            kth_point=lambda rid: rows[rid],
            kth_g=self._g_of,
        )
        return int(evicted), int(screened), int(lps)

    def _g_of(self, rid: int) -> np.ndarray:
        """g-space image of a global rid (router-maintained buffer — the
        owning shard may live in another process)."""
        return self._g_buf[rid]

    def _finish_update(
        self,
        kind: str,
        rid: int,
        evicted: int,
        screened: int,
        lps: int,
    ) -> UpdateResponse:
        self.updates_applied += 1
        self.update_evictions += evicted
        entries = sum(self._shard_cache_entries)
        if self.cache is not None:
            entries += len(self.cache)
        return UpdateResponse(
            kind=kind,
            rid=rid,
            evicted=evicted,
            cache_entries=entries,
            policy=self.invalidation,
            prescreen_screened=screened,
            prescreen_lps=lps,
        )

    # -- introspection --------------------------------------------------------

    def drain_worker_spans(self) -> dict[str, int]:
        """Pull every backend's buffered spans into the router-local trace
        collector (:meth:`~repro.cluster.backends.ShardBackend.drain_spans`
        → :func:`obs.absorb`), so cross-process worker spans stitch into
        the router's timeline. Returns aggregate drain accounting. No-op
        (all zeros) for in-process backends, whose spans already land in
        the router's collector, and when tracing is disabled."""
        totals = {"spans": 0, "started": 0, "finished": 0, "dropped": 0}
        if not obs.tracing_enabled():
            return totals
        with self._serve_lock:
            for backend in self.backends:
                payload = backend.drain_spans()
                spans = payload.get("spans", [])
                obs.absorb(spans)
                totals["spans"] += len(spans)
                for key in ("started", "finished", "dropped"):
                    totals[key] += int(payload.get(key, 0))
        return totals

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard breakdown: fan-out traffic, page reads, cache state.

        The router-side count of requests fanned out, merged with each
        backend's own stat snapshot
        (:func:`~repro.cluster.backends.engine_shard_stats`) — one stats
        round trip per shard for process-backed clusters, under the
        serve lock like every other backend call.
        """
        with self._serve_lock:
            return [
                {
                    "shard": s,
                    "requests": self._shard_requests[s],
                    **backend.stats(),
                }
                for s, backend in enumerate(self.backends)
            ]

    def cluster_stats(self) -> dict[str, Any]:
        """Cluster-tier counters (cache, fan-outs, backend)."""
        stats: dict[str, Any] = {
            "shards": self.n_shards,
            "backend": self.backend_name,
            "partitioner": self.partitioner.name,
            "requests_served": self.requests_served,
            "fanouts": self.fanouts,
            "updates_applied": self.updates_applied,
            "update_evictions": self.update_evictions,
            "live_records": self.n_live,
            "cluster_cache_enabled": self.cache is not None,
        }
        # `if self.cache` would test emptiness (GIRCache defines __len__),
        # zeroing the counters whenever the cache happens to be empty.
        if self.cache is not None:
            stats["cluster_full_hits"] = self.cache.full_hits
            stats["cluster_misses"] = self.cache.misses
            stats["cluster_entries"] = len(self.cache)
        else:
            stats["cluster_full_hits"] = 0
            stats["cluster_misses"] = 0
            stats["cluster_entries"] = 0
        return stats

    def stats(self) -> dict[str, Any]:
        """Cluster counters plus the per-shard breakdown;
        ``regions_deferred`` sums the shards' (misses a full shard cache
        answered without a region)."""
        shard_stats = self.shard_stats()
        return {
            **self.cluster_stats(),
            "regions_deferred": sum(s["regions_deferred"] for s in shard_stats),
            "shard_stats": shard_stats,
        }
