"""The shard-execution contract: `ShardBackend` and its data shapes.

:class:`~repro.cluster.ShardedGIREngine` owns *global* concerns — routing,
fan-out, cross-shard merge, the cluster-level cache — and delegates every
per-shard operation to a :class:`ShardBackend`. A backend owns exactly one
shard: a full :class:`~repro.engine.GIREngine` (R*-tree over its own page
store, point table, GIR cache), wherever it happens to execute. The
contract is deliberately narrow and fully serializable:

* :meth:`ShardBackend.build` — construct the shard from a
  :class:`ShardSpec` (initial rows + engine config + scorer);
* :meth:`ShardBackend.topk_batch` — answer a batch of local reads (a
  single read is a batch of one), returning :class:`ShardReply`\\ s — the
  ``(ids, scores, tie_sums, points_g, region)`` tuple the merge layer
  consumes, in **local** rid terms (the router lifts rids to global);
* :meth:`ShardBackend.fan_out` — one such batch on each of several
  shards: the router's fan-out, overlapped as the backend class can;
* :meth:`ShardBackend.insert` / :meth:`ShardBackend.delete` — apply a
  routed write, returning :class:`ShardUpdate` (local rid + invalidation
  accounting);
* :meth:`ShardBackend.stats` — the shard's counter snapshot (one
  block of the router's ``shard_stats()``);
* :meth:`ShardBackend.close` — release the execution resources
  (idempotent).

Everything a reply carries is plain data — ints, float64 arrays, at most
one H-representation polytope — so the same contract serves an in-process
engine (:class:`~repro.cluster.backends.inproc.InProcBackend`), a worker
process speaking :mod:`repro.cluster.wire`
(:class:`~repro.cluster.backends.process.ProcessBackend`), and, later, a
socket to another host. Backends over any transport must stay
*byte-identical*: same ids, same float64 scores, same region rows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Self, Sequence

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.data.dataset import Dataset
from repro.engine.engine import EngineResponse, GIREngine, UpdateResponse
from repro.engine.workload import Request
from repro.index.bulkload import bulk_load_str
from repro.index.storage import PageStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.polytope import Polytope
    from repro.scoring import ScoringFunction

__all__ = [
    "ShardSpec",
    "ShardReads",
    "ShardReply",
    "ShardUpdate",
    "ShardBackend",
    "ShardWriteError",
    "build_shard_engine",
    "guarded_engine_write",
    "reply_from_response",
    "serve_shard_reads",
    "update_from_response",
    "engine_shard_stats",
]


#: A batch of ``(weights, k)`` local reads (each ``k`` already clamped by
#: the router).
ShardReads = Sequence[tuple[npt.NDArray[np.float64], int]]


class ShardWriteError(RuntimeError):
    """A routed write failed *after* the shard engine began mutating.

    Raised by :func:`guarded_engine_write` only for the dangerous failure
    class: the row was already stored / tombstoned when the exception hit
    (e.g. an invalidation LP or a tree split raised mid-flight), so the
    shard's state can no longer be trusted to match the router's maps or
    its own cache. The only sound response is fail-stop — the worker
    refuses further work and the router marks the cluster broken rather
    than serve from diverged state. Failures where the engine never
    mutated (validation errors, dead rids) re-raise the original
    exception instead: those writes simply did not happen and are safe to
    roll back and retry. ``dirty`` is the transport-crossing marker the
    router dispatches on (also mirrored onto
    :class:`~repro.cluster.wire.WorkerFailure` for process shards).
    """

    def __init__(self, message: str, dirty: bool = True) -> None:
        super().__init__(message)
        self.dirty = bool(dirty)


def guarded_engine_write(
    engine: GIREngine,
    kind: str,
    arg: "npt.NDArray[np.float64] | int",
) -> UpdateResponse:
    """Apply one write to a shard engine, classifying any failure.

    ``kind`` is ``"insert"`` (``arg`` = point) or ``"delete"`` (``arg`` =
    local rid). A *clean* failure — the engine's structural state never
    mutated (validation errors, dead rids) — re-raises the original
    exception untouched: the write simply did not happen and callers keep
    their normal error semantics. A *dirty* failure is wrapped in
    :class:`ShardWriteError` with ``dirty=True`` (see its docstring).
    Dirtiness is detected from the table itself (allocation count for
    inserts, liveness flip for deletes), so the classification cannot
    drift from what the engine actually did.
    """
    if kind == "insert":
        n_before = engine.table.n_allocated
        try:
            return engine.insert(arg)
        except Exception as exc:
            if engine.table.n_allocated == n_before:
                raise
            raise ShardWriteError(
                f"shard insert failed after the row was stored: {exc}",
                dirty=True,
            ) from exc
    if kind == "delete":
        was_live = engine.table.is_live(arg)
        try:
            return engine.delete(arg)
        except Exception as exc:
            if not (was_live and not engine.table.is_live(arg)):
                raise
            raise ShardWriteError(
                f"shard delete of local rid {arg} failed after the row was "
                f"tombstoned: {exc}",
                dirty=True,
            ) from exc
    raise ValueError(f"unknown write kind {kind!r}")


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to build one shard, anywhere.

    The router computes the initial row assignment; the spec carries the
    shard's own rows (ordered by ascending global rid — the invariant the
    merge's tie-break identity rests on) plus the engine configuration.
    ``scorer`` must be shared across shards semantically (same g-space);
    backends that cross a process boundary pickle it.
    """

    shard: int
    name: str
    #: ``(n_s, d)`` float64 initial rows, ascending global-rid order.
    points: npt.NDArray[np.float64]
    method: str
    cache_capacity: int
    invalidation: str
    page_sleep_ms: float
    scorer: "ScoringFunction"


@dataclass(frozen=True)
class ShardReply:
    """One shard's answer to a read, in **local** rid terms.

    This is the serializable merge contract: the router converts local
    rids to global and hands the rest to
    :func:`~repro.cluster.merge.merge_shard_answers` untouched.
    """

    #: Ranked local rids (the shard's whole live set when it holds fewer
    #: than the requested ``k`` records).
    ids: tuple[int, ...]
    #: Scores under the request's weights, descending.
    scores: tuple[float, ...]
    #: Coordinate sums of the ranked records (weight-independent tie-break).
    tie_sums: tuple[float, ...]
    #: ``(len(ids), d)`` g-space images of the ranked records.
    points_g: npt.NDArray[np.float64]
    #: The region the shard served this exact ordered list under;
    #: ``None`` when the shard computed none (a full shard cache answers
    #: a first sighting from BRS alone, see
    #: :meth:`repro.engine.GIREngine._admits`). The wire sends it as an
    #: empty region payload.
    region: "Polytope | None"
    #: ``"cache"`` / ``"computed"``.
    source: str
    #: Metered page reads charged for this answer.
    pages_read: int
    #: Shard-cache entries *after* serving this request. The router
    #: tracks these snapshots so update accounting can report cluster-wide
    #: cache occupancy without a per-write stats round trip (nothing
    #: touches a shard's cache between the router's own calls to it, so
    #: the last snapshot is always exact).
    cache_entries: int


@dataclass(frozen=True)
class ShardUpdate:
    """One applied write, in local rid terms, with its accounting."""

    #: Local rid of the inserted/deleted record.
    rid: int
    #: Shard-cache entries the write invalidated.
    evicted: int
    #: Entries the insert prescreen cleared without an LP.
    screened: int
    #: Invalidation LPs actually run.
    lps: int
    #: Shard-cache entries remaining after the update (see
    #: :attr:`ShardReply.cache_entries`).
    cache_entries: int


class ShardBackend(ABC):
    """Execution home of one shard (see module docstring)."""

    name: str = "abstract"

    @abstractmethod
    def build(self, spec: ShardSpec) -> None:
        """Construct the shard from its spec. Called exactly once."""

    @abstractmethod
    def topk_batch(self, requests: ShardReads) -> list[ShardReply]:
        """Answer a batch of local reads in one round trip."""

    @classmethod
    def fan_out(cls, calls: Sequence[tuple[int, Self, ShardReads]]) -> list[list[ShardReply]]:
        """One :meth:`topk_batch` per ``(shard, backend, requests)``
        call, each under a ``shard.call`` span, replies in call order.
        This default runs the shards one after another."""
        replies: list[list[ShardReply]] = []
        for shard, backend, requests in calls:
            with obs.span("shard.call", shard=shard, method="topk_batch"):
                replies.append(backend.topk_batch(requests))
        return replies

    @abstractmethod
    def insert(self, point: npt.NDArray[np.float64]) -> ShardUpdate:
        """Apply a routed insert (point already validated and stored
        globally; the shard assigns the next local rid)."""

    @abstractmethod
    def delete(self, rid: int) -> ShardUpdate:
        """Apply a routed delete of a live local rid."""

    @abstractmethod
    def stats(self) -> dict[str, Any]:
        """Counter snapshot (see :func:`engine_shard_stats`)."""

    def drain_spans(self) -> dict[str, Any]:
        """Drain the shard's buffered trace spans (see
        :mod:`repro.obs`): a ``{"spans": [span dicts], "started",
        "finished", "dropped"}`` payload. The default covers every
        backend executing in the router's process — such spans already
        land in the router's own collector, so there is nothing separate
        to drain. Only backends that execute elsewhere (worker process,
        remote host) override this with a real round trip."""
        return {"spans": [], "started": 0, "finished": 0, "dropped": 0}

    @abstractmethod
    def close(self) -> None:
        """Release execution resources; safe to call more than once."""


# -- shared engine-side helpers ------------------------------------------------
#
# Both the in-process backend and the process worker wrap a real GIREngine;
# these helpers are the single place where an engine is built from a spec
# and its responses are flattened into the wire-shaped reply types, so the
# two execution homes cannot drift.


def build_shard_engine(spec: ShardSpec) -> GIREngine:
    """Construct the shard's engine exactly as the pre-backend cluster did:
    own page store (real-latency mode if configured), own bulk-loaded
    R*-tree, own cache."""
    data = Dataset(np.asarray(spec.points, dtype=np.float64), name=spec.name)
    store = PageStore(sleep_ms_per_page=spec.page_sleep_ms)
    return GIREngine(
        data,
        bulk_load_str(data, store=store),
        method=spec.method,
        scorer=spec.scorer,
        cache_capacity=spec.cache_capacity,
        invalidation=spec.invalidation,
    )


def reply_from_response(engine: GIREngine, resp: EngineResponse) -> ShardReply:
    """Flatten an engine response into the serializable merge contract."""
    local_ids = list(resp.ids)
    pts = engine.points[local_ids]
    return ShardReply(
        ids=tuple(int(i) for i in local_ids),
        scores=resp.scores,
        tie_sums=tuple(float(x) for x in pts.sum(axis=1)),
        points_g=np.array(
            engine.points_g[local_ids], dtype=np.float64, copy=True
        ),
        region=resp.region,
        source=resp.source,
        pages_read=resp.pages_read,
        cache_entries=len(engine.cache),
    )


def serve_shard_reads(
    engine: GIREngine,
    requests: Sequence[tuple[npt.NDArray[np.float64], int]],
) -> list[ShardReply]:
    """Answer a batch of ``(weights, k)`` local reads on a shard engine:
    one ``topk_batch`` call, each response flattened for the merge."""
    responses = engine.topk_batch(
        [Request(weights=w, k=k) for w, k in requests]
    )
    return [reply_from_response(engine, resp) for resp in responses]


def update_from_response(sub: UpdateResponse) -> ShardUpdate:
    return ShardUpdate(
        rid=sub.rid,
        evicted=sub.evicted,
        screened=sub.prescreen_screened,
        lps=sub.prescreen_lps,
        cache_entries=sub.cache_entries,
    )


def engine_shard_stats(engine: GIREngine) -> dict[str, Any]:
    """The per-shard stat block: live records, I/O, cache counters.

    ``page_reads`` is the shard store's lifetime meter; summed over shards
    it equals the cluster's total metered I/O (every metered read happens
    inside some shard's serving path).
    """
    cache = engine.cache
    return {
        "live_records": engine.n_live,
        "page_reads": engine.tree.store.stats.page_reads,
        "cache_entries": len(cache),
        "cache_full_hits": cache.full_hits,
        "cache_misses": cache.misses,
        "regions_deferred": engine.regions_deferred,
        "updates_applied": engine.updates_applied,
        "update_evictions": engine.update_evictions,
    }
