"""Service-side accounting of the front door.

The tier's counters follow one identity, checked (not assumed) by
:meth:`ServeStats.accounting_ok` after a drain::

    arrivals == admitted + rejected + shed            (admission)
    admitted == reads_served + writes_applied + errors (completion)
    reads_served == engine_requests + coalesced_served (provenance)

and the headline service metric is the **coalesce fan-in ratio** —
reads served per engine request; above 1.0 the tier is answering
traffic the engine never saw. Time is not kept here: the front door's
``serve.queue_wait`` / ``serve.batch_linger`` / ``serve.engine_batch`` /
``serve.engine_write`` spans (:mod:`repro.obs`) are its record of where
an operation's latency went.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeStats", "ServeReport"]


@dataclass
class ServeStats:
    """Counters of one :class:`~repro.serve.front.ServeFront` lifetime."""

    #: Every call that reached admission (served, rejected or shed).
    arrivals: int = 0
    #: Requests that passed validation and entered the ingress queue.
    admitted: int = 0
    #: Requests failing boundary validation (or arriving after close).
    rejected: int = 0
    #: Valid requests shed because the ingress queue was at capacity.
    shed: int = 0
    #: Reads answered (engine-served and coalesced alike).
    reads_served: int = 0
    #: Inserts/deletes applied through the write fence.
    writes_applied: int = 0
    #: Admitted operations that failed inside the engine.
    errors: int = 0
    #: Dispatched micro-batches: one each, whether the batch was served
    #: by a ``serve_hits`` call on the loop, a ``topk_batch`` call on the
    #: bridge, or its hit prefix by the one and the rest by the other.
    engine_batch_calls: int = 0
    #: Reads answered by a request inside those calls (the coalescing
    #: denominator); charged when the answer resolves, so a request the
    #: engine failed lands in ``errors`` and nowhere else.
    engine_requests: int = 0
    #: Reads that attached to an exact duplicate earlier in their batch.
    coalesce_attached: int = 0
    #: Attached reads answered with their leader's answer.
    coalesced_served: int = 0
    #: Writes dispatched. Each is a fence by construction: the
    #: dispatcher reaches it only after every earlier read has resolved.
    fences: int = 0
    #: Deepest ingress queue observed at an admission.
    queue_depth_peak: int = 0

    @property
    def fan_in_ratio(self) -> float:
        """Reads served per engine request; > 1 means coalescing won."""
        return self.reads_served / max(self.engine_requests, 1)

    def accounting_ok(self) -> bool:
        """The admission/completion/provenance identities, post-drain."""
        return (
            self.arrivals == self.admitted + self.rejected + self.shed
            and self.admitted
            == self.reads_served + self.writes_applied + self.errors
            and self.reads_served
            == self.engine_requests + self.coalesced_served
        )

    def to_dict(self) -> dict:
        """JSON-ready counters."""
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "reads_served": self.reads_served,
            "writes_applied": self.writes_applied,
            "errors": self.errors,
            "engine_batch_calls": self.engine_batch_calls,
            "engine_requests": self.engine_requests,
            "coalesce_attached": self.coalesce_attached,
            "coalesced_served": self.coalesced_served,
            # An attached read never falls back; the key stays for the
            # perf ledger (benchmarks/ledger/layers.py), which reads it.
            "coalesce_fallbacks": 0,
            "fan_in_ratio": self.fan_in_ratio,
            "fences": self.fences,
            "queue_depth_peak": self.queue_depth_peak,
            "accounting_ok": self.accounting_ok(),
        }

    def summary(self) -> str:
        lines = [
            f"admission         : {self.arrivals} arrivals = "
            f"{self.admitted} admitted + {self.rejected} rejected + "
            f"{self.shed} shed",
            f"reads             : {self.reads_served} served via "
            f"{self.engine_requests} engine requests "
            f"({self.engine_batch_calls} batches) — fan-in "
            f"{self.fan_in_ratio:.2f}x",
            f"coalescing        : {self.coalesce_attached} attached, "
            f"{self.coalesced_served} served",
            f"writes            : {self.writes_applied} applied through "
            f"{self.fences} fences ({self.errors} errors)",
            f"pressure          : queue depth peak {self.queue_depth_peak}",
        ]
        return "\n".join(lines)


@dataclass
class ServeReport:
    """Aggregate outcome of one workload run through the front door
    (the serve-tier sibling of :class:`~repro.engine.WorkloadReport`)."""

    #: Per-operation outcomes in workload order: a ``ServeResponse`` /
    #: ``UpdateResponse``, or the structured ``ServeError`` for shed /
    #: rejected arrivals.
    outcomes: list
    stats: ServeStats
    wall_ms: float
    workload_kind: str = "custom"

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def throughput_rps(self) -> float:
        served = self.stats.reads_served + self.stats.writes_applied
        return 1000.0 * served / self.wall_ms if self.wall_ms > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "workload_kind": self.workload_kind,
            "operations": self.total,
            "wall_ms": self.wall_ms,
            "throughput_rps": self.throughput_rps,
            **self.stats.to_dict(),
        }

    def summary(self) -> str:
        head = (
            f"workload          : {self.total} operations "
            f"({self.workload_kind}), {self.wall_ms:.0f} ms wall, "
            f"{self.throughput_rps:.0f} ops/s"
        )
        return "\n".join([head, self.stats.summary()])
