"""Service-side accounting of the front door.

The tier's counters follow one identity, checked (not assumed) by
:meth:`ServeStats.accounting_ok` after a drain::

    arrivals == admitted + rejected + shed            (admission)
    admitted == reads_served + writes_applied + errors (completion)
    reads_served == engine_requests + coalesced_served (provenance)

and the headline service metric is the **coalesce fan-in ratio** —
reads served per engine request; above 1.0 the tier is answering
traffic the engine never saw. Time is not kept here: the front door's
``serve.queue_wait`` / ``serve.batch_linger`` / ``serve.hit_batch`` /
``serve.engine_batch`` / ``serve.engine_write`` spans (:mod:`repro.obs`)
are its record of where an operation's latency went.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeStats"]


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
