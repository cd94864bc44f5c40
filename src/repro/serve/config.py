"""Tuning knobs of the serving front door, validated once at construction.

Every knob trades latency against engine work:

* ``max_pending`` bounds the ingress queue — beyond it the tier *sheds*
  (explicit :class:`~repro.serve.errors.Overloaded`) instead of letting
  queue wait grow without bound;
* ``batch_window_ms`` / ``batch_max`` shape the micro-batcher: how long
  the dispatcher lingers collecting compatible reads, and how many it
  stacks into one engine read call (a ``serve_hits`` on the loop for the
  batch's hit prefix, bounding that call, and a ``topk_batch`` on the
  bridge for the rest).

The dispatcher awaits each engine batch before it takes the next, so a
slow engine backs pressure up into the queue (and from there into
sheds) without a knob. Single flight has none either: an exact duplicate
of an earlier read of its batch always takes that read's answer, which
never costs an engine pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Front-door tuning; defaults favour throughput at modest latency."""

    #: Ingress-queue bound; arrivals beyond it are shed with ``Overloaded``.
    max_pending: int = 256
    #: How long the micro-batcher lingers for companions, in milliseconds.
    batch_window_ms: float = 2.0
    #: Max reads stacked into one engine read call.
    batch_max: int = 32

    def __post_init__(self) -> None:
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        # A NaN window compares false both ways, and an infinite one
        # lingers forever: a lone read would never be served.
        if not math.isfinite(self.batch_window_ms) or self.batch_window_ms < 0.0:
            raise ValueError("batch_window_ms must be finite and non-negative")
        if self.batch_max <= 0:
            raise ValueError("batch_max must be positive")
