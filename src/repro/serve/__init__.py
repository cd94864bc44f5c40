"""``repro.serve`` — the asyncio front door over the serving engines.

The paper's Section 1 workload is *concurrent*: many near-duplicate
requests arrive faster than one engine drains them. The engines' GIR
caches make each of those requests cheap — every request whose weight
vector lands in a served answer's stability region is provably the
*same* ordered answer — but the engines themselves are synchronous and
thread-owned. This package puts an asyncio tier in front of
:class:`~repro.engine.GIREngine` /
:class:`~repro.cluster.ShardedGIREngine`:

* **admission** (:meth:`ServeFront.topk`) — boundary validation via the
  engine's own :func:`~repro.engine.validate_weights` /
  :func:`~repro.engine.validate_point`, a bounded ingress queue, and
  explicit structured :class:`Rejected` / :class:`Overloaded` errors
  instead of unbounded buffering;
* **micro-batching** (:class:`ServeConfig.batch_window_ms` /
  ``batch_max``) — the reads already queued are taken at once (the
  batcher lingers up to the window only on an empty queue) and served
  through one ``topk_batch`` call — its leading full cache hits through
  one ``serve_hits`` call instead (byte-identical to per-request serving
  by the engine's own contract, canonical scores included); the
  dispatcher awaits each batch before it takes the next operation;
* **single flight** — a read whose ``(weights, k)`` exactly duplicates
  an earlier read of its batch awaits that read's computation instead
  of re-entering the engine, and takes the leader's answer (or error)
  as is;
* **a write fence** — by construction: the dispatcher reaches an
  insert/delete only after every read admitted before it has resolved,
  so no read is served from a pre-write snapshot but serialized after
  the write;
* **a serialization log** (:mod:`repro.serve.replay`) — every served
  operation in commit order, replayable against a fresh engine to prove
  the tier byte-identical to sequential per-request serving.

:class:`ServeStats` holds the tier's counters; its time is its spans'
(``serve.queue_wait``, ``serve.batch_linger``, ``serve.hit_batch`` for
the hit prefix served on the loop, ``serve.engine_batch`` for the
bridge's call, ``serve.engine_write``), and a read's
:class:`ServeResponse` or a write's :class:`~repro.engine.UpdateResponse`
carries no timing.

Engine calls are routed through a one-thread executor bridge, except
that bounded ``serve_hits`` call, which the dispatcher makes on the
loop; the bridge is idle whenever the dispatcher runs, so one thread at
a time is in the engine. The event loop never blocks: the ownership spy
of ``tests/test_serve.py`` checks that each engine call runs on its
thread and that no two threads are ever inside the engine at once,
and ``tests/test_source_invariants.py`` that no coroutine sleeps or takes
a thread lock.
"""

from repro.serve.config import ServeConfig
from repro.serve.errors import Overloaded, Rejected, ServeError
from repro.serve.front import ServeFront, ServeResponse
from repro.serve.replay import canonical_scores, replay_serial_check
from repro.serve.stats import ServeStats

__all__ = [
    "ServeConfig",
    "ServeError",
    "Rejected",
    "Overloaded",
    "ServeFront",
    "ServeResponse",
    "ServeStats",
    "replay_serial_check",
    "canonical_scores",
]
