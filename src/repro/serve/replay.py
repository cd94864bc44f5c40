"""Serialization log and sequential-replay equivalence check. repro: bit-exact

The front door's correctness claim is *byte*-identity, not closeness:
any interleaving of coalesced / batched / direct serving must return
exactly the ``(rids, scores)`` a sequential per-request run returns.
This module carries both halves of that claim:

* the **log** — one entry per committed operation, in the tier's
  serialization order (leaders and their coalesced followers at batch
  resolution, each write after every read admitted before it), each
  read entry recording the exact answer the tier handed
  out;
* the **replay check** — re-serve the log's reads one at a time through
  ``engine.topk`` on a *fresh* identical engine, applying the writes at
  their logged positions, and compare answers with ``==``.

Scores are compared under the tier's **canonical boundary scoring**:
``scorer.score(rows_of(ids), weights)`` over a snapshot of the answer's
rows — one product over the ranked rows. An engine's raw per-shard
scores can be *path-dependent* in the last ulp (BLAS may round a row's
score differently in products of different shapes: a shard's partial
answer, a merged one, a single row), so a tier that changed hit/miss
trajectories could not safely be byte-compared against them; the
canonical form is a pure function of ``(ids, weights, live rows)`` and
therefore trajectory-independent, while the ids themselves are
trajectory-independent by the GIR invariant. Serving canonical scores is
the engines' response contract — ``EngineResponse.scores`` is
``canonical_scores(engine.scorer, engine.result_rows(ids), weights)``
bit for bit, on a hit, a miss and a merged cluster answer alike — so
the front door passes them through and the replay recomputes them from
its own engine's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.workload import frozen_array

__all__ = [
    "ReadLog",
    "InsertLog",
    "DeleteLog",
    "canonical_scores",
    "replay_serial_check",
]


def canonical_scores(scorer, rows: np.ndarray, weights: np.ndarray) -> tuple:
    """Boundary-canonical scores of an answer: one matvec of the answer's
    row snapshot against the request's weights (the full-hit rescoring
    computation, bit-for-bit)."""
    return tuple(scorer.score(rows, weights).tolist())


@dataclass(frozen=True, slots=True)
class ReadLog:
    """One committed read: the request and the exact answer served.

    ``scores`` is kept as one read-only float64 array (the log holds
    every read of a run, so k boxed floats per entry would dominate its
    size); compare it through ``tuple(entry.scores)``.
    """

    weights: np.ndarray
    k: int
    ids: tuple
    scores: np.ndarray
    #: ``"engine"`` or ``"coalesced"`` — provenance, not part of the
    #: equivalence contract.
    via: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", frozen_array(self.weights, "weights")
        )
        object.__setattr__(self, "scores", frozen_array(self.scores, "scores"))


@dataclass(frozen=True)
class InsertLog:
    """One committed insert (the engine assigned ``rid``)."""

    point: np.ndarray
    rid: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", frozen_array(self.point, "point"))


@dataclass(frozen=True)
class DeleteLog:
    """One committed delete."""

    rid: int


def replay_serial_check(log: list, engine) -> dict:
    """Replay a front-door log sequentially and compare answers exactly.

    ``engine`` must be a *fresh* engine over the same initial data and
    configuration the front door's engine started from (its cache state
    evolves under the replay's own trajectory — which is the point: the
    answers must match anyway). Returns a JSON-ready verdict with the
    first few mismatches spelled out.
    """
    compared = mismatches = 0
    replayed_writes = 0
    examples: list[dict] = []
    for entry in log:
        if isinstance(entry, ReadLog):
            resp = engine.topk(np.asarray(entry.weights), entry.k)
            rows = engine.result_rows(resp.ids)
            scores = canonical_scores(
                engine.scorer, rows, np.asarray(entry.weights)
            )
            compared += 1
            ids_match = tuple(resp.ids) == tuple(entry.ids)
            scores_match = scores == tuple(entry.scores)
            if not (ids_match and scores_match):
                mismatches += 1
                if len(examples) < 5:
                    examples.append(
                        {
                            "k": entry.k,
                            "via": entry.via,
                            "ids_match": ids_match,
                            "scores_match": scores_match,
                            "served_ids": list(entry.ids),
                            "replay_ids": list(resp.ids),
                        }
                    )
        elif isinstance(entry, InsertLog):
            resp = engine.insert(np.asarray(entry.point))
            replayed_writes += 1
            if resp.rid != entry.rid:
                raise RuntimeError(
                    f"replay rid drift: engine assigned {resp.rid}, "
                    f"log recorded {entry.rid} — the append-only rid "
                    f"contract is broken"
                )
        elif isinstance(entry, DeleteLog):
            engine.delete(entry.rid)
            replayed_writes += 1
        else:
            raise TypeError(f"unknown log entry {entry!r}")
    return {
        "requests": compared,
        "writes": replayed_writes,
        "mismatches": mismatches,
        "all_match": mismatches == 0,
        "examples": examples,
    }
