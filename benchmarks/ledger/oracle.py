"""Independent correctness oracle over the front door's commit log.

Walks ``front.log`` in commit order keeping its own numpy mirror of the
record table (rows + live mask, updated from ``InsertLog`` /
``DeleteLog``) and re-answers a sample of the ``ReadLog`` entries by a
full scan of that mirror. Nothing of the program's serving stack is on
the oracle's side: the ranking rule — ``(score, coordinate sum, rid)``
descending over live rows — is restated here, with a partition step so a
check costs under a millisecond at n = 100k (``scan_topk``'s full
lexsort is ~22 ms there; the smoke test cross-checks the two).

Each sampled read whose ids differ is one failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.serve.replay import DeleteLog, InsertLog, ReadLog

__all__ = ["OracleVerdict", "scan_ids", "check_log"]

#: Check every ⌈reads / SAMPLE_TARGET⌉-th read (all of them when fewer).
SAMPLE_TARGET = 300


@dataclass(frozen=True)
class OracleVerdict:
    reads: int
    writes: int
    compared: int
    mismatches: int


def scan_ids(
    rows: np.ndarray, sums: np.ndarray, live: np.ndarray, weights: np.ndarray, k: int
) -> tuple[int, ...]:
    """Exact ordered top-k rids over the live rows, by full scan."""
    scores = np.where(live, rows @ weights, -np.inf)
    kth = np.partition(scores, -k)[-k]
    cand = np.flatnonzero(scores >= kth)
    order = np.lexsort((-cand, -sums[cand], -scores[cand]))[:k]
    return tuple(int(i) for i in cand[order])


def check_log(log: list, base_points: np.ndarray) -> OracleVerdict:
    """Replay the writes of ``log`` into a mirror of ``base_points`` and
    compare the sampled reads against a scan of the mirror as it stood
    when each read committed."""
    n, d = base_points.shape
    inserts = sum(isinstance(e, InsertLog) for e in log)
    reads = sum(isinstance(e, ReadLog) for e in log)
    rows = np.zeros((n + inserts, d))
    rows[:n] = base_points
    live = np.zeros(n + inserts, dtype=bool)
    live[:n] = True
    sums = rows.sum(axis=1)
    stride = max(1, ceil(reads / SAMPLE_TARGET))
    allocated = n
    seen = compared = mismatches = writes = 0
    for entry in log:
        if isinstance(entry, ReadLog):
            if seen % stride == 0:
                compared += 1
                truth = scan_ids(
                    rows, sums, live, np.asarray(entry.weights), entry.k
                )
                mismatches += truth != tuple(entry.ids)
            seen += 1
        elif isinstance(entry, InsertLog):
            if entry.rid != allocated:
                raise RuntimeError(
                    f"log assigns rid {entry.rid} to insert #{allocated - n}; "
                    f"the append-only rid contract says {allocated}"
                )
            rows[allocated] = entry.point
            sums[allocated] = rows[allocated].sum()
            live[allocated] = True
            allocated += 1
            writes += 1
        elif isinstance(entry, DeleteLog):
            live[entry.rid] = False
            writes += 1
        else:
            raise TypeError(f"unknown log entry {entry!r}")
    return OracleVerdict(
        reads=reads, writes=writes, compared=compared, mismatches=mismatches
    )
