"""One measured round: build the system, drive it closed-loop through
the front door, tear it down, check the answers.

A round is ``setup → warm-up → timed stream → close → oracle``. The load
is a closed loop of ``CLIENTS`` coroutines on the front door's own
event-loop thread; each sends its next operation only after the previous
one returned. Latencies are client-side, call to return.

A run repeats the round on the *same* stream and ``combine_rounds``
reads the repetitions as repeated measurements of identical work. This
host slows down in plateaus (×1.2–1.5 for 2–6 s, about a fifth of the
time — a neighbour, not the program; CPU time inflates with the wall
clock), so a whole round moves by up to 30 % from one repetition to the
next. The stream is therefore cut into segments of about a second, each
segment is credited with its fastest (and its cheapest) repetition, and
each operation with its lowest latency over the repetitions: the noise
is one-sided, so the minimum is the estimate of the undisturbed cost.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.engine import DeleteOp, InsertOp, Request

import oracle
import workloads

__all__ = ["calib_ms", "time_setup", "run_round", "combine_rounds"]

#: Target length of one timing segment (see ``combine_rounds``).
SEGMENT_SECONDS = 1.0
#: How often the CPU clock of the process tree is read during the stream.
CPU_SAMPLE_SECONDS = 0.05
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def calib_ms() -> float:
    """A fixed numpy + Python loop, timed: the host's speed right now.
    Two ledgers whose calibrations differ cannot be compared."""
    a = np.random.default_rng(0).random((200, 200))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        acc += float((a @ a).sum())
    for i in range(600_000):
        acc += i * 0.5
    return (time.perf_counter() - t0) * 1e3


def _worker_pids() -> list[int]:
    """The live shard workers (children of this process)."""
    return [p.pid for p in multiprocessing.active_children()]


def _cpu_seconds() -> float:
    """User + system CPU consumed so far by this process (all threads)
    and its live shard workers."""
    total = time.process_time()
    for pid in _worker_pids():
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th of the whole line.
        fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND
    return total


def _peak_rss_mb() -> float:
    """High-water resident set of this process plus its live shard
    workers, from ``/proc/<pid>/status``."""
    total_kb = 0
    for pid in [os.getpid(), *_worker_pids()]:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


async def _closed_loop(front, ops: list, record: list) -> None:
    """Serve ``ops`` from ``CLIENTS`` coroutines. ``record[i]`` becomes
    ``(kind, latency_ms, done, pages_read, error)`` for ``ops[i]``:
    ``done`` is its completion time on ``perf_counter``'s clock, ``error``
    is ``""`` for a served operation."""
    stream = iter(enumerate(ops))
    record[:] = [None] * len(ops)

    async def client() -> None:
        for i, op in stream:
            t0 = time.perf_counter()
            pages = 0
            error = ""
            try:
                if isinstance(op, Request):
                    kind = "read"
                    pages = (await front.topk(op.weights, op.k)).pages_read
                elif isinstance(op, InsertOp):
                    kind = "write"
                    await front.insert(op.point)
                elif isinstance(op, DeleteOp):
                    kind = "write"
                    await front.delete(op.rid)
                else:
                    raise TypeError(f"unknown operation {op!r}")
            except Exception as exc:  # noqa: BLE001 - counted and reported
                # Shed, rejected, or an engine error surfaced through the
                # operation's future: a failed operation, not a crashed
                # benchmark.
                error = repr(exc)
            done = time.perf_counter()
            record[i] = (kind, (done - t0) * 1e3, done, pages, error)

    await asyncio.gather(*(client() for _ in range(workloads.CLIENTS)))


async def _sample_cpu(samples: list) -> None:
    while True:
        await asyncio.sleep(CPU_SAMPLE_SECONDS)
        samples.append((time.perf_counter(), _cpu_seconds()))


async def _serve(front, warm: list, timed: list) -> tuple[list, list, float, dict]:
    """Warm-up stream, then the timed stream. Returns the per-operation
    record and the ``(clock, cpu)`` samples of the timed stream, the
    warm-up's wall time, and the front door's counters as they stood when
    the clock started."""
    record: list = []
    async with front:
        t0 = time.perf_counter()
        await _closed_loop(front, warm, [])
        warm_wall = time.perf_counter() - t0
        warm_stats = front.stats.to_dict()
        cpu = [(time.perf_counter(), _cpu_seconds())]
        sampler = asyncio.create_task(_sample_cpu(cpu))
        try:
            await _closed_loop(front, timed, record)
        finally:
            sampler.cancel()
        cpu.append((time.perf_counter(), _cpu_seconds()))
    return record, cpu, warm_wall, warm_stats


def _pct(values, p: float) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


def time_setup(workload: str, scale: workloads.Scale) -> float:
    """One more sample of ``setup_s``: build the system and drop it."""
    t0 = time.perf_counter()
    front = workloads.build_front(workload, scale)
    setup_s = time.perf_counter() - t0
    if hasattr(front.engine, "close"):
        front.engine.close()
    return setup_s


def run_round(
    workload: str, scale: workloads.Scale, ops: list, points: np.ndarray
) -> dict:
    """Run one round; with tracing armed the drained spans ride along
    under ``"spans"``."""
    gc.collect()
    calib = calib_ms()
    n_warm = int(len(ops) * workloads.WARMUP_SHARE)
    warm, timed = ops[:n_warm], ops[n_warm:]

    t0 = time.perf_counter()
    front = workloads.build_front(workload, scale)
    setup_s = time.perf_counter() - t0
    engine = front.engine
    try:
        record, cpu, warm_wall, warm_stats = asyncio.run(_serve(front, warm, timed))
        peak_rss_mb = _peak_rss_mb()
        cluster_stats = (
            engine.cluster_stats() if hasattr(engine, "cluster_stats") else {}
        )
        trace = None
        if obs.tracing_enabled():
            workers = (
                engine.drain_worker_spans()
                if hasattr(engine, "drain_worker_spans")
                else {"started": 0, "finished": 0, "dropped": 0}
            )
            trace = {"collector": obs.collector().stats(), "workers": workers}
    finally:
        if hasattr(engine, "close"):
            engine.close()

    verdict = oracle.check_log(front.log, points)
    stats = front.stats
    errors = [r[4] for r in record if r[4]]
    failed = len(errors) + verdict.mismatches
    failed += 0 if stats.accounting_ok() else 1

    # Per-operation columns, on a clock that starts with the timed stream.
    cpu_t, cpu_s = (np.array(column) for column in zip(*cpu))
    is_read = np.array([r[0] == "read" for r in record])
    served = np.array([not r[4] for r in record])
    latency_ms = np.array([r[1] for r in record])
    done = np.array([r[2] for r in record])
    timed_wall = float(cpu_t[-1] - cpu_t[0])
    read_ms = latency_ms[is_read & served]
    timed_reads = stats.reads_served - warm_stats["reads_served"]
    timed_passes = stats.engine_requests - warm_stats["engine_requests"]
    out = {
        "calib_ms": calib,
        "ops": len(ops),
        "attempted": len(timed),
        "failed": int(failed),
        "errors": errors[:5],
        # Whole round (warm-up included) — what the spans cover.
        "reads": stats.reads_served,
        "writes": stats.writes_applied,
        "serve_wall_s": warm_wall + timed_wall,
        "timed_wall_s": timed_wall,
        "oracle": {
            "compared": verdict.compared,
            "mismatches": verdict.mismatches,
            "writes_crossed": verdict.writes,
        },
        "serve_stats": stats.to_dict(),
        "cluster_stats": cluster_stats,
        # This round on its own; a run reports ``combine_rounds``.
        "metrics": {
            "qps": len(timed) / timed_wall,
            "read_p50_ms": _pct(read_ms, 50),
            "cpu_ms_per_op": float(cpu_s[-1] - cpu_s[0]) * 1e3 / len(timed),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        },
        "read_p95_ms": _pct(read_ms, 95),
        "read_p99_ms": _pct(read_ms, 99),
        "write_p50_ms": _pct(latency_ms[~is_read & served], 50),
        "pages_per_read": sum(r[3] for r in record) / max(int(is_read.sum()), 1),
        "engine_passes_per_read": timed_passes / max(timed_reads, 1),
    }
    if trace is not None:
        out["trace"] = trace
        out["spans"] = obs.drain()
    # Columns for combine_rounds (stripped before printing).
    out["per_op"] = {
        "is_read": is_read,
        "latency_ms": latency_ms,
        "done_s": done - cpu_t[0],
        "cpu_done_s": np.interp(done, cpu_t, cpu_s) - cpu_s[0],
    }
    return out


def combine_rounds(
    rounds: list[dict], setups: list[float], segment_ops: int
) -> dict[str, float]:
    """End-to-end metrics of a run from its repetitions of one stream.

    * ``qps`` — timed operations ÷ the sum, over segments of
      ``segment_ops`` consecutive operations, of the fastest repetition
      of that segment (a segment ends when its last operation returns);
    * ``cpu_ms_per_op`` — the same sum over each segment's cheapest
      repetition, in CPU time of the process tree, ÷ timed operations;
    * ``read_p50_ms`` — the median over the reads of each read's lowest
      latency across the repetitions;
    * ``peak_rss_mb`` — the highest round; ``setup_s`` — median of
      ``setups``.
    """
    n = len(rounds[0]["per_op"]["done_s"])
    ends = list(range(segment_ops, n - segment_ops // 2, segment_ops)) + [n]
    last = [e - 1 for e in ends]

    def undisturbed(column: str) -> float:
        """Σ over segments of the lowest cost any repetition paid."""
        at = np.stack([r["per_op"][column] for r in rounds])
        reached = np.maximum.accumulate(at, axis=1)[:, last]
        return float(np.diff(reached, axis=1, prepend=0.0).min(axis=0).sum())

    latency = np.min(np.stack([r["per_op"]["latency_ms"] for r in rounds]), axis=0)
    read_ms = latency[rounds[0]["per_op"]["is_read"]]
    return {
        "qps": n / undisturbed("done_s"),
        "read_p50_ms": float(np.percentile(read_ms, 50)),
        "cpu_ms_per_op": undisturbed("cpu_done_s") * 1e3 / n,
        "peak_rss_mb": max(r["metrics"]["peak_rss_mb"] for r in rounds),
        "setup_s": float(np.median(setups)),
    }
