"""Perf ledger — the repo's benchmark entry point.

One run, one workload (what the driver of ``BENCHMARK.json`` calls)::

    python3 benchmarks/ledger/run.py --workload hot_zipf --seed 7 \\
        --seconds 16 --trace 0

serves the workload's stream ``REPS`` times against a freshly built
system, checks the answers, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric (``--trace 0``) or the per-layer metrics of a traced round
(``--trace 1``).

The whole ledger (no ``--workload``)::

    python3 benchmarks/ledger/run.py --seed 7 --traced --out A.json

runs that command as a child process for every workload, round-robin
for ``--rounds`` rounds, then one traced run per workload, prints every
metric by name with its unit and writes one JSON that ``compare.py``
can diff against another.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: unpinned BLAS threads fight the engine
# bridge and the shard workers for this host's two cores (sizing:
# flash_rw CPU 57 s vs 27 s, sharded_rw 45 vs 92 ops/s) — scheduler
# noise, not program behaviour.
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402

#: Repetitions of the stream inside one run (see ``driver.combine_rounds``).
REPS = 2
DETAIL_PREFIX = "ledger-detail: "


# -- one run of one workload ---------------------------------------------------


def fingerprint() -> dict:
    import numpy
    import scipy
    from repro.core import kernels

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels": kernels.backend_info(),
        "blas_pins": BLAS_PINS,
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool, scale_name: str) -> dict:
    """Serve one workload; returns the result object plus a ``detail``
    block (per-round values, counters, host fingerprint)."""
    try:
        import driver
        import layers
        import workloads
        from repro import obs
    except ImportError as exc:
        sys.exit(f"ledger: cannot import the program under test from {ROOT / 'src'}: {exc}")

    scale = workloads.SCALES[scale_name]
    count = max(int(scale.ops_per_second[workload] * seconds / REPS), 20)
    points = workloads.base_points(scale)
    ops = workloads.make_ops(workload, seed, count, points)

    if not traced:
        rounds = [driver.run_round(workload, scale, ops, points) for _ in range(REPS)]
        reported = spec.END_TO_END
        # One more set-up than the stream needs, so setup_s is a median of three.
        setups = [r["metrics"]["setup_s"] for r in rounds]
        setups.append(driver.time_setup(workload, scale))
        segment_ops = max(
            workloads.CLIENTS,
            int(scale.ops_per_second[workload] * driver.SEGMENT_SECONDS),
        )
        metrics = driver.combine_rounds(rounds, setups, segment_ops)
        extra = {"setups_s": setups}
    else:
        # Same stream twice: untraced for the reference wall clock and
        # the counts, then with tracing armed and the shims in place.
        plain = driver.run_round(workload, scale, ops, points)
        layers.install_shims()
        obs.enable(capacity=50_000 + 40 * len(ops))
        hot = driver.run_round(workload, scale, ops, points)
        obs.disable()
        rounds = [plain, hot]
        reported = spec.PER_LAYER
        table = layers.SpanTable(hot.pop("spans"))
        metrics = layers.derive(table, hot, os.getpid())
        coll, workers = hot["trace"]["collector"], hot["trace"]["workers"]
        balanced = coll["balanced"] and workers["started"] == workers["finished"]
        if not balanced:
            hot["failed"] += 1
        metrics.update(
            {
                "serve.read_p95_ms": plain["read_p95_ms"],
                "serve.read_p99_ms": plain["read_p99_ms"],
                "serve.write_p50_ms": plain["write_p50_ms"],
                "serve.engine_passes_per_read": plain["engine_passes_per_read"],
                "engine.pages_per_read": plain["pages_per_read"],
                "obs.trace_overhead_share": (
                    hot["timed_wall_s"] - plain["timed_wall_s"]
                )
                / plain["timed_wall_s"],
                "obs.dropped_spans": float(coll["dropped"] + workers["dropped"]),
                "host.calib_ms": statistics.median(r["calib_ms"] for r in rounds),
            }
        )
        extra = {"spans_balanced": balanced, "span_table": table.summary()}

    for r in rounds:
        del r["per_op"]
    failed = sum(r["failed"] for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {
            m.name: {"value": float(metrics[m.name]), "unit": m.unit}
            for m in reported
        },
        "detail": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "scale": scale_name,
            "ops_per_round": count,
            "host": fingerprint(),
            "calib_ms": statistics.median(r["calib_ms"] for r in rounds),
            "rounds": rounds,
            **extra,
        },
    }


# -- the whole ledger ----------------------------------------------------------


def _child(workload: str, args: argparse.Namespace, trace: int) -> dict:
    """One ``--workload`` run in a fresh process (clean peak-RSS, no
    leaked shims), parsed back from its stdout."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", args.scale,
    ]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"ledger: {' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(l for l in lines if l.startswith(DETAIL_PREFIX))
    result["detail"] = json.loads(detail[len(DETAIL_PREFIX):])
    return result


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )  # fmt: skip
    except OSError:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_ledger(args: argparse.Namespace) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in spec.WORKLOADS}
    for rnd in range(args.rounds):
        # Round-robin, so a slow period on the host hits every workload.
        for workload in spec.WORKLOADS:
            print(f"[round {rnd + 1}/{args.rounds}] {workload} ...", flush=True)
            runs[workload].append(_child(workload, args, trace=0))
    traced = {}
    if args.traced:
        for workload in spec.WORKLOADS:
            print(f"[traced] {workload} ...", flush=True)
            traced[workload] = _child(workload, args, trace=1)

    ledger: dict = {
        "schema": "ledger/1",
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "rounds": args.rounds,
        "git_commit": _git_commit(),
        "host": runs[next(iter(runs))][0]["detail"]["host"],
        "workloads": {},
    }
    for workload, why in spec.WORKLOADS.items():
        results = runs[workload]
        block: dict = {
            "why": why,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "calib_ms": [r["detail"]["calib_ms"] for r in results],
            "oracle_compared": sum(
                rd["oracle"]["compared"]
                for r in results
                for rd in r["detail"]["rounds"]
            ),
            "end_to_end": {},
        }
        for m in spec.END_TO_END:
            values = [r["metrics"][m.name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            block["end_to_end"][m.name] = {
                "unit": m.unit, "better": m.better, "bound": m.bound,
                "median": med, "q1": q1, "q3": q3, "values": values,
            }  # fmt: skip
        if workload in traced:
            t = traced[workload]
            block["failed"] += t["failed"]
            block["layers"] = t["metrics"]
            block["span_table"] = t["detail"]["span_table"]
            block["spans_balanced"] = t["detail"]["spans_balanced"]
        ledger["workloads"][workload] = block
    return ledger


def print_ledger(ledger: dict) -> None:
    names = list(ledger["workloads"])
    print(f"\nend to end (median [q1 .. q3] over {ledger['rounds']} runs)")
    for m in spec.END_TO_END:
        print(f"  {m.name} [{m.unit}, {m.better} is better, bound {m.bound:.0%}]")
        for w in names:
            e = ledger["workloads"][w]["end_to_end"][m.name]
            print(f"    {w:<14}{e['median']:>12.4f}  [{e['q1']:.4f} .. {e['q3']:.4f}]")
    print("  failed / attempted (oracle-compared reads)")
    for w in names:
        b = ledger["workloads"][w]
        print(f"    {w:<14}{b['failed']} / {b['attempted']} ({b['oracle_compared']})")
    if all("layers" in ledger["workloads"][w] for w in names):
        print("\nper layer (one traced run each)")
        print(f"  {'':<40}" + "".join(f"{w:>14}" for w in names))
        for m in spec.PER_LAYER:
            cells = "".join(
                f"{ledger['workloads'][w]['layers'][m.name]['value']:>14.4f}"
                for w in names
            )
            print(f"  {m.name + ' [' + m.unit + ']':<40}{cells}")


# -- CLI -----------------------------------------------------------------------


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=16, help="measured seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("standard", "smoke"), default="standard")
    ap.add_argument("--rounds", type=int, default=3, help="ledger: runs per workload")
    ap.add_argument("--traced", action="store_true", help="ledger: add the per-layer pass")
    ap.add_argument("--out", type=Path, default=HERE / "out" / "ledger.json")
    args = ap.parse_args()
    if args.seconds < 1 or args.rounds < 1:
        ap.error("--seconds and --rounds must be positive")

    if args.workload is None:
        ledger = run_ledger(args)
        print_ledger(ledger)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"\nwrote {args.out}")
        sys.exit(1 if any(b["failed"] for b in ledger["workloads"].values()) else 0)

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    detail = result.pop("detail")
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
