"""Diff two ledgers written by ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) with both medians, quartiles,
the change in the metric's *worse* direction and its bound, and a
verdict:

* ``better`` / ``worse`` — B's median differs from A's by more than the
  bound;
* ``same`` — within the bound;
* ``unresolved`` — the two sides' ``host.calib_ms`` medians differ by
  more than 10 % (different host speed: no timing can be compared), or
  the run-to-run spread of either side exceeds the bound while the two
  sides' runs overlap (the noise is wider than the thing being gated).

The two exact-count layer metrics are compared by equality. Exit status
is non-zero on any ``worse`` and on any rise in failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

CALIB_TOLERANCE = 0.10


def verdict(metric: spec.Metric, a: dict, b: dict, calib_ok: bool) -> tuple[str, float]:
    """Verdict and signed worsening of B against A for one metric row."""
    change = spec.worsening(metric, a["median"], b["median"])
    if not calib_ok:
        return "unresolved", change
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else 0.0
        for side in (a, b)
    )
    if spread > metric.bound:
        sign = 1 if metric.better == "lower" else -1
        a_vals = [sign * v for v in a["values"]]
        b_vals = [sign * v for v in b["values"]]
        overlap = not (max(b_vals) < min(a_vals) or min(b_vals) > max(a_vals))
        if overlap:
            return "unresolved", change
    if change > metric.bound:
        return "worse", change
    if change < -metric.bound:
        return "better", change
    return "same", change


def _count_row(name: str, workload: str, unit: str, a, b, change: float, v: str) -> dict:
    """A row for a count that has one value per ledger, not a set of runs."""
    return {
        "metric": name, "workload": workload, "unit": unit,
        "a": a, "a_q": (a, a), "b": b, "b_q": (b, b),
        "change": change, "bound": 0.0, "verdict": v,
    }  # fmt: skip


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """All rows, and whether B regressed against A (any ``worse`` row)."""
    rows: list[dict] = []

    def calib(ledger: dict) -> float:
        return statistics.median(
            c for block in ledger["workloads"].values() for c in block["calib_ms"]
        )

    calib_a, calib_b = calib(a), calib(b)
    calib_ok = abs(calib_b - calib_a) / calib_a <= CALIB_TOLERANCE
    layers = {m.name: m for m in spec.PER_LAYER}
    for workload in spec.WORKLOADS:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in spec.END_TO_END:
            ea, eb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            v, change = verdict(metric, ea, eb, calib_ok)
            rows.append(
                {
                    "metric": metric.name, "workload": workload, "unit": metric.unit,
                    "a": ea["median"], "a_q": (ea["q1"], ea["q3"]),
                    "b": eb["median"], "b_q": (eb["q1"], eb["q3"]),
                    "change": change, "bound": metric.bound, "verdict": v,
                }  # fmt: skip
            )
        if "layers" in wa and "layers" in wb:
            for name in spec.EXACT_COUNTS:
                va, vb = wa["layers"][name]["value"], wb["layers"][name]["value"]
                change = spec.worsening(layers[name], va, vb)
                v = "same" if va == vb else ("worse" if change > 0 else "better")
                rows.append(_count_row(name, workload, layers[name].unit, va, vb, change, v))
        if wb["failed"] > wa["failed"]:
            rows.append(
                _count_row(
                    "failed", workload, "count", wa["failed"], wb["failed"], float("inf"), "worse"
                )
            )
    return rows, any(r["verdict"] == "worse" for r in rows)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("schema", "seed", "seconds", "scale"):
        if a[key] != b[key]:
            print(f"compare: ledgers differ in {key}: {a[key]!r} vs {b[key]!r}", file=sys.stderr)
            return 2
    rows, regressed = compare(a, b)
    print(
        f"{'metric':<38}{'workload':<14}{'A median [q1..q3]':>34}"
        f"{'B median [q1..q3]':>34}{'worse by':>10}{'bound':>7}  verdict"
    )
    for r in rows:
        side = lambda m, q: f"{m:.4g} [{q[0]:.4g}..{q[1]:.4g}]"  # noqa: E731
        print(
            f"{r['metric'] + ' [' + r['unit'] + ']':<38}{r['workload']:<14}"
            f"{side(r['a'], r['a_q']):>34}{side(r['b'], r['b_q']):>34}"
            f"{r['change']:>+10.1%}{r['bound']:>7.0%}  {r['verdict']}"
        )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in ("better", "same", "worse", "unresolved")}
    print("  ".join(f"{k}: {n}" for k, n in counts.items()))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
