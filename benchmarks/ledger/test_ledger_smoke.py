"""Tier-1 smoke test of the perf ledger (``--scale smoke``: n = 2 000,
tens of operations). Checks the plumbing — every named metric present,
finite and carrying its unit, zero failed operations, balanced spans,
the comparer's verdicts — not the numbers, which mean nothing at this
size."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _load(name: str):
    """Import a ledger module by path (the directory is not a package,
    and ``run`` / ``spec`` are too generic to put on ``sys.path``)."""
    module_spec = importlib.util.spec_from_file_location(f"ledger_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module
    module_spec.loader.exec_module(module)
    return module


spec = _load("spec")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )  # fmt: skip


def _one(workload: str, seed: int, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = _run("--seed", "3", "--rounds", "1", "--traced", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for metric in spec.END_TO_END:  # one command prints every metric by name
        assert f"{metric.name} [{metric.unit}" in proc.stdout
    return json.loads(out.read_text())


def test_benchmark_json_matches_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/ledger"]
    assert contract["command"][-1] == "benchmarks/ledger/run.py"
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]


def test_every_metric_reported(ledger):
    assert ledger["claim"] is None
    assert ledger["host"]["cpu_count"] and ledger["host"]["blas_pins"]
    for workload in spec.WORKLOADS:
        block = ledger["workloads"][workload]
        assert block["failed"] == 0 and block["attempted"] > 0
        assert block["oracle_compared"] > 0
        assert block["spans_balanced"]
        for metric in spec.END_TO_END:
            entry = block["end_to_end"][metric.name]
            assert entry["unit"] == metric.unit
            assert math.isfinite(entry["median"]) and entry["median"] > 0
        for metric in spec.PER_LAYER:
            entry = block["layers"][metric.name]
            assert entry["unit"] == metric.unit
            assert math.isfinite(entry["value"])
        assert block["layers"]["obs.dropped_spans"]["value"] == 0


def test_workloads_reach_their_layers(ledger):
    layers = {w: ledger["workloads"][w]["layers"] for w in spec.WORKLOADS}
    for workload in spec.WORKLOADS:
        for name, entry in layers[workload].items():
            if name.startswith("cluster.") and workload != "sharded_rw":
                assert entry["value"] == 0, (workload, name)
    assert layers["sharded_rw"]["cluster.fanout_ms_mean"]["value"] > 0
    assert layers["sharded_rw"]["cluster.wire_bytes_per_fanout"]["value"] > 0
    assert layers["miss_uniform"]["engine.miss_share"]["value"] == 1.0
    assert layers["miss_uniform"]["core.phase2_ms_mean"]["value"] > 0
    assert layers["hot_zipf"]["engine.full_hit_share"]["value"] > 0
    for workload in ("flash_rw", "sharded_rw"):
        assert layers[workload]["serve.fences"]["value"] > 0
        assert layers[workload]["serve.write_p50_ms"]["value"] > 0
        assert layers[workload]["index.tree_insert_ms_mean"]["value"] > 0


def test_exact_counts_follow_the_seed(ledger):
    def counts(metrics: dict) -> list[float]:
        return [metrics[name]["value"] for name in spec.EXACT_COUNTS]

    first = counts(ledger["workloads"]["miss_uniform"]["layers"])  # seed 3
    assert counts(_one("miss_uniform", 3, trace=1)["metrics"]) == first
    assert counts(_one("miss_uniform", 4, trace=1)["metrics"]) != first


def test_compare_verdicts(ledger, tmp_path):
    def verdict_of(b: dict) -> tuple[int, str]:
        paths = []
        for name, payload in (("a", ledger), ("b", b)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, str(HERE / "compare.py"), *map(str, paths)],
            capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        return proc.returncode, proc.stdout

    code, out = verdict_of(ledger)
    assert code == 0 and "worse: 0" in out and "unresolved: 0" in out

    slower = copy.deepcopy(ledger)
    entry = slower["workloads"]["hot_zipf"]["end_to_end"]["qps"]
    for key in ("median", "q1", "q3"):  # beyond the 25 % bound
        entry[key] *= 0.7
    entry["values"] = [v * 0.7 for v in entry["values"]]
    slower["workloads"]["flash_rw"]["failed"] += 1
    code, out = verdict_of(slower)
    assert code != 0
    flagged = [line for line in out.splitlines() if line.endswith("worse")]
    assert any("qps" in line and "hot_zipf" in line for line in flagged)
    assert any("failed" in line and "flash_rw" in line for line in flagged)


def test_oracle_agrees_with_scan_topk():
    from repro.query.linear_scan import scan_topk

    oracle = _load("oracle")
    rng = np.random.default_rng(5)
    rows = rng.random((500, 4))
    rows[7] = rows[3]  # an exact score tie, broken by (sum, rid)
    live = rng.random(500) > 0.1
    sums = rows.sum(axis=1)
    for _ in range(20):
        w = rng.random(4) * 0.8 + 0.1
        assert oracle.scan_ids(rows, sums, live, w, 20) == scan_topk(rows, w, 20, live=live).ids
