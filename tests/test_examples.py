"""Smoke tests: every shipped example must run end-to-end.

Examples are executed as subprocesses with a reduced dataset size (they all
accept an optional record-count argument) so the suite stays fast while
still exercising the same code paths a user would.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, arg: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), arg],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "2000")
        assert "Top-10 record ids" in out
        assert "volume ratio" in out
        assert "immutable intervals" in out.lower() or "Per-weight" in out

    def test_restaurant_recommender(self):
        out = run_example("restaurant_recommender.py", "4000")
        assert "Top-10 restaurants" in out
        assert "tipping point" in out
        assert "Robustness" in out

    def test_result_caching(self):
        out = run_example("result_caching.py", "3000")
        assert "served from cache" in out
        assert "all exact" in out

    def test_sensitivity_dashboard(self):
        out = run_example("sensitivity_dashboard.py", "3000")
        assert "GIR ratio" in out
        assert "Per-weight immutable ranges" in out

    def test_dynamic_engine(self):
        out = run_example("dynamic_engine.py", "3000")
        assert "GIR-aware invalidation vs flush-on-write" in out
        assert "all exact" in out

    def test_sharded_serving(self):
        out = run_example("sharded_serving.py", "3000")
        assert "4-shard cluster (inproc backend)" in out
        assert "4-shard cluster (process backend)" in out
        assert "process backend" in out
        assert "shard 3" in out
        assert "all exact" in out
        assert "MISMATCH" not in out
