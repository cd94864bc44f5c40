"""Tests for the runtime concurrency sanitizer (`repro.sanitize`).

The ownership token is exercised directly in-process — it works
regardless of ``REPRO_SANITIZE``. The production wiring (decorators
arming, a seeded race actually detected, the sharded tier running
clean) needs the flag frozen at import, so those cases run in
subprocesses with ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.sanitize import AccessToken, OwnershipViolation

REPO = Path(__file__).resolve().parents[1]


def run_sanitized(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter with the sanitizer armed."""
    env = dict(os.environ)
    env["REPRO_SANITIZE"] = "1"
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=180,
    )


class TestAccessToken:
    def test_serialized_cross_thread_accesses_pass(self):
        token = AccessToken("t")
        done = []

        def use():
            with token.access("mutate"):
                done.append(1)

        for _ in range(3):
            t = threading.Thread(target=use)
            t.start()
            t.join()
        with token.access("mutate"):
            done.append(1)
        assert len(done) == 4

    def test_concurrent_reads_pass(self):
        token = AccessToken("t")
        inside = threading.Event()
        release = threading.Event()
        errors: list[BaseException] = []

        def reader():
            try:
                with token.access("read"):
                    inside.set()
                    release.wait(5)
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)
                inside.set()

        t = threading.Thread(target=reader)
        t.start()
        assert inside.wait(5)
        with token.access("read"):
            pass
        release.set()
        t.join()
        assert errors == []

    @pytest.mark.parametrize("mine,other", [
        ("mutate", "mutate"),
        ("mutate", "read"),
        ("read", "mutate"),
    ])
    def test_overlap_with_a_mutation_raises_with_both_stacks(
        self, mine, other
    ):
        token = AccessToken("cache#1")
        inside = threading.Event()
        release = threading.Event()

        def holder():
            with token.access(other):
                inside.set()
                release.wait(5)

        t = threading.Thread(target=holder)
        t.start()
        assert inside.wait(5)
        try:
            with pytest.raises(OwnershipViolation) as err:
                with token.access(mine):
                    pass
        finally:
            release.set()
            t.join()
        message = str(err.value)
        assert "cache#1" in message
        assert "--- this thread" in message
        assert "--- other thread" in message
        # Both stacks are real tracebacks pointing at this test module.
        assert message.count("test_sanitize.py") >= 2

    def test_same_thread_nesting_is_reentrant(self):
        token = AccessToken("t")
        with token.access("mutate"):
            with token.access("read"):
                with token.access("mutate"):
                    pass


class TestProductionWiring:
    def test_decorators_are_identity_when_disabled(self):
        # Run in a subprocess with the flag cleared: this test must hold
        # even when the suite itself runs under REPRO_SANITIZE=1.
        env = dict(os.environ)
        env.pop("REPRO_SANITIZE", None)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import sanitize\n"
                "assert not sanitize.ENABLED\n"
                "def method(self):\n"
                "    return 7\n"
                "assert sanitize.mutates(method) is method\n"
                "assert sanitize.reads(method) is method\n"
                "print('IDENTITY-OK')\n",
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=env,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "IDENTITY-OK" in proc.stdout

    def test_armed_interpreter_instruments_methods(self):
        proc = run_sanitized(
            "from repro import sanitize\n"
            "from repro.core.caching import GIRCache\n"
            "from repro.engine.engine import GIREngine\n"
            "assert sanitize.ENABLED\n"
            "assert hasattr(GIRCache.insert, '__wrapped__')\n"
            "assert hasattr(GIRCache.lookup, '__wrapped__')\n"
            "assert hasattr(GIREngine.topk, '__wrapped__')\n"
            "print('ARMED-OK')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "ARMED-OK" in proc.stdout

    def test_seeded_race_is_detected(self):
        # Two threads inside one instrumented structure at once, one of
        # them mutating: the sanitizer must fail fast with both stacks.
        proc = run_sanitized(
            "import threading\n"
            "from repro import sanitize\n"
            "\n"
            "class Box:\n"
            "    @sanitize.mutates\n"
            "    def poke(self, entered, release):\n"
            "        entered.set()\n"
            "        release.wait(5)\n"
            "\n"
            "box = Box()\n"
            "entered, release = threading.Event(), threading.Event()\n"
            "t = threading.Thread(target=box.poke, args=(entered, release))\n"
            "t.start()\n"
            "assert entered.wait(5)\n"
            "try:\n"
            "    box.poke(threading.Event(), threading.Event())\n"
            "    print('RACE-MISSED')\n"
            "except sanitize.OwnershipViolation as exc:\n"
            "    assert '--- other thread' in str(exc)\n"
            "    print('RACE-DETECTED')\n"
            "finally:\n"
            "    release.set()\n"
            "    t.join()\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "RACE-DETECTED" in proc.stdout
        assert "RACE-MISSED" not in proc.stdout

    def test_serialized_use_of_instrumented_structure_passes(self):
        proc = run_sanitized(
            "import threading\n"
            "from repro import sanitize\n"
            "\n"
            "class Box:\n"
            "    @sanitize.mutates\n"
            "    def poke(self):\n"
            "        return 1\n"
            "\n"
            "box = Box()\n"
            "for _ in range(3):\n"
            "    t = threading.Thread(target=box.poke)\n"
            "    t.start()\n"
            "    t.join()\n"
            "box.poke()\n"
            "print('SERIAL-OK')\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "SERIAL-OK" in proc.stdout

    def test_sharded_tier_runs_clean_under_the_sanitizer(self):
        # The serve lock serializes the router and every backend call
        # under it: a mixed workload on either backend must produce zero
        # ownership violations — and the same answers on both.
        proc = run_sanitized(
            "from repro.cluster import ShardedGIREngine\n"
            "from repro.data.synthetic import independent\n"
            "from repro.engine import InsertOp, Request, mixed_workload\n"
            "\n"
            "data = independent(300, 3, seed=9)\n"
            "wl = mixed_workload(3, 20, base_n=300, k=5,\n"
            "                    update_fraction=0.3, rng=17)\n"
            "answers = []\n"
            "for backend in ('inproc', 'process'):\n"
            "    ids = []\n"
            "    with ShardedGIREngine(data, shards=2, backend=backend) as eng:\n"
            "        for op in wl:\n"
            "            if isinstance(op, Request):\n"
            "                ids.append(eng.topk(op.weights, op.k).ids)\n"
            "            elif isinstance(op, InsertOp):\n"
            "                eng.insert(op.point)\n"
            "            else:\n"
            "                eng.delete(op.rid)\n"
            "    answers.append(ids)\n"
            "assert answers[0] == answers[1] and answers[0]\n"
            "print('CLUSTER-OK', len(answers[0]))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLUSTER-OK" in proc.stdout
