"""Tests for the static checker (`repro.analysis`).

Every rule gets a positive fixture (a seeded violation it must catch) and
a negative fixture (clean code it must pass); the framework's suppression
semantics and the CLI are covered against the real committed sources.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis import ALL_RULES, Project, run_rules
from repro.analysis.rules.async_safety import AsyncSafetyRule
from repro.analysis.rules.fork_safety import ForkSafetyRule
from repro.analysis.rules.numeric_safety import NumericSafetyRule
from repro.analysis.rules.span_discipline import SpanDisciplineRule

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def project_from(tmp_path: Path, files: dict[str, str]) -> Project:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return Project.load(tmp_path, [tmp_path])


def findings_of(project: Project, rule) -> list:
    return run_rules(project, [rule]).findings


class TestNumericSafety:
    def test_flags_bare_float_equality(self, tmp_path):
        project = project_from(
            tmp_path,
            {"pkg/mod.py": "def f(x):\n    return x == 1.5\n"},
        )
        found = findings_of(project, NumericSafetyRule())
        assert len(found) == 1
        assert found[0].rule == "numeric-safety"
        assert "bare ==" in found[0].message

    def test_flags_float_call_equality(self, tmp_path):
        project = project_from(
            tmp_path,
            {"pkg/mod.py": "def f(a, b):\n    return a.sum() != b.dot(b)\n"},
        )
        assert len(findings_of(project, NumericSafetyRule())) == 1

    def test_flags_inline_tolerance_literal(self, tmp_path):
        project = project_from(
            tmp_path,
            {"pkg/mod.py": "TOL = 1e-9\n"},
        )
        found = findings_of(project, NumericSafetyRule())
        assert len(found) == 1
        assert "tolerance literal" in found[0].message

    def test_clean_module_passes(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    "from repro.core.tolerances import MEMBERSHIP_TOL\n\n"
                    "def f(x, y):\n"
                    "    return abs(x - y) <= MEMBERSHIP_TOL and x == 3\n"
                )
            },
        )
        assert findings_of(project, NumericSafetyRule()) == []

    def test_bit_exact_marker_exempts_file(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    '"""Backend equivalence (repro: bit-exact).\n"""\n'
                    "def f(a, b):\n    return a.sum() == b.sum()\n"
                )
            },
        )
        assert findings_of(project, NumericSafetyRule()) == []

    def test_tolerances_module_may_define_literals(self, tmp_path):
        project = project_from(
            tmp_path,
            {"repro/core/tolerances.py": "MEMBERSHIP_TOL = 1e-9\n"},
        )
        assert findings_of(project, NumericSafetyRule()) == []


class TestForkSafety:
    def test_lambda_into_shardspec_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/cluster/router.py": (
                    "def build(rows):\n"
                    "    return ShardSpec(shard=0, scorer=lambda w: w,"
                    " points=rows)\n"
                )
            },
        )
        found = findings_of(project, ForkSafetyRule())
        assert any("lambda" in f.message for f in found)

    def test_nested_function_into_shardspec_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "anywhere.py": (
                    "def build(rows):\n"
                    "    def scorer(w):\n"
                    "        return w\n"
                    "    return ShardSpec(shard=0, scorer=scorer)\n"
                )
            },
        )
        found = findings_of(project, ForkSafetyRule())
        assert any("pickle" in f.message for f in found)

    def test_module_level_mutable_dict_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {"repro/cluster/registry.py": "TABLE = {}\n"},
        )
        found = findings_of(project, ForkSafetyRule())
        assert any("mutable dict" in f.message for f in found)

    def test_module_level_lock_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "repro/engine/state.py": (
                    "import threading\n_LOCK = threading.Lock()\n"
                )
            },
        )
        found = findings_of(project, ForkSafetyRule())
        assert any("import time" in f.message for f in found)

    def test_frozen_state_and_out_of_scope_modules_pass(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                # In scope, but immutable / dunder state only.
                "repro/cluster/ok.py": (
                    "from types import MappingProxyType\n"
                    "__all__ = ['A']\n"
                    "A = MappingProxyType({1: 2})\n"
                    "B = frozenset({1})\n"
                ),
                # Mutable, but not a fan-out module.
                "repro/bench/tables.py": "ROWS = []\n",
            },
        )
        assert findings_of(project, ForkSafetyRule()) == []

    def test_real_cluster_tree_is_clean_or_justified(self):
        project = Project.load(REPO, [SRC / "repro" / "cluster"])
        result = run_rules(project, [ForkSafetyRule()])
        assert result.findings == []
        # The two plug-in registries ride on justified suppressions.
        assert len(result.suppressed) == 2


class TestSuppressions:
    def test_justified_suppression_suppresses(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    "def f(x):\n"
                    "    return x == 0.0  "
                    "# repro: allow[numeric-safety] -- exact zero sentinel\n"
                )
            },
        )
        result = run_rules(project, [NumericSafetyRule()])
        assert result.findings == [] and len(result.suppressed) == 1

    def test_unjustified_suppression_is_a_finding(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    "def f(x):\n"
                    "    return x == 0.0  # repro: allow[numeric-safety]\n"
                )
            },
        )
        result = run_rules(project, [NumericSafetyRule()])
        assert [f.rule for f in result.findings] == ["suppression"]
        assert "justification" in result.findings[0].message

    def test_comment_block_suppression_covers_next_code_line(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    "def f(x):\n"
                    "    # repro: allow[numeric-safety] -- sentinel check,\n"
                    "    # explained over two comment lines\n"
                    "    return x == 0.0\n"
                )
            },
        )
        result = run_rules(project, [NumericSafetyRule()])
        assert result.findings == [] and len(result.suppressed) == 1

    def test_marker_inside_docstring_is_not_a_suppression(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    '"""Docs: write # repro: allow[numeric-safety] -- why."""\n'
                    "def f(x):\n"
                    "    return x == 0.0\n"
                )
            },
        )
        result = run_rules(project, [NumericSafetyRule()], strict=True)
        assert [f.rule for f in result.findings] == ["numeric-safety"]

    def test_strict_flags_stale_suppressions(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    "X = 3  # repro: allow[numeric-safety] -- nothing here\n"
                )
            },
        )
        result = run_rules(project, [NumericSafetyRule()], strict=True)
        assert [f.rule for f in result.findings] == ["unused-suppression"]

    def test_parse_error_is_a_finding(self, tmp_path):
        project = project_from(tmp_path, {"pkg/broken.py": "def f(:\n"})
        result = run_rules(project, [NumericSafetyRule()])
        assert [f.rule for f in result.findings] == ["parse-error"]


class TestCLI:
    def _run(self, *args: str):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            cwd=REPO,
        )

    def test_full_repo_strict_run_is_clean(self):
        proc = self._run("src/repro", "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_violations_exit_nonzero(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("TOL = 1e-9\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert ":1: [numeric-safety]" in proc.stdout
        assert "1 finding (0 suppressed)" in proc.stdout

    def test_github_format_emits_error_annotations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("TOL = 1e-9\n")
        proc = self._run(str(bad), "--format", "github")
        assert proc.returncode == 1
        line = next(
            ln for ln in proc.stdout.splitlines() if ln.startswith("::error ")
        )
        assert "file=" in line and ",line=1," in line
        assert "repro.analysis[numeric-safety]" in line

    def test_github_format_escapes_newlines(self, tmp_path):
        from io import StringIO

        from repro.analysis.framework import (
            AnalysisResult,
            Finding,
            render_github,
        )

        out = StringIO()
        result = AnalysisResult(
            findings=[Finding("demo", "a.py", 3, "line one\nline two % x")],
            suppressed=[],
            checked_files=1,
            rules_run=["demo"],
        )
        render_github(result, stream=out)
        annotation = out.getvalue().splitlines()[0]
        assert "\n" not in annotation.removeprefix("::error ")
        assert "%0A" in annotation and "%25" in annotation

    def test_overlapping_paths_parse_each_file_once(self):
        # src and src/repro overlap; every file must be loaded (and its
        # findings reported) exactly once.
        once = Project.load(REPO, [SRC / "repro"])
        twice = Project.load(REPO, [SRC, SRC / "repro"])
        assert sorted(twice.modules) == sorted(once.modules)

    def test_list_rules_names_all_four(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        expected = [
            "numeric-safety",
            "fork-safety",
            "async-safety",
            "span-discipline",
        ]
        assert [cls.id for cls in ALL_RULES] == expected
        for rule_id in expected:
            assert rule_id in proc.stdout


class TestAsyncSafety:
    """Seeded violations and clean fixtures for the ``async-safety`` rule."""

    def test_flags_time_sleep_in_coroutine(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/serve/front.py": (
                    "import time\n\n"
                    "async def handler():\n"
                    "    time.sleep(0.1)\n"
                )
            },
        )
        found = findings_of(project, AsyncSafetyRule())
        assert len(found) == 1
        assert "time.sleep" in found[0].message
        assert found[0].line == 4

    def test_flags_raw_lock_acquire(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/serve/front.py": (
                    "async def handler(lock):\n"
                    "    lock.acquire()\n"
                    "    try:\n"
                    "        pass\n"
                    "    finally:\n"
                    "        lock.release()\n"
                )
            },
        )
        found = findings_of(project, AsyncSafetyRule())
        assert len(found) == 1
        assert ".acquire()" in found[0].message

    def test_flags_synchronous_engine_call(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/serve/front.py": (
                    "async def handler(engine, w, k):\n"
                    "    return engine.topk(w, k)\n"
                )
            },
        )
        found = findings_of(project, AsyncSafetyRule())
        assert len(found) == 1
        assert "executor bridge" in found[0].message

    def test_serve_hits_in_a_coroutine_passes(self, tmp_path):
        # serve_hits serves a batch of full cache hits at most and stops
        # before the first non-hit: the one engine call the loop may make.
        project = project_from(
            tmp_path,
            {
                "pkg/serve/front.py": (
                    "async def handler(engine, reqs):\n"
                    "    return engine.serve_hits(reqs)\n"
                )
            },
        )
        assert findings_of(project, AsyncSafetyRule()) == []

    def test_topk_batch_beside_serve_hits_is_still_flagged(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/serve/front.py": (
                    "async def handler(engine, reqs):\n"
                    "    hits = engine.serve_hits(reqs)\n"
                    "    return hits + engine.topk_batch(reqs[len(hits):])\n"
                )
            },
        )
        found = findings_of(project, AsyncSafetyRule())
        assert [f.line for f in found] == [3]
        assert ".topk_batch()" in found[0].message

    def test_awaited_counterparts_and_bridge_pass(self, tmp_path):
        # The front door's own shape: awaited async methods named like
        # the engine surface, an awaited asyncio lock acquire, and the
        # engine method crossing run_in_executor as a reference.
        project = project_from(
            tmp_path,
            {
                "pkg/serve/front.py": (
                    "import asyncio\n\n"
                    "async def handler(self, w, k):\n"
                    "    await self.lock.acquire()\n"
                    "    resp = await self.topk(w, k)\n"
                    "    loop = asyncio.get_running_loop()\n"
                    "    return await loop.run_in_executor(\n"
                    "        self.pool, self.engine.topk_batch, [resp]\n"
                    "    )\n"
                )
            },
        )
        assert findings_of(project, AsyncSafetyRule()) == []

    def test_nested_def_and_sync_functions_out_of_scope(self, tmp_path):
        # A nested def runs wherever it is called (here: on the bridge),
        # and sync functions are the bridge itself — neither may fire.
        project = project_from(
            tmp_path,
            {
                "pkg/serve/front.py": (
                    "import time\n\n"
                    "def bridge(engine, reqs):\n"
                    "    return engine.topk_batch(reqs)\n\n"
                    "async def handler(engine, reqs):\n"
                    "    def job():\n"
                    "        time.sleep(0.0)\n"
                    "        return engine.topk_batch(reqs)\n"
                    "    return job\n"
                )
            },
        )
        assert findings_of(project, AsyncSafetyRule()) == []

    def test_ignores_modules_outside_serve(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/engine/loop.py": (
                    "import time\n\n"
                    "async def handler(engine, w, k):\n"
                    "    time.sleep(0.1)\n"
                    "    return engine.topk(w, k)\n"
                )
            },
        )
        assert findings_of(project, AsyncSafetyRule()) == []

    def test_committed_serve_package_is_clean(self):
        project = Project.load(REPO, [SRC / "repro" / "serve"])
        assert findings_of(project, AsyncSafetyRule()) == []


class TestSpanDiscipline:
    """Seeded violations and clean fixtures for ``span-discipline``."""

    def test_flags_span_not_used_as_context_manager(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/engine/mod.py": (
                    "from repro import obs\n\n"
                    "def f():\n"
                    "    sp = obs.span('work')\n"
                    "    sp.__enter__()\n"
                )
            },
        )
        found = findings_of(project, SpanDisciplineRule())
        assert len(found) == 1
        assert "context manager" in found[0].message
        assert found[0].line == 4

    def test_flags_aliased_function_import(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/engine/mod.py": (
                    "from repro.obs import span as make_span\n\n"
                    "def f():\n"
                    "    handle = make_span('work')\n"
                    "    return handle\n"
                )
            },
        )
        found = findings_of(project, SpanDisciplineRule())
        assert len(found) == 1

    def test_with_and_enter_context_forms_pass(self, tmp_path):
        project = project_from(
            tmp_path,
            {
                "pkg/engine/mod.py": (
                    "import contextlib\n\n"
                    "from repro import obs\n\n"
                    "def f(trace_ctx):\n"
                    "    with obs.span('outer'), obs.trace('root'):\n"
                    "        pass\n"
                    "    with contextlib.ExitStack() as stack:\n"
                    "        stack.enter_context(obs.use_trace(trace_ctx))\n"
                    "        stack.enter_context(obs.span('inner'))\n"
                    "    obs.record_span('atomic', 0.0, 1.0)\n"
                )
            },
        )
        assert findings_of(project, SpanDisciplineRule()) == []

    def test_obs_package_is_exempt(self, tmp_path):
        # The same call is a finding anywhere else (see the alias test).
        project = project_from(
            tmp_path,
            {
                "repro/obs/export.py": (
                    "from repro.obs.trace import span\n\n"
                    "def f():\n"
                    "    handle = span('work')\n"
                    "    return handle\n"
                )
            },
        )
        assert findings_of(project, SpanDisciplineRule()) == []

    def test_modules_without_obs_imports_skipped(self, tmp_path):
        # `span` from some other library is not the tracer's span.
        project = project_from(
            tmp_path,
            {
                "pkg/mod.py": (
                    "from other.tracing import span\n\n"
                    "def f():\n"
                    "    return span('work')\n"
                )
            },
        )
        assert findings_of(project, SpanDisciplineRule()) == []

    def test_committed_sources_are_clean(self):
        project = Project.load(REPO, [SRC / "repro"])
        assert findings_of(project, SpanDisciplineRule()) == []
