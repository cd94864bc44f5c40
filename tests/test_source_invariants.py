"""Source invariants of ``src/repro``, checked on its syntax trees.

Each check is a plain function over one parsed module that yields
``(line, message)`` pairs; :func:`violations` folds in the allow markers
and reports ``path:line: [rule] message``. The checks:

* ``numeric-safety``: no bare float ``==``/``!=`` outside ``repro:
  bit-exact`` files, no ``1e-N`` literal outside ``core/tolerances.py``
  (the insert prescreen is sound only while its margin stays below *the*
  membership tolerance, so each tolerance lives once, by name);
* ``fork-safety``: no module-level mutable container, lock or ``open()``
  in the modules a shard fan-out threads or forks through;
* ``async-safety``: no ``time.sleep`` or non-awaited ``.acquire()`` in a
  ``serve/`` coroutine (which engine calls run on the loop is checked at
  run time, by the spy engine of ``tests/test_serve.py``);
* ``span-discipline``: every ``span``/``trace``/``use_trace`` of
  :mod:`repro.obs` is a ``with`` item or an ``enter_context`` argument;
* ``lock-sites``: a ``Lock``/``RLock``/``Semaphore``/``Condition`` is
  built only in ``obs/trace.py`` (the trace collector's guard) and
  ``cluster/sharded.py`` (the router's serve lock); every other structure
  is single-owner (the ownership spy of ``tests/conftest.py`` watches
  that at run time).

``# repro: allow[rule] -- why`` on a finding's line, or in a comment
block directly above it, allows it. The justification is required, and a
marker that allows nothing fails too.
"""

from __future__ import annotations

import ast
import io
import math
import re
import sys
import tokenize
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MARKER = re.compile(
    r"#\s*repro:\s*allow\[(?P<rule>[a-z0-9-]+)\](?:\s*--\s*(?P<why>.*\S))?"
)


class Module(NamedTuple):
    path: str  # relative to src/, e.g. "repro/serve/front.py"
    tree: ast.Module
    lines: list[str]
    #: Column of each real comment token, by line: a marker quoted in a
    #: docstring is not a comment.
    comments: dict[int, int]


def parse(path: str, source: str) -> Module:
    tree = ast.parse(source, path)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = {t.start[0]: t.start[1] for t in tokens if t.type == tokenize.COMMENT}
    return Module(path, tree, source.splitlines(), comments)


@cache
def source_tree() -> tuple[Module, ...]:
    """Every module under ``src/repro``, parsed once."""
    files = sorted((SRC / "repro").rglob("*.py"))
    return tuple(parse(f.relative_to(SRC).as_posix(), f.read_text("utf-8")) for f in files)


def call_name(node: ast.AST) -> str | None:
    """``f`` for a call ``f(...)`` or ``x.f(...)``; ``None`` otherwise."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


# -- numeric-safety -------------------------------------------------------------

FLOAT_CALLS = frozenset(
    {"float", "float64", "sum", "dot", "mean", "norm", "prod", "vdot", "trace",
     "maximize", "chebyshev_radius", "volume", "log", "log10", "exp", "sqrt"}
)  # fmt: skip


def floatish(node: ast.expr) -> bool:
    """Does ``node`` evidently produce a float (or a float array)?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return floatish(node.operand)
    if isinstance(node, ast.BinOp):
        return floatish(node.left) or floatish(node.right)
    return call_name(node) in FLOAT_CALLS


def tolerance_literal(value: object) -> bool:
    """``1e-N`` with ``3 <= N <= 320``, judged by an exact round trip."""
    if not isinstance(value, float) or not 0.0 < value < 1.0:
        return False
    n = round(-math.log10(value))
    return 3 <= n <= 320 and float(f"1e-{n}") == value


def numeric_safety(mod: Module):
    bit_exact = "repro: bit-exact" in (ast.get_docstring(mod.tree) or "")
    literals_ok = mod.path.endswith("core/tolerances.py")
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Compare) and not bit_exact:
            pairs = zip(node.ops, [node.left, *node.comparators], node.comparators)
            if any(
                isinstance(op, (ast.Eq, ast.NotEq)) and (floatish(a) or floatish(b))
                for op, a, b in pairs
            ):
                yield node.lineno, "bare ==/!= on a float; use a tolerance or mark the file bit-exact"
        elif isinstance(node, ast.Constant) and not literals_ok:
            if tolerance_literal(node.value):
                yield node.lineno, f"inline tolerance {node.value!r}; name it in core/tolerances"


# -- fork-safety ----------------------------------------------------------------

FORK_SCOPE = (
    "repro/cluster/", "repro/engine/", "repro/core/caching.py",
    "repro/core/region_index.py", "repro/core/kernels.py",
)  # fmt: skip
MUTABLE = (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp)
MUTABLE_CALLS = frozenset({"dict", "list", "set", "defaultdict", "deque"})
LOCK_CALLS = frozenset({"Lock", "RLock", "Semaphore", "Condition"})
RESOURCE_CALLS = LOCK_CALLS | {"open"}


def fork_safety(mod: Module):
    if not any(part in mod.path for part in FORK_SCOPE):
        return
    for node in mod.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names or all(name.startswith("__") for name in names):
            continue
        if isinstance(value, MUTABLE) or call_name(value) in MUTABLE_CALLS:
            yield node.lineno, f"module-level mutable {names[0]!r}; freeze it or justify it"
        elif call_name(value) in RESOURCE_CALLS:
            yield node.lineno, f"{names[0]!r} = {call_name(value)}() at import time"


# -- async-safety ---------------------------------------------------------------


def async_safety(mod: Module):
    if "serve/" not in mod.path:
        return
    awaited = {id(n.value) for n in ast.walk(mod.tree) if isinstance(n, ast.Await)}
    for fn in ast.walk(mod.tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a nested def runs wherever it is called
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            if ast.unparse(node.func) == "time.sleep":
                yield node.lineno, f"time.sleep blocks the loop in {fn.name!r}"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
                and id(node) not in awaited
            ):
                yield node.lineno, f"non-awaited .acquire() blocks the loop in {fn.name!r}"


# -- span-discipline ------------------------------------------------------------

SPAN_FNS = frozenset({"span", "trace", "use_trace"})
OBS_MODULES = frozenset({"repro.obs", "repro.obs.trace"})


def span_discipline(mod: Module):
    if "repro/obs/" in mod.path:
        return  # the tracer implements what this checks
    modules: set[str] = set()  # names bound to the tracer module
    fns: dict[str, str] = {}  # local name -> span function
    sanctioned: set[int] = set()  # calls in a with item or enter_context
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name in OBS_MODULES}
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module == "repro" and a.name == "obs":
                    modules.add(a.asname or a.name)
                elif node.module in OBS_MODULES and a.name in SPAN_FNS:
                    fns[a.asname or a.name] = a.name
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            sanctioned |= {id(item.context_expr) for item in node.items}
        elif call_name(node) == "enter_context":
            sanctioned |= {id(arg) for arg in node.args}
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call) or id(node) in sanctioned:
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = fns.get(func.id)
        elif isinstance(func, ast.Attribute) and ast.unparse(func.value) in modules:
            name = func.attr if func.attr in SPAN_FNS else None
        else:
            name = None
        if name is not None:
            yield node.lineno, f"{name}() is not a with item or enter_context argument"


# -- lock-sites -----------------------------------------------------------------

LOCK_SITES = ("repro/obs/trace.py", "repro/cluster/sharded.py")


def lock_sites(mod: Module):
    if mod.path in LOCK_SITES:
        return
    for node in ast.walk(mod.tree):
        name = call_name(node)
        if name in LOCK_CALLS:
            yield node.lineno, f"{name}() outside {' and '.join(LOCK_SITES)}"


CHECKS = {
    "numeric-safety": numeric_safety,
    "fork-safety": fork_safety,
    "async-safety": async_safety,
    "span-discipline": span_discipline,
    "lock-sites": lock_sites,
}


# -- allow markers --------------------------------------------------------------


def has_code(mod: Module, line: int) -> bool:
    text = mod.lines[line - 1]
    return bool(text[: mod.comments.get(line, len(text))].strip())


def markers(mod: Module):
    """``(line, rule, justification, covered line)`` of each allow marker:
    a trailing one covers its own line, one in a comment block the first
    code line below the block."""
    for line, col in sorted(mod.comments.items()):
        m = MARKER.search(mod.lines[line - 1], col)
        if m is None:
            continue
        covered = line
        while covered <= len(mod.lines) and not has_code(mod, covered):
            covered += 1
        yield line, m["rule"], m["why"], covered


def violations(mod: Module, rule: str) -> list[str]:
    """``rule``'s findings in ``mod`` that no justified marker allows, plus
    each unjustified or stale marker of ``rule``."""
    found = list(CHECKS[rule](mod))
    for line, marked, why, covered in markers(mod):
        if marked != rule:
            continue
        allowed = [f for f in found if f[0] == covered]
        if not allowed:
            found.append((line, f"stale allow[{rule}]: it allows nothing; remove it"))
        elif not why:
            found.append((line, f"allow[{rule}] needs a justification after '--'"))
        found = [f for f in found if f not in allowed]
    return [f"{mod.path}:{line}: [{rule}] {msg}" for line, msg in sorted(found)]


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("rule", CHECKS)
def test_clean_tree(rule):
    found = [v for mod in source_tree() for v in violations(mod, rule)]
    assert found == [], "\n".join(found)


def test_a_finding_fails_the_gate(monkeypatch):
    seeded = source_tree() + (parse("repro/core/seeded.py", "TOL = 1e-9\n"),)
    monkeypatch.setattr(sys.modules[__name__], "source_tree", lambda: seeded)
    with pytest.raises(AssertionError, match=r"repro/core/seeded\.py:1: \[numeric-safety\]"):
        test_clean_tree("numeric-safety")


def test_every_marker_names_a_check():
    unknown = [
        f"{mod.path}:{line}: allow[{rule}] names no check"
        for mod in source_tree()
        for line, rule, _, _ in markers(mod)
        if rule not in CHECKS
    ]
    assert unknown == [], "\n".join(unknown)


def test_a_file_that_does_not_parse_fails_loudly():
    with pytest.raises(SyntaxError):
        parse("pkg/broken.py", "def f(:\n")


ZERO_CHECK = "def f(x):\n    return x == 0.0"
NUM, FORK, ASYNC, SPAN, LOCK = CHECKS
#: name -> (rule, path, source, the "line:message fragment" of each finding)
SEEDS = {
    "float_literal_equality": (NUM, "m.py", "def f(x):\n    return x == 1.5\n", ["2:bare"]),
    "float_call_equality": (NUM, "m.py", "def f(a, b):\n    return a.sum() != b.dot(b)\n", ["2:bare"]),
    "inline_tolerance_literal": (NUM, "m.py", "TOL = 1e-9\n", ["1:inline tolerance"]),
    "named_tolerance_and_int_equality": (NUM, "m.py", "from repro.core.tolerances import TOL\n"
                                         "def f(x, y):\n    return abs(x - y) <= TOL and x == 3\n", []),
    "bit_exact_file": (NUM, "m.py", '"""Equivalence (repro: bit-exact)."""\n'
                       "def f(a, b):\n    return a.sum() == b.sum()\n", []),
    "tolerances_module": (NUM, "repro/core/tolerances.py", "MEMBERSHIP_TOL = 1e-9\n", []),
    "justified_marker": (NUM, "m.py", ZERO_CHECK + "  # repro: allow[numeric-safety] -- sentinel\n", []),
    "unjustified_marker": (NUM, "m.py", ZERO_CHECK + "  # repro: allow[numeric-safety]\n",
                           ["2:justification"]),
    "comment_block_marker": (NUM, "m.py", "def f(x):\n    # repro: allow[numeric-safety] -- a\n"
                             "    # sentinel, explained over two lines\n\n    return x == 0.0\n", []),
    "marker_in_docstring_is_no_marker": (NUM, "m.py", '"""# repro: allow[numeric-safety] -- why"""\n'
                                         + ZERO_CHECK + "\n", ["3:bare"]),
    "stale_marker": (NUM, "m.py", "X = 3  # repro: allow[numeric-safety] -- nothing\n", ["1:stale"]),
    "module_level_dict": (FORK, "repro/cluster/registry.py", "TABLE = {}\n", ["1:mutable 'TABLE'"]),
    "module_level_lock": (FORK, "repro/engine/state.py",
                          "import threading\n_LOCK = threading.Lock()\n", ["2:Lock() at import"]),
    "frozen_state": (FORK, "repro/cluster/ok.py", "from types import MappingProxyType\n"
                     "__all__ = ['A']\nA = MappingProxyType({1: 2})\nB = frozenset({1})\n", []),
    "mutable_outside_fan_out": (FORK, "repro/bench/tables.py", "ROWS = []\n", []),
    "time_sleep_in_coroutine": (ASYNC, "pkg/serve/front.py",
                                "import time\nasync def f():\n    time.sleep(0.1)\n", ["3:time.sleep"]),
    "raw_lock_acquire": (ASYNC, "pkg/serve/front.py",
                         "async def f(lock):\n    lock.acquire()\n", ["2:.acquire()"]),
    "awaited_calls_and_bridge": (ASYNC, "pkg/serve/front.py", "async def f(self, loop):\n"
                                 "    await self.lock.acquire()\n    w = await self.topk(1)\n"
                                 "    await loop.run_in_executor(None, self.engine.topk_batch, w)\n", []),
    "nested_def_and_sync_function": (ASYNC, "pkg/serve/front.py", "import time\n"
                                     "def bridge():\n    time.sleep(0.0)\nasync def f():\n"
                                     "    def job():\n        time.sleep(0.0)\n    return job\n", []),
    "sleep_outside_serve": (ASYNC, "pkg/engine/loop.py",
                            "import time\nasync def f():\n    time.sleep(0.1)\n", []),
    "span_entered_by_hand": (SPAN, "pkg/mod.py", "from repro import obs\ndef f():\n"
                             "    sp = obs.span('w')\n    sp.__enter__()\n", ["3:span()"]),
    "aliased_function_import": (SPAN, "pkg/mod.py", "from repro.obs import span as make\n"
                                "def f():\n    return make('w')\n", ["3:span()"]),
    "aliased_module_import": (SPAN, "pkg/mod.py", "import repro.obs as tracing\n"
                              "def f():\n    return tracing.trace('w')\n", ["3:trace()"]),
    "with_and_enter_context": (SPAN, "pkg/mod.py", "from repro import obs\ndef f(ctx, stack):\n"
                               "    with obs.span('a'), obs.trace('b'):\n"
                               "        stack.enter_context(obs.use_trace(ctx))\n"
                               "    obs.record_span('c', 0.0, 1.0)\n", []),
    "obs_package_exempt": (SPAN, "repro/obs/export.py",
                           "from repro.obs.trace import span\ndef f():\n    return span('w')\n", []),
    "span_of_another_library": (SPAN, "pkg/mod.py",
                                "from other import span\ndef f():\n    return span('w')\n", []),
    "lock_in_a_cache_method": (LOCK, "repro/core/caching.py", "import threading\nclass GIRCache:\n"
                               "    def insert(self):\n        self._lock = threading.Lock()\n",
                               ["4:Lock() outside"]),
    "the_two_lock_sites": (LOCK, "repro/cluster/sharded.py", "import threading\nclass R:\n"
                           "    def __init__(self):\n        self._serve_lock = threading.RLock()\n", []),
}  # fmt: skip


@pytest.mark.parametrize("name", SEEDS)
def test_seeded_snippet(name):
    rule, path, source, expected = SEEDS[name]
    found = violations(parse(path, source), rule)
    assert len(found) == len(expected), found
    for finding, want in zip(found, expected):
        line, fragment = want.split(":", 1)
        assert finding.startswith(f"{path}:{line}: [{rule}]") and fragment in finding, finding
