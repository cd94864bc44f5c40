"""Rule ``async-safety``: no blocking calls inside ``serve/`` coroutines.

The serving front door's contract is that the event loop never blocks:
engine work crosses the one-thread executor bridge
(``run_in_executor``), and waiting is always an ``await``. The one
engine call allowed on the loop is ``serve_hits``: it serves only full
cache hits — at most a batch of them, stopping before the first
non-hit — so it is bounded by a micro-batch of in-memory lookups, and
it never runs the pipeline, reads a page or waits on a fan-out. A single
blocking call in a coroutine silently serializes the whole tier — the
micro-batcher stops collecting, coalescing windows close, and the
latency split the stats report becomes fiction — without failing any
functional test. This rule pins the contract statically, for every
module under a ``serve/`` directory:

1. **``time.sleep``** anywhere in an ``async def`` body — the canonical
   loop-blocker (``asyncio.sleep`` is the awaitable replacement).
2. **Raw lock acquisition** — a non-awaited ``.acquire(...)`` call.
   Thread locks block the loop; asyncio primitives are entered with
   ``async with`` (or an awaited ``acquire``).
3. **Synchronous engine calls** — a non-awaited call to the engine
   serving surface (``topk`` / ``topk_batch`` / ``insert`` / ``delete``
   / ``run``) in a coroutine. Engine work belongs on the executor
   bridge: pass the bound method to ``run_in_executor`` and await the
   future. Awaited calls are exempt — they are the front door's own
   async counterparts, not the engine's blocking methods — and so is
   ``serve_hits``, which is bounded (above). The bridge is idle when it
   runs, because the dispatcher awaits every engine call it makes; that
   no two threads are in the engine is a runtime property, which the
   sanitizer's ownership tokens check, not this rule.

Nested ``def``\\ s inside a coroutine are skipped (they don't run on the
loop by virtue of where they're written), and sync functions are out of
scope entirely — that is what makes the executor-bridge half of the
code legal.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Finding, Module, Project, Rule

__all__ = ["AsyncSafetyRule"]

#: The engine serving surface a coroutine must not call synchronously.
#: ``serve_hits`` is left out on purpose: it serves at most a batch of
#: full cache hits and stops before the first non-hit, so it is bounded
#: by in-memory work and is the one engine call allowed on the loop.
_ENGINE_CALLS = frozenset({"topk", "topk_batch", "insert", "delete", "run"})


def _await_targets(tree: ast.AST) -> set[int]:
    """Ids of every Call node that is directly awaited."""
    targets: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            targets.add(id(node.value))
    return targets


def _coroutine_body_nodes(fn: ast.AsyncFunctionDef):
    """Nodes that execute *on the event loop* when the coroutine runs:
    the body, minus the subtrees of any nested function definition."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a nested def runs wherever it is *called*
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_time_sleep(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "sleep":
        return isinstance(func.value, ast.Name) and func.value.id == "time"
    return False


class AsyncSafetyRule(Rule):
    id = "async-safety"
    name = "serve/ coroutines never block the event loop"
    doc = (
        "Inside async def bodies under serve/: flags time.sleep, "
        "non-awaited lock .acquire(...), and non-awaited calls to the "
        "engine serving surface (topk/topk_batch/insert/delete/run) — "
        "engine work must cross the run_in_executor bridge; serve_hits, "
        "bounded to a batch of full cache hits, is the one engine call "
        "allowed on the loop."
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            if "serve/" not in module.path:
                continue
            findings.extend(self._check_module(module))
        return findings

    def _check_module(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        awaited = _await_targets(module.tree)
        for fn in ast.walk(module.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in _coroutine_body_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                if _is_time_sleep(node):
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"time.sleep blocks the event loop in "
                                f"coroutine {fn.name!r}; use asyncio.sleep"
                            ),
                        )
                    )
                    continue
                if id(node) in awaited:
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr == "acquire":
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"non-awaited .acquire() in coroutine "
                                f"{fn.name!r} blocks the event loop; use "
                                f"an asyncio primitive with 'async with'"
                            ),
                        )
                    )
                elif func.attr in _ENGINE_CALLS:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"synchronous engine call .{func.attr}() "
                                f"in coroutine {fn.name!r}; route it "
                                f"through the executor bridge "
                                f"(run_in_executor) and await the future"
                            ),
                        )
                    )
        return findings
