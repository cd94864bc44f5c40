"""Rule ``span-discipline``: trace spans are entered as context managers.

A span that is opened but never closed poisons the whole trace: the
collector's enter/exit accounting goes permanently unbalanced, the
tracing tests (which assert ``balanced``) fail, and — worse —
every later span in the same task silently parents under the leaked
span, so timelines nest wrongly without any functional symptom. The
:mod:`repro.obs` API makes the safe form the easy one (``with
obs.span(...)``), and this rule pins it statically: a call to ``span`` /
``trace`` / ``use_trace`` (through any import alias) must appear
directly as a ``with`` (or ``async with``) context expression, or as
the direct argument of an ``ExitStack``-style ``.enter_context(...)``
call, whose stack closes it exception-safely. Assigning the span to a
variable first, or calling ``__enter__`` by hand, is a finding. The
sanctioned low-level form is ``record_span`` — atomic, nothing to leak.

The ``repro/obs/`` package itself is exempt (it implements the
primitives this rule polices).
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Finding, Module, Project, Rule

__all__ = ["SpanDisciplineRule"]

#: Span-constructor functions that must be entered via ``with`` /
#: ``enter_context``.
_SPAN_FNS = frozenset({"span", "trace", "use_trace"})

#: Module paths of the tracer implementation (every import spelling).
_OBS_MODULES = frozenset({"repro.obs", "repro.obs.trace"})


def _import_aliases(tree: ast.AST) -> tuple[set[str], dict[str, str]]:
    """``(module_aliases, fn_aliases)`` bound to the tracer in a module:
    names referring to the ``repro.obs`` module itself, and local names
    referring to its span functions (mapped to the original name)."""
    modules: set[str] = set()
    fns: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _OBS_MODULES:
                    modules.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro":
                for alias in node.names:
                    if alias.name == "obs":
                        modules.add(alias.asname or "obs")
            elif node.module in _OBS_MODULES:
                for alias in node.names:
                    if alias.name in _SPAN_FNS:
                        fns[alias.asname or alias.name] = alias.name
    return modules, fns


def _span_call_name(
    call: ast.Call, modules: set[str], fns: dict[str, str]
) -> str | None:
    """The tracer function a Call invokes (``"span"``/``"trace"``/...),
    or ``None`` if the call is not a tracer call at all."""
    func = call.func
    if isinstance(func, ast.Name):
        return fns.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in modules and func.attr in _SPAN_FNS:
            return func.attr
    return None


def _sanctioned_calls(tree: ast.AST) -> set[int]:
    """Ids of Call nodes in sanctioned positions: direct ``with``-item
    context expressions, and direct arguments of ``.enter_context``."""
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    allowed.add(id(item.context_expr))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "enter_context":
                for arg in node.args:
                    if isinstance(arg, ast.Call):
                        allowed.add(id(arg))
    return allowed


class SpanDisciplineRule(Rule):
    id = "span-discipline"
    name = "trace spans are entered as context managers"
    doc = (
        "Outside repro/obs/: every span()/trace()/use_trace() call is a "
        "with-item context expression or a direct .enter_context(...) "
        "argument, so spans close exception-safely and the collector "
        "stays balanced."
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            if "obs/" in module.path:
                continue
            findings.extend(self._check_module(module))
        return findings

    def _check_module(self, module: Module) -> list[Finding]:
        modules, fns = _import_aliases(module.tree)
        if not modules and not fns:
            return []
        allowed = _sanctioned_calls(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _span_call_name(node, modules, fns)
            if name is not None and id(node) not in allowed:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"{name}() is not entered as a context "
                            f"manager — use it directly as a with-item "
                            f"(or pass it to ExitStack.enter_context) so "
                            f"the span closes exception-safely"
                        ),
                    )
                )
        return findings
