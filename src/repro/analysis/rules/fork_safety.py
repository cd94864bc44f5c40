"""Rule ``fork-safety``: nothing unpicklable or shared-mutable crosses a fork.

:class:`~repro.cluster.backends.process.ProcessBackend` ships a
:class:`~repro.cluster.backends.base.ShardSpec` to a worker process —
under ``spawn`` that means *pickling* it, and under ``fork`` every piece
of module-level state in the parent is silently duplicated into each
worker. Concurrent callers of the router run on threads, so the same
module-level state is *shared* among them instead. Both failure modes are
structural, so both are checked statically, over the fan-out-reachable
modules (``cluster/``, ``engine/``, and the core modules the shard
engine touches):

1. **Unpicklable payloads into ``ShardSpec``** — a ``lambda`` or a
   locally-defined function passed as a ``ShardSpec(...)`` argument
   pickles under ``spawn`` only by accident of never being exercised,
   then explodes the first time someone flips the start method. Scorers
   and configs must be module-level importable objects.

2. **Module-level mutable containers** — a plain ``dict``/``list``/
   ``set`` at module scope is shared across concurrent callers and
   duplicated-but-diverging across forked workers. Lookup tables must be
   immutable (``frozenset``, tuple, ``types.MappingProxyType``); genuine
   registries need an explicit suppression explaining why mutation is
   safe. Dunder names (``__all__``) are exempt — import machinery owns
   them.

3. **Module-level OS resources** — a ``threading.Lock()`` (child
   inherits it possibly *held*) or an ``open()`` handle (shared file
   offset across forks) created at import time.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Finding, Module, Project, Rule

__all__ = ["ForkSafetyRule"]

#: Calls that produce mutable containers when assigned at module level.
_MUTABLE_CALLS = frozenset({"dict", "list", "set", "defaultdict", "deque"})

#: Calls that produce OS-level resources unsafe to create at import time
#: in a fork-crossing module.
_RESOURCE_CALLS = frozenset({"Lock", "RLock", "Semaphore", "Condition", "open"})


def _is_mutable_literal(node: ast.expr) -> str | None:
    """A human label when ``node`` evidently builds a mutable container."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in _MUTABLE_CALLS:
            return name
    return None


def _resource_label(node: ast.expr) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in _RESOURCE_CALLS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _RESOURCE_CALLS:
        return func.attr
    return None


def _local_function_names(tree: ast.Module) -> set[str]:
    """Names of functions defined *inside* other functions (unpicklable)."""
    out: set[str] = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node is not top
                ):
                    out.add(node.name)
    return out


class ForkSafetyRule(Rule):
    id = "fork-safety"
    name = "no unpicklable or shared-mutable state across fork/thread fan-out"
    doc = (
        "In cluster/, engine/ and the shard-reachable core modules: no "
        "lambdas or nested functions passed into ShardSpec(...), no "
        "module-level mutable dict/list/set (wrap in MappingProxyType/"
        "frozenset/tuple or justify a registry), no module-level "
        "threading.Lock()/open() created at import time."
    )

    #: Path fragments of modules that cross the fork / thread boundary.
    scope = (
        "repro/cluster/",
        "repro/engine/",
        "repro/core/caching.py",
        "repro/core/region_index.py",
        "repro/core/kernels.py",
    )

    def _in_scope(self, module: Module) -> bool:
        return any(fragment in module.path for fragment in self.scope)

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            # ShardSpec payload checks apply everywhere (any module may
            # construct a spec); state checks only to fan-out modules.
            findings.extend(self._check_shardspec_payloads(module))
            if self._in_scope(module):
                findings.extend(self._check_module_state(module))
        return findings

    # -- ShardSpec construction ------------------------------------------------

    def _check_shardspec_payloads(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        local_fns = _local_function_names(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ShardSpec"
            ):
                continue
            payloads = list(node.args) + [kw.value for kw in node.keywords]
            for arg in payloads:
                if isinstance(arg, ast.Lambda):
                    findings.append(
                        Finding(
                            self.id,
                            module.path,
                            arg.lineno,
                            "lambda passed into ShardSpec(...); lambdas "
                            "don't pickle, so the spec cannot cross a "
                            "spawn-based process boundary",
                        )
                    )
                elif (
                    isinstance(arg, ast.Name)
                    and arg.id in local_fns
                ):
                    findings.append(
                        Finding(
                            self.id,
                            module.path,
                            arg.lineno,
                            f"locally-defined function {arg.id!r} passed "
                            f"into ShardSpec(...); nested functions don't "
                            f"pickle — use a module-level callable",
                        )
                    )
        return findings

    # -- module-level state ----------------------------------------------------

    def _check_module_state(self, module: Module) -> list[Finding]:
        findings: list[Finding] = []
        for node in module.tree.body:
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or all(n.startswith("__") for n in names):
                continue

            label = _is_mutable_literal(value)
            if label is not None:
                findings.append(
                    Finding(
                        self.id,
                        module.path,
                        node.lineno,
                        f"module-level mutable {label} {names[0]!r} in a "
                        f"fork/thread fan-out module; freeze it "
                        f"(MappingProxyType/frozenset/tuple) or justify "
                        f"the registry with a suppression",
                    )
                )
                continue

            resource = _resource_label(value)
            if resource is not None:
                findings.append(
                    Finding(
                        self.id,
                        module.path,
                        node.lineno,
                        f"module-level {resource}() {names[0]!r} created "
                        f"at import time; a forked child inherits it "
                        f"(possibly held/mid-write) — create it lazily "
                        f"per owner instead",
                    )
                )
        return findings
