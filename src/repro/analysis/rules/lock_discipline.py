"""Rule ``lock-discipline``: fan-out-reachable mutations hold a lock.

:class:`~repro.cluster.ShardedGIREngine` serves concurrent callers, and
every read reaches the shards through ``_fan_out`` — so every method
reachable from ``_fan_out`` / an executor-submitted callable can run on
one caller's thread while another's does something else. This rule
enforces the discipline that makes that safe:

1. **Guarded mutations** — any ``self.<attr>`` store (assignment,
   augmented assignment, subscript store, in-place mutator call like
   ``.append``) in a function reachable from a fan-out root must happen
   with at least one *declared lock* held — lexically (``with
   self.lock:``) or anywhere up the call chain (tracked
   interprocedurally, with the held set reset across ``submit``/
   ``Thread`` spawn edges, because the child thread starts bare).
   A declared lock is an instance attribute assigned from
   ``Lock()``/``RLock()``/``make_lock()``.

2. **Declared single-ownership** — structures that are genuinely
   confined to one thread at a time carry
   ``# repro: thread-owned[name] -- justification`` instead of a lock:
   on (or above) the ``class`` line, naming the class, it declares the
   whole instance single-owner; inside a class body, naming an
   attribute, it declares just that attribute. The justification is
   mandatory (a bare marker is a finding), and a marker naming no known
   class/attribute is a stale-marker finding.

3. **Consistent acquisition order** — locks are ranked by the order the
   code acquires them (``A`` held while taking ``B`` orders ``A`` before
   ``B``, over every interprocedural path); a cycle in that order graph
   is an ABBA deadlock candidate and is reported once per cycle.

The scope is the concurrency surface: ``cluster/`` plus the engine and
the core modules a shard engine mutates while serving
(``engine/engine.py``, ``core/caching.py``, ``core/region_index.py``).
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph, ClassNode
from repro.analysis.framework import Finding, Project, Rule

__all__ = ["LockDisciplineRule", "collect_thread_owned", "CONCURRENCY_SCOPE"]

#: Path fragments of the modules the concurrency rules analyze: the
#: cluster tier plus the engine/core modules its shard engines mutate
#: while serving. (Shared with ``shared-state``.)
CONCURRENCY_SCOPE = (
    "repro/cluster/",
    "repro/engine/engine.py",
    "repro/core/caching.py",
    "repro/core/region_index.py",
)

#: Method names that start a read fan-out in this codebase.
FAN_OUT_ROOTS = ("_fan_out",)


def collect_thread_owned(
    graph: CallGraph, rule_id: str
) -> tuple[dict[tuple[str, str], set[str] | None], list[Finding]]:
    """Resolve every ``# repro: thread-owned[...]`` marker in scope.

    Returns ``(owners, problems)``: ``owners`` maps ``(path, class)`` to
    the owned attribute names (``None`` = the whole class is owned);
    ``problems`` are hygiene findings — unjustified markers and markers
    naming no known class or attribute. Ownership is granted even to an
    unjustified marker (mirroring suppression semantics: the violation
    is the missing *reason*, reported once, not re-reported per use).
    """
    owners: dict[tuple[str, str], set[str] | None] = {}
    problems: list[Finding] = []

    def own_all(path: str, cls: str) -> None:
        owners[(path, cls)] = None

    def own_attr(path: str, cls: str, attr: str) -> None:
        current = owners.setdefault((path, cls), set())
        if current is not None:
            current.add(attr)

    for module in graph.modules:
        classes_here = [
            c for c in graph.classes.values() if c.path == module.path
        ]
        for marker in module.thread_owned():
            if not marker.justification:
                problems.append(
                    Finding(
                        rule_id,
                        module.path,
                        marker.line,
                        f"thread-owned[{marker.name}] marker lacks a "
                        f"justification; write '# repro: "
                        f"thread-owned[{marker.name}] -- <why this "
                        f"structure is single-owner>'",
                    )
                )
            cls = next(
                (
                    c
                    for c in classes_here
                    if c.node.lineno == marker.target
                    and c.name == marker.name
                ),
                None,
            )
            if cls is not None:
                own_all(module.path, cls.name)
                continue
            host = _innermost_class(classes_here, marker.target)
            if host is not None and marker.name == host.name:
                own_all(module.path, host.name)
            elif host is not None and (
                marker.name in host.attrs
                or marker.name in host.methods
                or marker.name in host.locks
            ):
                own_attr(module.path, host.name, marker.name)
            else:
                problems.append(
                    Finding(
                        rule_id,
                        module.path,
                        marker.line,
                        f"stale thread-owned[{marker.name}] marker: "
                        f"names no class on this line and no attribute "
                        f"of the enclosing class",
                    )
                )
    return owners, problems


def _innermost_class(
    classes: list[ClassNode], line: int
) -> ClassNode | None:
    containing = [
        c
        for c in classes
        if c.node.lineno <= line <= (c.node.end_lineno or c.node.lineno)
    ]
    if not containing:
        return None
    return max(containing, key=lambda c: c.node.lineno)


def is_owned(
    owners: dict[tuple[str, str], set[str] | None],
    path: str,
    cls: str | None,
    attr: str,
) -> bool:
    if cls is None:
        return False
    entry = owners.get((path, cls))
    if entry is None and (path, cls) in owners:
        return True
    return entry is not None and attr in entry


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    name = "fan-out-reachable mutations hold a declared lock"
    doc = (
        "Any attribute mutated from a method reachable from _fan_out "
        "or an executor-submitted callable must run with "
        "a declared lock held (lexically or up the call chain) or be "
        "declared '# repro: thread-owned[name] -- why'; lock "
        "acquisition order must be acyclic across all paths (no ABBA)."
    )

    scope = CONCURRENCY_SCOPE

    def check(self, project: Project) -> list[Finding]:
        graph = CallGraph(project, self.scope)
        owners, findings = collect_thread_owned(graph, self.id)

        roots = graph.thread_roots(FAN_OUT_ROOTS)
        states = graph.propagate(roots)
        for qual in sorted(states):
            fn = graph.functions[qual]
            if fn.cls is None:
                continue
            held_sets = states[qual]
            for mut in fn.mutations:
                if is_owned(owners, fn.path, fn.cls, mut.attr):
                    continue
                cls = graph.class_of(fn)
                if cls is not None and mut.attr in cls.locks:
                    continue
                if any(not (entry | mut.held) for entry in held_sets):
                    findings.append(
                        Finding(
                            self.id,
                            fn.path,
                            mut.line,
                            f"attribute {mut.attr!r} of {fn.cls} is "
                            f"mutated on a thread-fan-out-reachable path "
                            f"(via {fn.name!r}) with no declared lock "
                            f"held; wrap the mutation in 'with "
                            f"self.<lock>:' or declare '# repro: "
                            f"thread-owned[{mut.attr}] -- <why>'",
                        )
                    )
        findings.extend(self._check_lock_order(graph))
        return findings

    # -- ABBA ------------------------------------------------------------------

    def _check_lock_order(self, graph: CallGraph) -> list[Finding]:
        edges = graph.lock_order_edges()
        succ: dict[str, set[str]] = {}
        for a, b in edges:
            succ.setdefault(a, set()).add(b)

        findings: list[Finding] = []
        reported: set[frozenset[str]] = set()
        for start in sorted(succ):
            cycle = _find_cycle(succ, start)
            if cycle is None:
                continue
            key = frozenset(cycle)
            if key in reported:
                continue
            reported.add(key)
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            sites = "; ".join(
                f"{a}->{b} at {edges[(a, b)][0]}:{edges[(a, b)][1]}"
                for a, b in pairs
                if (a, b) in edges
            )
            path, line = edges[pairs[0]]
            findings.append(
                Finding(
                    self.id,
                    path,
                    line,
                    f"inconsistent lock acquisition order (ABBA deadlock "
                    f"candidate): {' -> '.join(cycle + [cycle[0]])} "
                    f"({sites}); pick one global order and stick to it",
                )
            )
        return findings


def _find_cycle(
    succ: dict[str, set[str]], start: str
) -> list[str] | None:
    """First cycle through ``start`` (DFS), as a node list, or None."""
    stack: list[tuple[str, list[str]]] = [(start, [start])]
    seen: set[str] = set()
    while stack:
        node, trail = stack.pop()
        for nxt in sorted(succ.get(node, ())):
            if nxt == start:
                return trail
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, trail + [nxt]))
    return None
