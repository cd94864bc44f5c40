"""Rule ``shared-state``: no unprotected read/write-shared mutables.

The router serves reads on its callers' threads while routed writes
from other threads mutate shard state — so anything reachable from
**both** the read path (``topk``/``topk_batch``/``_fan_out`` and
executor-submitted callables) and the write path (``insert``/``delete``)
of the ``cluster/`` tier is shared across threads. This rule generalizes
``fork-safety`` from picklability to *mutation*: a shared structure is a
finding unless the analysis can prove a common lock, or the code
declares single-ownership.

Concretely, for every class defined under ``cluster/`` and every
instance attribute of it:

* collect the attribute's **mutation sites** in write-path-reachable
  methods and its **access sites** (reads and mutations) in
  read-path-reachable methods, each with the set of declared locks held
  (entry-held ∪ lexically held, per reachable entry state);
* if both sides are non-empty, the **lockset intersection** over all
  sites must be non-empty (Eraser-style): some one lock is held at
  every touch. An empty intersection is a finding — unless the
  attribute (or its whole class) carries
  ``# repro: thread-owned[name] -- justification`` or the finding is
  suppressed with ``# repro: allow[shared-state] -- why``.

Attributes only ever assigned in ``__init__`` are immutable in this
analysis (construction happens-before publication; ``__init__`` is not
reachable from either path), so plain configuration never fires.

Module-level names of ``cluster/`` modules get the symmetric check: a
name mutated on one path and touched on the other with an empty common
lockset is a finding (bare-name rebinding counts only under an explicit
``global`` declaration).

Scope of the *reachability* walk is the full concurrency surface
(``cluster/`` + engine + mutated core modules) so call chains through
the engine are followed; only ``cluster/``-defined state is reported
here (the core-module state is covered by ``lock-discipline``).
"""

from __future__ import annotations

from repro.analysis.callgraph import Access, CallGraph, FunctionNode, Mutation
from repro.analysis.framework import Finding, Project, Rule
from repro.analysis.rules.lock_discipline import (
    CONCURRENCY_SCOPE,
    collect_thread_owned,
    is_owned,
)

__all__ = ["SharedStateRule"]

#: Method names that begin the concurrent read path.
READ_ROOTS = ("topk", "topk_batch", "_fan_out")
#: Method names that begin the routed write path.
WRITE_ROOTS = ("insert", "delete")


class SharedStateRule(Rule):
    id = "shared-state"
    name = "read/write-shared cluster state is locked or owned"
    doc = (
        "Instance attributes and module-level names of cluster/ that "
        "are mutated on the write path (insert/delete) and touched on "
        "the read fan-out path (topk/topk_batch and submitted "
        "callables) must share a common declared lock across every "
        "site, be immutable, be declared thread-owned, or carry a "
        "justified suppression."
    )

    scope = CONCURRENCY_SCOPE

    def check(self, project: Project) -> list[Finding]:
        graph = CallGraph(project, self.scope)
        # Marker hygiene findings are lock-discipline's job; here the
        # markers only grant exemptions.
        owners, _ = collect_thread_owned(graph, self.id)

        read_roots = graph.thread_roots(READ_ROOTS)
        write_roots = [
            fn.qual
            for fn in graph.functions.values()
            if fn.name in WRITE_ROOTS
            and fn.cls is not None
            and "cluster/" in fn.path
        ]
        read_states = graph.propagate(read_roots)
        write_states = graph.propagate(write_roots)

        findings = self._check_instance_attrs(
            graph, owners, read_states, write_states
        )
        findings.extend(
            self._check_module_globals(graph, read_states, write_states)
        )
        return findings

    # -- instance attributes ---------------------------------------------------

    def _check_instance_attrs(
        self,
        graph: CallGraph,
        owners: dict[tuple[str, str], set[str] | None],
        read_states: dict[str, set[frozenset[str]]],
        write_states: dict[str, set[frozenset[str]]],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for cls_qual in sorted(graph.classes):
            cls = graph.classes[cls_qual]
            if "cluster/" not in cls.path:
                continue
            for attr in sorted(cls.attrs - cls.locks):
                if is_owned(owners, cls.path, cls.name, attr):
                    continue
                write_sites = _sites(
                    cls.methods.values(), attr, write_states, writes=True
                )
                read_sites = _sites(
                    cls.methods.values(), attr, read_states, writes=False
                )
                if not write_sites or not read_sites:
                    continue
                locksets = [
                    entry | held
                    for _line, held, entries in write_sites + read_sites
                    for entry in entries
                ]
                if locksets and frozenset.intersection(*locksets):
                    continue
                line, _held, _entries = write_sites[0]
                findings.append(
                    Finding(
                        self.id,
                        cls.path,
                        line,
                        f"attribute {attr!r} of {cls.name} is mutated on "
                        f"the write path and touched on the read fan-out "
                        f"path with no lock common to every site; guard "
                        f"both sides with one declared lock or declare "
                        f"'# repro: thread-owned[{attr}] -- <why>'",
                    )
                )
        return findings

    # -- module-level names ----------------------------------------------------

    def _check_module_globals(
        self,
        graph: CallGraph,
        read_states: dict[str, set[frozenset[str]]],
        write_states: dict[str, set[frozenset[str]]],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for path in sorted(graph.module_globals):
            if "cluster/" not in path:
                continue
            fns = [f for f in graph.functions.values() if f.path == path]
            for name in sorted(graph.module_globals[path]):
                r_mut = _global_sites(fns, name, read_states, writes=True)
                w_mut = _global_sites(fns, name, write_states, writes=True)
                r_acc = _global_sites(fns, name, read_states, writes=False)
                w_acc = _global_sites(fns, name, write_states, writes=False)
                if not ((w_mut and r_acc) or (r_mut and w_acc)):
                    continue
                involved = w_mut + r_mut + r_acc + w_acc
                locksets = [
                    entry | held
                    for _line, held, entries in involved
                    for entry in entries
                ]
                if locksets and frozenset.intersection(*locksets):
                    continue
                site = (w_mut or r_mut)[0]
                findings.append(
                    Finding(
                        self.id,
                        path,
                        site[0],
                        f"module-level name {name!r} is mutated on one "
                        f"concurrent path and touched on the other with "
                        f"no common lock; make it immutable, guard it, "
                        f"or justify it with a suppression",
                    )
                )
        return findings


def _sites(
    methods,
    attr: str,
    states: dict[str, set[frozenset[str]]],
    writes: bool,
) -> list[tuple[int, frozenset[str], set[frozenset[str]]]]:
    """``(line, lexically_held, entry_states)`` for every touch of
    ``attr`` in a reachable method — mutations only when ``writes``,
    mutations *and* reads otherwise."""
    out = []
    for fn in methods:
        entries = states.get(fn.qual)
        if not entries:
            continue
        touches: list[Mutation | Access] = list(fn.mutations)
        if not writes:
            touches += fn.self_reads
        for t in touches:
            if t.attr == attr:
                out.append((t.line, t.held, entries))
    return out


def _global_sites(
    fns: list[FunctionNode],
    name: str,
    states: dict[str, set[frozenset[str]]],
    writes: bool,
) -> list[tuple[int, frozenset[str], set[frozenset[str]]]]:
    out = []
    for fn in fns:
        entries = states.get(fn.qual)
        if not entries:
            continue
        if writes:
            for m in fn.name_mutations:
                if m.attr != name:
                    continue
                if m.kind == "assign" and name not in fn.global_decls:
                    continue
                out.append((m.line, m.held, entries))
        else:
            for a in fn.name_reads:
                if a.attr == name:
                    out.append((a.line, a.held, entries))
    return out
