"""Rule ``accounting``: every counter a class keeps must be reported.

The bench harness and the paper-reproduction tables are only as honest as
the counter plumbing: a counter that is incremented but never surfaced in
``to_dict()`` / ``stats()`` / ``summary()`` silently drops a column from
every saved report, and an identity over it (such as
``ServeStats.accounting_ok()``) can then only be checked on the raw
fields.

The check is structural: for every class that defines at least one
reporting method (``to_dict``, ``stats`` or ``summary``), every *public
counter field* — a dataclass field with a numeric ``0`` / ``0.0`` default
or a plain ``self.name = 0`` init — must be referenced somewhere in the
reporting methods or the class's property bodies (counters folded into a
derived property that is itself reported count as surfaced, because the
property body names them).
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Finding, Project, Rule

__all__ = ["AccountingRule"]

_REPORTING_METHODS = frozenset({"to_dict", "stats", "summary"})


def _is_zero_literal(node: ast.expr | None) -> bool:
    """``0`` or ``0.0`` (but not ``False``)."""
    return (
        isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value == 0
    )


def _counter_fields(cls: ast.ClassDef) -> dict[str, int]:
    """Public counter fields of ``cls``: name -> definition line."""
    out: dict[str, int] = {}
    for node in cls.body:
        # Dataclass style: ``name: int = 0``.
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and not node.target.id.startswith("_")
            and _is_zero_literal(node.value)
        ):
            out[node.target.id] = node.lineno
        # Plain-class style: ``self.name = 0`` in __init__.
        elif (
            isinstance(node, ast.FunctionDef)
            and node.name == "__init__"
        ):
            for stmt in ast.walk(node):
                if not (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                ):
                    continue
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and not target.attr.startswith("_")
                    and _is_zero_literal(stmt.value)
                ):
                    out[target.attr] = stmt.lineno
    return out


def _is_property(fn: ast.FunctionDef) -> bool:
    for dec in fn.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else (
            dec.id if isinstance(dec, ast.Name) else None
        )
        if name in ("property", "cached_property"):
            return True
    return False


def _reported_names(cls: ast.ClassDef) -> set[str]:
    """Every attribute / string-key name the class's reporting surface
    mentions: ``to_dict``/``stats``/``summary``, property bodies, and —
    transitively — any same-class helper method those reference (a
    ``stats()`` that merges in ``self.cluster_stats()`` reports whatever
    the helper reports)."""
    methods = {
        node.name: node
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    names: set[str] = set()
    queue = [
        name
        for name, fn in methods.items()
        if name in _REPORTING_METHODS or _is_property(fn)
    ]
    scanned: set[str] = set()
    while queue:
        name = queue.pop()
        if name in scanned:
            continue
        scanned.add(name)
        for sub in ast.walk(methods[name]):
            if isinstance(sub, ast.Attribute):
                names.add(sub.attr)
                if sub.attr in methods:
                    queue.append(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(
                sub.value, str
            ):
                names.add(sub.value)
    return names


class AccountingRule(Rule):
    id = "accounting"
    name = "every counter field reaches to_dict/stats/summary"
    doc = (
        "For classes that define to_dict()/stats()/summary(): every "
        "public field initialized to 0/0.0 (dataclass default or "
        "self.x = 0 in __init__) must be referenced in a reporting "
        "method or a property body — counters that can increment but "
        "never surface drop columns from saved reports."
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                method_names = {
                    item.name
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
                if not (method_names & _REPORTING_METHODS):
                    continue
                reported = _reported_names(node)
                for field_name, lineno in sorted(
                    _counter_fields(node).items()
                ):
                    if field_name not in reported:
                        findings.append(
                            Finding(
                                self.id,
                                module.path,
                                lineno,
                                f"counter {node.name}.{field_name} never "
                                f"reaches to_dict/stats/summary or a "
                                f"property; it accumulates invisibly and "
                                f"drops a column from saved reports",
                            )
                        )
        return findings
