"""``repro.analysis`` — the project-invariant static checker.

Run it as a module::

    PYTHONPATH=src python -m repro.analysis [paths...] [--strict] [--format github]

Four AST-walking rules enforce invariants this codebase relies on and
no test would notice breaking (see each rule module's docstring for the
full rationale):

``numeric-safety``
    no bare ``==``/``!=`` on floating-point expressions outside
    ``repro: bit-exact`` files; every ``1e-N`` tolerance lives in
    :mod:`repro.core.tolerances` under a documented name.
``fork-safety``
    nothing unpicklable goes into ``ShardSpec``; no module-level mutable
    containers or import-time OS resources in fork/thread fan-out
    modules.
``async-safety``
    ``serve/`` coroutines never block the event loop.
``span-discipline``
    trace spans are entered as context managers.

The byte layouts are pinned by tests, not by a rule:
``tests/test_wire.py::TestFrameIdentity`` hashes one frame of every
shard-wire message type and ``tests/test_rtree.py::TestTreeIdentity``
hashes every R*-tree page. That every counter reaches its report is
checked on live objects in ``tests/test_obs.py``.

Findings are suppressed per line with ``# repro: allow[rule-id] -- why``;
the justification is mandatory and ``--strict`` additionally rejects
stale suppressions.
"""

from __future__ import annotations

from repro.analysis.framework import (
    AnalysisResult,
    Finding,
    Module,
    Project,
    Rule,
    Suppression,
    render_text,
    run_rules,
)
from repro.analysis.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "Finding",
    "Module",
    "Project",
    "Rule",
    "Suppression",
    "render_text",
    "run_rules",
]
