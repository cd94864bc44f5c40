"""``repro.analysis`` — the project-invariant static checker.

Run it as a module::

    PYTHONPATH=src python -m repro.analysis [paths...] [--strict] [--json]

Six AST-walking rules enforce invariants this codebase actually relies
on (see each rule module's docstring for the full rationale):

``numeric-safety``
    no bare ``==``/``!=`` on floating-point expressions outside
    ``repro: bit-exact`` files; every ``1e-N`` tolerance lives in
    :mod:`repro.core.tolerances` under a documented name.
``wire-drift``
    every wire/page codec is symmetric (``encode_X`` ↔ ``decode_X``,
    same struct formats both sides) and the committed golden fingerprint
    fails if the byte layout changes without a version bump.
``fork-safety``
    nothing unpicklable goes into ``ShardSpec``; no module-level mutable
    containers or import-time OS resources in fork/thread fan-out
    modules.
``accounting``
    every counter field on a stats/report class reaches its
    ``to_dict``/``stats``/``summary`` surface.
``async-safety``
    ``serve/`` coroutines never block the event loop.
``span-discipline``
    trace spans are entered as context managers.

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
    render_json,
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
    "render_json",
    "render_text",
    "run_rules",
]
