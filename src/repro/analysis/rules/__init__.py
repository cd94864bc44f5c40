"""The rule catalogue of :mod:`repro.analysis`.

``ALL_RULES`` is the registry the CLI runs; ordering here is the
ordering of ``--list-rules`` output and of ties in rendered findings.
"""

from __future__ import annotations

from repro.analysis.rules.async_safety import AsyncSafetyRule
from repro.analysis.rules.fork_safety import ForkSafetyRule
from repro.analysis.rules.numeric_safety import NumericSafetyRule
from repro.analysis.rules.span_discipline import SpanDisciplineRule

__all__ = [
    "ALL_RULES",
    "NumericSafetyRule",
    "ForkSafetyRule",
    "AsyncSafetyRule",
    "SpanDisciplineRule",
]

ALL_RULES = (
    NumericSafetyRule,
    ForkSafetyRule,
    AsyncSafetyRule,
    SpanDisciplineRule,
)
