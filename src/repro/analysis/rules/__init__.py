"""The rule catalogue of :mod:`repro.analysis`.

``ALL_RULES`` is the registry the CLI selects from; ordering here is the
ordering of ``--list-rules`` output and of ties in rendered findings.
"""

from __future__ import annotations

from repro.analysis.rules.accounting import AccountingRule
from repro.analysis.rules.async_safety import AsyncSafetyRule
from repro.analysis.rules.fork_safety import ForkSafetyRule
from repro.analysis.rules.numeric_safety import NumericSafetyRule
from repro.analysis.rules.span_discipline import SpanDisciplineRule
from repro.analysis.rules.wire_drift import WireDriftRule

__all__ = [
    "ALL_RULES",
    "NumericSafetyRule",
    "WireDriftRule",
    "ForkSafetyRule",
    "AccountingRule",
    "AsyncSafetyRule",
    "SpanDisciplineRule",
]

ALL_RULES = (
    NumericSafetyRule,
    WireDriftRule,
    ForkSafetyRule,
    AccountingRule,
    AsyncSafetyRule,
    SpanDisciplineRule,
)
