"""Plain-text tables in the style of the paper's charts."""

from __future__ import annotations

import math
from typing import Any, Sequence

__all__ = ["format_table", "fmt"]


def fmt(value: Any) -> str:
    """Compact numeric formatting (scientific for extremes)."""
    if isinstance(value, float):
        if value == 0.0:  # repro: allow[numeric-safety] -- formatting: print exact zero as "0"
            return "0"
        if math.isnan(value):
            return "nan"
        # repro: allow[numeric-safety] -- display threshold for scientific
        # notation, not a numeric tolerance anything depends on
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""
    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
