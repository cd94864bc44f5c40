"""CLI entry point: ``python -m repro.analysis``.

Exit status is 0 when no findings survive suppression, 1 otherwise —
which is what makes the checker usable as a CI gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.framework import (
    Project,
    render_github,
    render_text,
    run_rules,
)
from repro.analysis.rules import ALL_RULES


def _default_target() -> Path:
    """``src/repro`` relative to the repo this package is installed from."""
    return Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant static checker for the GIR repro.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to check (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="output format: human text or GitHub Actions ::error annotations",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="additionally fail on suppressions that match no finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.id}: {cls.name}")
            print(f"    {cls.doc}")
        return 0

    paths = args.paths or [_default_target()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise SystemExit(
            f"repro.analysis: no such path: "
            f"{', '.join(str(p) for p in missing)}"
        )
    project = Project.load(Path.cwd(), paths)
    result = run_rules(project, [cls() for cls in ALL_RULES], strict=args.strict)
    render = render_github if args.format == "github" else render_text
    render(result)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
