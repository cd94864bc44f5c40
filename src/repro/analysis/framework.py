"""The rule framework of ``repro.analysis``: findings, suppressions, projects.

A :class:`Rule` inspects a parsed :class:`Project` (a set of Python
modules, each an AST plus its raw source lines) and yields
:class:`Finding` objects. The framework — not the rules — handles
suppressions, output rendering and exit codes, so every rule stays a
pure AST walker.

Suppressions
------------

A finding is suppressed by a comment on the offending line, or on a
comment-only line directly above it::

    x == 0.0  # repro: allow[numeric-safety] -- exact tie detection is intentional

The justification after ``--`` is **required**: a suppression without one
is itself reported (rule id ``suppression``) — the point of the marker is
to leave the *reason* in the code, not just to silence the tool. In
``--strict`` mode, suppressions that match no finding are also reported
(rule id ``unused-suppression``), so stale markers cannot accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "Suppression",
    "Module",
    "Project",
    "Rule",
    "AnalysisResult",
    "run_rules",
    "render_text",
    "render_github",
]

#: The suppression marker: ``repro: allow[<rule-id>]`` in a comment, with
#: an optional ``-- justification`` tail (angle brackets here keep this
#: very comment from matching its own pattern).
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rule>[a-z0-9-]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One ``# repro: allow[...]`` marker."""

    rule: str
    path: str
    #: Line the marker is written on (1-based).
    line: int
    #: Justification text after ``--`` (empty string when missing).
    justification: str
    #: The code line the marker covers: its own line for a trailing
    #: comment, otherwise the first code line below the comment block.
    target: int = 0

    def covers(self, finding: Finding) -> bool:
        return (
            self.rule == finding.rule
            and self.path == finding.path
            and finding.line in (self.line, self.target)
        )


@dataclass
class Module:
    """One parsed source file."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        self._comments: dict[int, str] | None = None
        self._suppressions: list[Suppression] | None = None

    def line(self, lineno: int) -> str:
        """1-based source line (empty string out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def comments(self) -> dict[int, str]:
        """Real comment tokens by line, tokenized once and cached.

        Tokenizing (rather than regex-scanning raw lines) keeps markers
        quoted inside docstrings — e.g. documentation *about* the
        suppression syntax — from registering as live markers. The
        suppression scan and :meth:`marker_target` share this one table,
        so a file is tokenized at most once per run.
        """
        if self._comments is None:
            comment_lines: dict[int, str] = {}
            try:
                tokens = tokenize.generate_tokens(
                    io.StringIO(self.source).readline
                )
                for tok in tokens:
                    if tok.type == tokenize.COMMENT:
                        comment_lines[tok.start[0]] = tok.string
            except tokenize.TokenError:  # pragma: no cover - already parsed
                pass
            self._comments = comment_lines
        return self._comments

    def marker_target(self, line: int) -> int:
        """The code line a comment marker on ``line`` covers: its own
        line for a trailing comment, otherwise the first code line below
        the contiguous comment/blank block it belongs to."""
        comment_lines = self.comments()
        before = self.line(line)[: self.line(line).find("#")]
        if before.strip():
            return line
        target = line + 1
        while target <= len(self.lines) and (
            not self.line(target).strip()
            or target in comment_lines
            and not self.line(target)[: self.line(target).find("#")].strip()
        ):
            target += 1
        return target

    def suppressions(self) -> list[Suppression]:
        """All ``# repro: allow[...]`` markers in real comments (cached)."""
        if self._suppressions is None:
            out = []
            for i, text in sorted(self.comments().items()):
                m = _SUPPRESS_RE.search(text)
                if m is None:
                    continue
                out.append(
                    Suppression(
                        rule=m.group("rule"),
                        path=self.path,
                        line=i,
                        justification=(m.group("why") or "").strip(),
                        target=self.marker_target(i),
                    )
                )
            self._suppressions = out
        return self._suppressions


class Project:
    """The analyzed file set: parsed modules keyed by repo-relative path."""

    def __init__(self, root: Path, modules: dict[str, Module]) -> None:
        self.root = root
        self.modules = modules

    @classmethod
    def load(cls, root: Path, paths: Iterable[Path]) -> "Project":
        """Parse every ``.py`` file under ``paths`` (files or directories).

        Files that fail to parse are surfaced as ``parse-error`` findings
        by :func:`run_rules` rather than aborting the whole run.
        """
        root = root.resolve()
        modules: dict[str, Module] = {}
        errors: list[tuple[str, str]] = []
        seen: set[Path] = set()
        for path in paths:
            path = Path(path)
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for f in files:
                if "__pycache__" in f.parts:
                    continue
                resolved = f.resolve()
                if resolved in seen:
                    # Overlapping path arguments (``src src/repro``) must
                    # not parse — or report on — the same file twice.
                    continue
                seen.add(resolved)
                rel = _relpath(f, root)
                try:
                    source = f.read_text(encoding="utf-8")
                    tree = ast.parse(source, filename=str(f))
                except (SyntaxError, UnicodeDecodeError) as exc:
                    errors.append((rel, str(exc)))
                    continue
                modules[rel] = Module(path=rel, source=source, tree=tree)
        project = cls(root, modules)
        project._parse_errors = errors
        return project

    _parse_errors: list[tuple[str, str]] = []

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules.values())


def _relpath(f: Path, root: Path) -> str:
    try:
        return f.resolve().relative_to(root).as_posix()
    except ValueError:
        return f.as_posix()


class Rule:
    """Base class: subclasses set ``id``/``name``/``doc`` and implement
    :meth:`check`."""

    id = "abstract"
    name = "abstract rule"
    #: One-paragraph catalogue entry (shown by ``--list-rules``).
    doc = ""

    def check(self, project: Project) -> list[Finding]:
        raise NotImplementedError


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: list[Finding]
    suppressed: list[tuple[Finding, Suppression]]
    checked_files: int
    rules_run: list[str]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def run_rules(
    project: Project, rules: Iterable[Rule], strict: bool = False
) -> AnalysisResult:
    """Run ``rules`` over ``project`` and fold in suppression handling."""
    raw: list[Finding] = [
        Finding("parse-error", path, 1, f"file does not parse: {msg}")
        for path, msg in project._parse_errors
    ]
    rules = list(rules)
    for rule in rules:
        raw.extend(rule.check(project))

    suppressions: list[Suppression] = []
    for module in project:
        suppressions.extend(module.suppressions())

    active: list[Finding] = []
    suppressed: list[tuple[Finding, Suppression]] = []
    used: set[Suppression] = set()
    for finding in raw:
        marker = next((s for s in suppressions if s.covers(finding)), None)
        if marker is None:
            active.append(finding)
            continue
        used.add(marker)
        if not marker.justification:
            active.append(
                Finding(
                    rule="suppression",
                    path=marker.path,
                    line=marker.line,
                    message=(
                        f"suppression of [{finding.rule}] lacks a "
                        f"justification; write "
                        f"'# repro: allow[{finding.rule}] -- <why>'"
                    ),
                )
            )
        else:
            suppressed.append((finding, marker))
    if strict:
        for marker in suppressions:
            if marker not in used:
                active.append(
                    Finding(
                        rule="unused-suppression",
                        path=marker.path,
                        line=marker.line,
                        message=(
                            f"suppression of [{marker.rule}] matches no "
                            f"finding; remove the stale marker"
                        ),
                    )
                )

    active.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisResult(
        findings=active,
        suppressed=suppressed,
        checked_files=len(project.modules),
        rules_run=[r.id for r in rules],
    )


def render_text(result: AnalysisResult, stream=sys.stdout) -> None:
    for finding in result.findings:
        print(finding.render(), file=stream)
    n = len(result.findings)
    print(
        f"repro.analysis: {n} finding{'s' if n != 1 else ''} "
        f"({len(result.suppressed)} suppressed) across "
        f"{result.checked_files} files "
        f"[rules: {', '.join(result.rules_run)}]",
        file=stream,
    )


def render_github(result: AnalysisResult, stream=sys.stdout) -> None:
    """GitHub Actions workflow commands: one ``::error`` annotation per
    finding, so PRs show findings inline at the offending line."""
    for f in result.findings:
        # Workflow-command syntax: property values escape ',' ':' '%';
        # the message escapes '%' and newlines.
        message = (
            f.message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )
        print(
            f"::error file={f.path},line={f.line},"
            f"title=repro.analysis[{f.rule}]::{message}",
            file=stream,
        )
    n = len(result.findings)
    print(
        f"repro.analysis: {n} finding{'s' if n != 1 else ''} "
        f"({len(result.suppressed)} suppressed) across "
        f"{result.checked_files} files",
        file=stream,
    )
