"""Lint driver: walk files, run rules, apply suppressions.

The pipeline per file is::

    parse -> run every rule -> attach inline suppressions -> meta-findings

then across the whole run::

    sort -> report

Meta-findings keep the escape hatches honest:

* ``invalid-suppression`` — a ``lint-ignore`` comment with an unknown
  rule id, or without the required ``-- justification`` string.
* ``unused-suppression`` — a ``lint-ignore`` that matched nothing, so
  it is stale and must be deleted (otherwise suppressions rot into
  blanket immunity).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.analyze.findings import (
    SEVERITY_ORDER,
    Finding,
    Severity,
    parse_suppressions,
    suppression_targets,
)
from repro.analyze.rules import RULES, AnalyzerConfig, RuleContext, rule_ids

__all__ = ["LintResult", "lint_source", "lint_paths", "iter_python_files"]

#: meta-rules emitted by the engine itself (valid suppression targets
#: only so far as `invalid-suppression` goes — you cannot suppress it)
META_RULES = ("invalid-suppression", "unused-suppression", "parse-error")


@dataclass
class LintResult:
    findings: list[Finding] = field(default_factory=list)
    #: files analyzed (relative, as passed)
    paths: list[str] = field(default_factory=list)

    @property
    def actionable(self) -> list[Finding]:
        return [f for f in self.findings if f.actionable]

    @property
    def exit_code(self) -> int:
        return 1 if self.actionable else 0


def _known_rules() -> set[str]:
    return set(rule_ids()) | set(META_RULES)


def lint_source(
    path: str, source: str, config: AnalyzerConfig | None = None
) -> list[Finding]:
    """Lint one file's source text. Returns all findings (suppressed
    ones included, flagged)."""
    config = config or AnalyzerConfig()
    source_lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="parse-error",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"cannot parse: {exc.msg}",
            )
        ]

    ctx = RuleContext(
        path=path, tree=tree, source_lines=source_lines, config=config
    )
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule.check(ctx))

    suppressions = parse_suppressions(source)
    known = _known_rules()
    # line -> suppressions covering it
    by_target: dict[int, list] = {}
    for sup in suppressions:
        by_target.setdefault(
            suppression_targets(sup, source_lines), []
        ).append(sup)

    for f in findings:
        for sup in by_target.get(f.line, []):
            if not sup.matches(f.rule):
                continue
            if not sup.justification:
                continue  # justification required; invalid-suppression below
            sup.used = True
            f.suppressed = True
            f.justification = sup.justification
            break

    for sup in suppressions:
        unknown = [r for r in sup.rules if r != "*" and r not in known]
        if unknown:
            findings.append(
                Finding(
                    rule="invalid-suppression",
                    severity=Severity.ERROR,
                    path=path,
                    line=sup.line,
                    col=1,
                    message=(
                        f"lint-ignore names unknown rule(s) "
                        f"{', '.join(sorted(unknown))}; known: "
                        f"{', '.join(sorted(rule_ids()))}"
                    ),
                    snippet=_line(source_lines, sup.line),
                )
            )
        if not sup.justification:
            findings.append(
                Finding(
                    rule="invalid-suppression",
                    severity=Severity.ERROR,
                    path=path,
                    line=sup.line,
                    col=1,
                    message=(
                        "lint-ignore requires a justification: "
                        "`# repro: lint-ignore[<rule>] -- why this is safe`"
                    ),
                    snippet=_line(source_lines, sup.line),
                )
            )
        elif not sup.used and not unknown:
            findings.append(
                Finding(
                    rule="unused-suppression",
                    severity=Severity.WARNING,
                    path=path,
                    line=sup.line,
                    col=1,
                    message=(
                        f"lint-ignore[{', '.join(sup.rules)}] matched no "
                        f"finding; delete the stale suppression"
                    ),
                    snippet=_line(source_lines, sup.line),
                )
            )
    return findings


def _line(source_lines: list[str], lineno: int) -> str:
    if 1 <= lineno <= len(source_lines):
        return source_lines[lineno - 1].strip()
    return ""


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(
                    d
                    for d in dirs
                    if d not in ("__pycache__", ".git", ".ruff_cache")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif p.endswith(".py"):
            out.append(p)
    return sorted(dict.fromkeys(out))


def lint_paths(
    paths: list[str],
    config: AnalyzerConfig | None = None,
) -> LintResult:
    """Lint every python file under ``paths``."""
    config = config or AnalyzerConfig()
    files = iter_python_files(paths)
    result = LintResult(paths=files)
    for fp in files:
        with open(fp, "r", encoding="utf-8") as fh:
            source = fh.read()
        result.findings.extend(lint_source(fp, source, config))

    sev_rank = {s: i for i, s in enumerate(SEVERITY_ORDER)}
    result.findings.sort(
        key=lambda f: (f.path, f.line, f.col, sev_rank.get(f.severity, 9), f.rule)
    )
    return result
