"""Finding model for the SPMD static analyzer.

A :class:`Finding` is one rule violation at one source location. The
engine (:mod:`repro.analyze.engine`) decides whether it is *actionable*
(fails the lint gate) or *suppressed* (an inline
``# repro: lint-ignore[<rule>] -- justification`` comment).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

__all__ = [
    "Severity",
    "SEVERITY_ORDER",
    "Finding",
    "Suppression",
    "parse_suppressions",
    "findings_to_json",
]

#: severity levels, most severe first
SEVERITY_ORDER = ("error", "warning", "info")


class Severity:
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: the stripped source line the finding anchors to (fingerprint input)
    snippet: str = ""
    #: set by the engine when an inline suppression matched
    suppressed: bool = False
    justification: str = ""

    @property
    def actionable(self) -> bool:
        """True when this finding fails the gate."""
        return not self.suppressed

    @property
    def fingerprint(self) -> str:
        """Stable identity: rule + path + line *content*.

        Line numbers are deliberately excluded so the identity survives
        unrelated edits above the finding.
        """
        basis = f"{self.rule}|{self.path}|{' '.join(self.snippet.split())}"
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }

    def format(self) -> str:
        flag = " [suppressed]" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule}]{flag} {self.message}"
        )


# -- inline suppressions ----------------------------------------------------

#: ``# repro: lint-ignore[<rule-a>, <rule-b>] -- justification``
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ignore\[([A-Za-z0-9_*,\- ]+)\]\s*(?:--\s*(\S.*))?\s*$"
)


@dataclass
class Suppression:
    """One inline lint-ignore comment."""

    line: int
    rules: tuple[str, ...]
    justification: str
    #: True when the comment stands on its own line (applies to the next
    #: source line); False when trailing code (applies to its own line)
    standalone: bool
    used: bool = field(default=False)

    def matches(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract every lint-ignore comment from ``source``.

    A trailing comment suppresses findings on its own line; a standalone
    comment suppresses findings on the next non-blank line.
    """
    out: list[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), 1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        rules = tuple(
            r.strip() for r in m.group(1).split(",") if r.strip()
        )
        justification = (m.group(2) or "").strip()
        standalone = text[: m.start()].strip() == ""
        out.append(Suppression(lineno, rules, justification, standalone))
    return out


def suppression_targets(sup: Suppression, source_lines: list[str]) -> int:
    """The source line a suppression applies to."""
    if not sup.standalone:
        return sup.line
    # standalone: next non-blank, non-comment line
    for off, text in enumerate(source_lines[sup.line:], sup.line + 1):
        stripped = text.strip()
        if stripped and not stripped.startswith("#"):
            return off
    return sup.line


def findings_to_json(findings: list[Finding], *, paths: list[str]) -> dict:
    """Machine-readable lint report (the ``--format json`` payload)."""
    sev = {s: 0 for s in SEVERITY_ORDER}
    by_rule: dict[str, int] = {}
    actionable = [f for f in findings if f.actionable]
    for f in actionable:
        sev[f.severity] += 1
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return {
        "version": 2,
        "kind": "lint-report",
        "paths": list(paths),
        "counts": {
            "total": len(findings),
            "actionable": len(actionable),
            "suppressed": sum(1 for f in findings if f.suppressed),
            "by_severity": sev,
            "by_rule": dict(sorted(by_rule.items())),
        },
        "findings": [f.to_dict() for f in findings],
    }
