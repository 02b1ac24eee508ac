"""Static analysis for the SPMD contract (``repro lint``).

Submodules:

* :mod:`repro.analyze.findings` — the finding model: severities,
  fingerprints, inline suppressions, JSON output.
* :mod:`repro.analyze.rules` — the six AST rules (rank-branch
  collectives, unharvested requests, NB-ring depth, missing timeouts,
  abort swallowing, nondeterminism).
* :mod:`repro.analyze.engine` — the lint driver (file walking,
  suppression application, meta-findings).
* :mod:`repro.analyze.schedule` — the collective-schedule model and the
  per-mode static extraction the trace cross-check tests consume.
"""

from repro.analyze.engine import LintResult, lint_paths, lint_source
from repro.analyze.findings import (
    Finding,
    Severity,
    findings_to_json,
)
from repro.analyze.rules import RULES, AnalyzerConfig, rule_ids
from repro.analyze.schedule import (
    FAMILIES,
    MODES,
    ScheduleParams,
    expected_schedule,
    static_alphabet,
)

__all__ = [
    "LintResult",
    "lint_paths",
    "lint_source",
    "Finding",
    "Severity",
    "findings_to_json",
    "RULES",
    "AnalyzerConfig",
    "rule_ids",
    "FAMILIES",
    "MODES",
    "ScheduleParams",
    "expected_schedule",
    "static_alphabet",
]
