"""Rule-level tests for the SPMD static analyzer (`repro lint`).

Each rule gets a paired good/bad fixture under ``tests/analyze_fixtures``:
the bad file must trip the rule, the good twin must be silent. On top of
that: suppression semantics (justification required, unused flagged),
the JSON report shape, the CLI entry point, and the self-check that the
repo's own ``src/`` tree lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze import (
    AnalyzerConfig,
    findings_to_json,
    lint_paths,
    lint_source,
    rule_ids,
)
from repro.analyze.engine import iter_python_files

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analyze_fixtures"

#: fixture stem -> (rule id, fake path template). Rules scoped to runtime
#: or determinism paths get a fake path inside ``repro/solvers/`` so the
#: scope check passes; the rest use a neutral path.
_CASES = {
    "rank_branch": ("collective-in-rank-branch", "repro/fixtures/{}.py"),
    "unharvested": ("unharvested-request", "repro/fixtures/{}.py"),
    "nb_ring": ("nb-ring-depth", "repro/fixtures/{}.py"),
    "timeout": ("collective-without-timeout", "repro/solvers/{}.py"),
    "abort_swallow": ("abort-swallow", "repro/fixtures/{}.py"),
    "nondeterminism": ("nondeterminism", "repro/solvers/{}.py"),
}


def lint_fixture(stem: str) -> list:
    key = stem.rsplit("_", 1)[0]
    _, template = _CASES[key]
    source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
    return lint_source(template.format(stem), source)


# -- paired fixtures --------------------------------------------------------


@pytest.mark.parametrize("key", sorted(_CASES))
def test_bad_fixture_trips_rule(key):
    rule, _ = _CASES[key]
    findings = lint_fixture(f"{key}_bad")
    hits = [f for f in findings if f.rule == rule]
    assert hits, f"{key}_bad.py produced no {rule} finding"
    assert all(f.actionable for f in hits)
    # nothing else fires: the fixture isolates its rule
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("key", sorted(_CASES))
def test_good_fixture_is_clean(key):
    findings = lint_fixture(f"{key}_good")
    assert findings == [], [f.format() for f in findings]


def test_rank_branch_details():
    findings = lint_fixture("rank_branch_bad")
    by_sev = {f.severity for f in findings}
    # collectives under the rank test are errors; the unvetted local call
    # in the else-branch is only an info
    assert "error" in by_sev and "info" in by_sev
    assert any("bcast" in f.message for f in findings)


def test_unharvested_both_shapes():
    findings = lint_fixture("unharvested_bad")
    # one dropped-on-the-spot post, one bound-but-never-used request
    assert len(findings) == 2
    assert any("dropped" in f.message for f in findings)
    assert any("`req`" in f.message for f in findings)


def test_nb_ring_depth_vs_loop():
    findings = lint_fixture("nb_ring_bad")
    sevs = sorted(f.severity for f in findings)
    # the literal-depth overflow is an error, the unbounded loop a warning
    assert sevs == ["error", "warning"]


def test_timeout_rule_scoped_to_runtime_paths():
    source = (FIXTURES / "timeout_bad.py").read_text(encoding="utf-8")
    # outside the runtime paths the rule stays quiet
    findings = lint_source("repro/fixtures/timeout_bad.py", source)
    assert [f for f in findings if f.rule == "collective-without-timeout"] == []


def test_nondeterminism_rule_scoped_to_replay_paths():
    source = (FIXTURES / "nondeterminism_bad.py").read_text(encoding="utf-8")
    findings = lint_source("repro/fixtures/nondeterminism_bad.py", source)
    assert [f for f in findings if f.rule == "nondeterminism"] == []


def test_nondeterminism_catalogue():
    findings = lint_fixture("nondeterminism_bad")
    msgs = " | ".join(f.message for f in findings)
    assert "time.time" in msgs
    assert "np.random.rand" in msgs
    assert "default_rng()` without a seed" in msgs
    assert "random.random()` uses the global stdlib RNG" in msgs
    assert "directory order" in msgs
    assert "PYTHONHASHSEED" in msgs


# -- suppressions -----------------------------------------------------------

_BAD_CALL = "def f(comm, x):\n    return comm.allreduce(x)\n"


def test_trailing_suppression_with_justification():
    src = (
        "def f(comm, x):\n"
        "    return comm.allreduce(x)  "
        "# repro: lint-ignore[collective-without-timeout] -- comm has a default deadline\n"
    )
    findings = lint_source("repro/solvers/x.py", src)
    (f,) = findings
    assert f.rule == "collective-without-timeout"
    assert f.suppressed and not f.actionable
    assert f.justification == "comm has a default deadline"


def test_standalone_suppression_targets_next_code_line():
    src = (
        "def f(comm, x):\n"
        "    # repro: lint-ignore[collective-without-timeout] -- default deadline\n"
        "    # (continuation comment between suppression and code is fine)\n"
        "    return comm.allreduce(x)\n"
    )
    findings = lint_source("repro/solvers/x.py", src)
    (f,) = findings
    assert f.suppressed


def test_suppression_without_justification_is_invalid_and_inert():
    src = (
        "def f(comm, x):\n"
        "    return comm.allreduce(x)  "
        "# repro: lint-ignore[collective-without-timeout]\n"
    )
    findings = lint_source("repro/solvers/x.py", src)
    rules = sorted(f.rule for f in findings)
    assert rules == ["collective-without-timeout", "invalid-suppression"]
    # the original finding stays actionable: no free pass without a why
    assert all(f.actionable for f in findings)


def test_suppression_with_unknown_rule_is_invalid():
    src = (
        "def f(comm, x):\n"
        "    return comm.allreduce(x)  "
        "# repro: lint-ignore[no-such-rule] -- because\n"
    )
    findings = lint_source("repro/solvers/x.py", src)
    inv = [f for f in findings if f.rule == "invalid-suppression"]
    assert inv and "no-such-rule" in inv[0].message


def test_unused_suppression_is_flagged():
    src = (
        "def f(x):\n"
        "    return x  # repro: lint-ignore[nondeterminism] -- stale\n"
    )
    findings = lint_source("repro/solvers/x.py", src)
    assert [f.rule for f in findings] == ["unused-suppression"]
    assert findings[0].severity == "warning"


def test_wildcard_suppression():
    src = (
        "def f(comm, x):\n"
        "    return comm.allreduce(x)  # repro: lint-ignore[*] -- trusted\n"
    )
    findings = lint_source("repro/solvers/x.py", src)
    (f,) = findings
    assert f.suppressed


def test_parse_error_is_a_finding():
    findings = lint_source("repro/solvers/x.py", "def f(:\n")
    assert [f.rule for f in findings] == ["parse-error"]
    assert findings[0].severity == "error"


# -- report / engine plumbing -----------------------------------------------


def _write_pkg(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro" / "solvers"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(_BAD_CALL, encoding="utf-8")
    return pkg


def test_findings_to_json_shape():
    findings = lint_fixture("timeout_bad")
    payload = findings_to_json(findings, paths=["repro/solvers/timeout_bad.py"])
    assert payload["version"] == 2
    assert payload["kind"] == "lint-report"
    assert payload["counts"]["actionable"] == len(findings)
    assert payload["counts"]["by_rule"] == {"collective-without-timeout": 2}
    assert all("fingerprint" in f for f in payload["findings"])
    json.dumps(payload)  # serializable end to end


def test_iter_python_files_dedup_and_sort(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    sub = tmp_path / "__pycache__"
    sub.mkdir()
    (sub / "skip.py").write_text("x = 1\n")
    files = iter_python_files([str(tmp_path), str(tmp_path / "a.py")])
    names = [Path(p).name for p in files]
    assert names == ["a.py", "b.py"]


def test_rule_ids_unique_and_stable():
    ids = rule_ids()
    assert len(ids) == len(set(ids))
    assert set(_CASES[k][0] for k in _CASES) <= set(ids)


def test_config_scope_matching():
    cfg = AnalyzerConfig()
    assert cfg.in_scope("src/repro/solvers/lasso/plain.py", cfg.runtime_paths)
    assert not cfg.in_scope("src/repro/mpi/comm.py", cfg.determinism_paths)


# -- CLI --------------------------------------------------------------------


def test_cli_lint_json(tmp_path, capsys):
    from repro.cli import main

    pkg = _write_pkg(tmp_path)
    rc = main(["lint", str(pkg), "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert rc == 1
    assert payload["kind"] == "lint-report"
    assert payload["counts"]["actionable"] == 1


def test_cli_lint_output_file(tmp_path, capsys):
    from repro.cli import main

    pkg = _write_pkg(tmp_path)
    out_file = tmp_path / "report.json"
    rc = main(
        [
            "lint",
            str(pkg),
            "--format",
            "json",
            "--output",
            str(out_file),
        ]
    )
    capsys.readouterr()
    assert rc == 1
    payload = json.loads(out_file.read_text())
    assert payload["counts"]["actionable"] == 1


# -- self-check: the repo's own sources lint clean --------------------------


def test_repo_src_lints_clean(monkeypatch):
    # lint from the repo root exactly as CI does
    monkeypatch.chdir(REPO_ROOT)
    result = lint_paths(["src"])
    assert result.exit_code == 0, "\n".join(
        f.format() for f in result.actionable
    )
