"""Tests of the benchmark itself, at ``--smoke`` sizes: every metric is
emitted with its unit, no operation fails, tracing leaves the outputs
and the library untouched, and span trees add up.

    python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run
import tracing
from workloads import PROBE_REF_S, WORKLOADS, at_ref_speed

from repro.machine.ledger import CostLedger

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    """Every workload once at smoke size, traced (which runs it untraced
    too), plus the entry points as they were before tracing."""
    before = [(owner, name, tracing._get(owner, name)) for _, owner, name in tracing.sites()]
    ledger = (CostLedger.add_flops, CostLedger.add_collective)
    results = {name: run.run_workload(w, seed=1, smoke=True, trace=True, spec=SPEC)
               for name, w in WORKLOADS.items()}
    return results, before, ledger


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(smoke, trace):
    results, _, _ = smoke
    specs = SPEC["per_layer" if trace else "end_to_end"]
    for name, (res, _) in results.items():
        line = run.contract_line([res], SPEC, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in specs], name
        for m in specs:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert math.isfinite(entry["value"]), (name, m["name"])
        assert line["attempted"] >= 1


def test_no_operation_fails(smoke):
    results, _, _ = smoke
    for name, (res, _) in results.items():
        assert res["failed"] == 0, name
        assert res["failed"] / res["attempted"] == 0.0
        assert res["correct"], (name, res["checks"])


def test_traced_outputs_equal_untraced(smoke):
    results, _, _ = smoke
    for name, (res, _) in results.items():
        assert res["checks"]["traced outputs equal untraced outputs"], name


def test_every_wrapper_is_removed(smoke):
    _, before, ledger = smoke
    for owner, name, original in before:
        assert tracing._get(owner, name) is original, name
    assert (CostLedger.add_flops, CostLedger.add_collective) == ledger


def test_span_trees_add_up(smoke):
    results, _, _ = smoke
    for name, (_, spans) in results.items():
        assert spans and all(spans), name
        for rank_spans in spans:
            assert tracing.check_tree(rank_spans) == [], name


def test_at_ref_speed_divides_by_the_probes_on_either_side():
    ref = PROBE_REF_S
    assert at_ref_speed([1.0, 2.0], [ref, 3 * ref, ref]) == pytest.approx([0.5, 1.0])


def test_busy_cpus_stops_its_spinners():
    with run.busy_cpus():
        assert len(multiprocessing.active_children()) == len(os.sched_getaffinity(0))
    assert multiprocessing.active_children() == []


def test_check_tree_flags_inconsistent_spans():
    root = ["op", 0.0, 1.0, -1, 0.0, 0.0, 0.0, 0.0, 0.0]
    child = ["mpi.reduce", 0.5, 2.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert tracing.check_tree([root, child])


def test_layer_predictions(smoke):
    """Structural predictions of the layer map (counts, not timings)."""
    results, _, _ = smoke

    def row(workload, layer):
        return results[workload][0]["layers"][layer]

    # record_every=0 still evaluates the objective before the first and
    # after the last iteration: two checks for each of a round's 3 solves
    assert row("fig3-solve", "solvers.check")["calls"] == 2 * 3
    assert row("fig3-solve", "mpi.wait")["calls"] > 0
    # path and stream check on top of that, every record_every iterations
    for workload in ("path-16", "stream-window"):
        assert row(workload, "solvers.check")["calls"] > 2 * row(workload, "solvers.step")["calls"]
    assert row("stream-window", "linalg.eig")["calls"] == 0
    assert row("serve-durable", "mpi.reduce")["model_s"] == 0
    assert row("serve-durable", "checkpoint")["extra"] > 0
    for workload in ("fig3-solve", "path-16", "stream-window"):
        assert row(workload, "checkpoint")["calls"] == 0


def test_cli_prints_the_contract_line_last():
    """The full command line of the BENCHMARK.json interface, whose
    ``--seconds`` is accepted and ignored."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-durable", "--seed", "2",
         "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for f in HERE.glob("*.py"):
        shutil.copy(f, suite)
    out = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "path-16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _result_file(path: Path, values: dict, spread: float = 0.0, cert: float = 2.0,
                 failed: int = 0) -> Path:
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"], "n": 5,
                           "spread": spread} for m in SPEC["end_to_end"]}
    result = {"metrics": metrics, "detail": {"cert_max": {"value": cert, "unit": "1", "n": 16}},
              "attempted": 4, "failed": failed}
    path.write_text(json.dumps({"meta": {}, "workloads": {"path-16": result}}))
    return path


def _verdicts(capsys) -> dict:
    return {ln.split()[1]: ln.split()[-1] for ln in capsys.readouterr().out.splitlines()[1:]}


def test_compare_gives_one_verdict_per_metric(tmp_path, capsys):
    base = _result_file(tmp_path / "base.json", {"op_ms.p50": 100.0, "throughput": 10.0})
    head = _result_file(tmp_path / "head.json", {"op_ms.p50": 150.0, "throughput": 15.0},
                        cert=1.5)
    assert run.compare(str(base), str(head), SPEC) == 1
    lines = _verdicts(capsys)
    assert lines["op_ms.p50"] == "regressed"
    assert lines["throughput"] == "improved"
    assert lines["setup_s"] == "unchanged"
    assert lines["cert_max"] == "improved"
    assert lines["fail_frac"] == "unchanged"
    assert len(lines) == len(SPEC["end_to_end"]) + 2


@pytest.mark.parametrize(("cert", "failed", "worse"), [(2.03, 0, "cert_max"),
                                                       (2.0, 1, "fail_frac")])
def test_compare_gates_certificates_and_failures(tmp_path, capsys, cert, failed, worse):
    base = _result_file(tmp_path / "base.json", {})
    head = _result_file(tmp_path / "head.json", {}, cert=cert, failed=failed)
    assert run.compare(str(base), str(head), SPEC) == 1
    lines = _verdicts(capsys)
    assert lines[worse] == "regressed"
    assert [m for m, v in lines.items() if v != "unchanged"] == [worse]


def test_compare_allows_certificates_within_one_percent(tmp_path, capsys):
    base = _result_file(tmp_path / "base.json", {})
    head = _result_file(tmp_path / "head.json", {}, cert=2.01)
    assert run.compare(str(base), str(head), SPEC) == 0
    assert _verdicts(capsys)["cert_max"] == "unchanged"


def test_compare_calls_a_wide_spread_unresolved(tmp_path, capsys):
    base = _result_file(tmp_path / "base.json", {"op_ms.p50": 100.0}, spread=0.5)
    head = _result_file(tmp_path / "head.json", {"op_ms.p50": 130.0}, spread=0.5)
    assert run.compare(str(base), str(head), SPEC) == 0
    lines = capsys.readouterr().out.splitlines()[1:len(SPEC["end_to_end"]) + 1]
    assert all(ln.endswith("unresolved") for ln in lines)
