"""The cost schema: :class:`CostSnapshot`'s fields drive every operation.

Pins the merge policies (sum, and the ``max_staleness`` watermark), the
serialized field order, round trips through every writer, the one
restore rule for the physical counters, report totals, ledger reset,
and the single parse rule each loader applies to a malformed cost block.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro._api import fit_lasso
from repro.checkpoint import resume_solver
from repro.errors import CheckpointError, SolverError
from repro.machine.collectives import CollectiveCost
from repro.machine.ledger import CostLedger, CostSnapshot, report_total
from repro.machine.spec import CRAY_XC30
from repro.path import lasso_path
from repro.solvers.base import ConvergenceHistory
from repro.solvers.serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.streaming import StreamingSweep

#: the schema in declaration order (the serialized order)
FIELDS = (
    "comm_seconds", "compute_seconds", "messages", "words", "flops",
    "comm_seconds_hidden", "stale_seconds", "max_staleness", "retries",
    "timeouts", "recoveries", "respawns", "replayed_iterations",
)
INTS = {"messages", "max_staleness", "retries", "timeouts", "recoveries",
        "respawns", "replayed_iterations"}
PHYSICAL = {"recoveries", "respawns", "replayed_iterations"}
LOGICAL = [f for f in FIELDS if f not in PHYSICAL]


def snap(base: float) -> CostSnapshot:
    """Every field distinct and non-zero."""
    return CostSnapshot(**{
        f: (int(base) + i + 1 if f in INTS else base + 0.125 * (i + 1))
        for i, f in enumerate(FIELDS)
    })


A_SNAP, B_SNAP, C_SNAP = snap(3.0), snap(40.0), snap(7.0)


def test_schema_is_the_dataclass_fields():
    assert tuple(f.name for f in dataclasses.fields(CostSnapshot)) == FIELDS


class TestArithmetic:
    @pytest.mark.parametrize("name", FIELDS)
    def test_add_sums_except_the_watermark(self, name):
        a, b = getattr(A_SNAP, name), getattr(B_SNAP, name)
        got = getattr(A_SNAP + B_SNAP, name)
        if name == "max_staleness":
            assert got == max(a, b) == b
            assert getattr(B_SNAP + A_SNAP, name) == b
        else:
            assert got == a + b

    @pytest.mark.parametrize("name", FIELDS)
    def test_sub_subtracts_except_the_watermark(self, name):
        a, b = getattr(B_SNAP, name), getattr(A_SNAP, name)
        got = getattr(B_SNAP - A_SNAP, name)
        if name == "max_staleness":
            assert got == a
            assert getattr(A_SNAP - B_SNAP, name) == b
        else:
            assert got == a - b

    def test_sum_from_zero_is_the_left_fold(self):
        total = sum([A_SNAP, B_SNAP, C_SNAP], CostSnapshot.zero())
        assert total == ((CostSnapshot.zero() + A_SNAP) + B_SNAP) + C_SNAP
        for name in FIELDS:
            vals = [getattr(s, name) for s in (A_SNAP, B_SNAP, C_SNAP)]
            want = max(vals) if name == "max_staleness" else sum(vals)
            assert getattr(total, name) == want

    def test_zero_has_typed_zeros(self):
        z = CostSnapshot.zero()
        for name in FIELDS:
            v = getattr(z, name)
            assert v == 0 and type(v) is (int if name in INTS else float)

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            A_SNAP + 1.0  # noqa: B018


class TestSerialization:
    def test_to_dict_declaration_order_and_round_trip(self):
        d = A_SNAP.to_dict()
        assert tuple(d) == FIELDS
        assert CostSnapshot.from_dict(d) == A_SNAP
        assert CostSnapshot.from_dict(json.loads(json.dumps(d))) == A_SNAP

    def test_report_form_puts_seconds_first(self):
        rep = A_SNAP.to_report()
        assert tuple(rep) == ("seconds",) + FIELDS
        assert rep["seconds"] == A_SNAP.seconds
        # a report's derived seconds is ignored by the parser
        assert CostSnapshot.from_dict(rep) == A_SNAP

    def test_saved_result_round_trip_keeps_every_field(self, dense_regression):
        A, b, _ = dense_regression
        res = fit_lasso(A, b, 0.3, solver="sa-bcd", s=4, max_iter=8,
                        tol=None, record_every=4)
        res.cost = B_SNAP
        back = result_from_dict(json.loads(json.dumps(result_to_dict(res))))
        assert back.cost == B_SNAP

    def test_stream_checkpoint_round_trip_keeps_every_revision_cost(self):
        rng = np.random.default_rng(0)
        A, b = rng.standard_normal((30, 6)), rng.standard_normal(30)
        eng = StreamingSweep(A[:20], b[:20], task="lasso", max_iter=8,
                             tol=None, s=4, mu=2)
        eng.solve()
        eng.append(A[20:], b[20:])
        eng.solve()
        costs = []
        for i, rev in enumerate(eng.revisions):
            rev.append_cost = snap(10.0 * i + 1)
            rev.evict_cost = snap(10.0 * i + 2)
            rev.solve_costs = [snap(10.0 * i + 3), snap(10.0 * i + 4)]
            costs.append((rev.append_cost, rev.evict_cost, rev.solve_costs))
        ck = json.loads(json.dumps(eng.checkpoint()))
        back = StreamingSweep.from_checkpoint(ck)
        assert [(r.append_cost, r.evict_cost, r.solve_costs)
                for r in back.revisions] == costs


class TestLedger:
    def test_resume_restores_logical_fields_only(self):
        ck = {
            "iteration": 0,
            "history": {"metric_name": "objective", "iterations": [0],
                        "metric": [1.0]},
            "ledger": A_SNAP.to_dict(),
        }
        led = CostLedger()
        led.add_recovery(respawns=5, replayed_iterations=9)
        resume_solver(ck, sampler=SimpleNamespace(next_block=lambda: None),
                      term=SimpleNamespace(_last=None),
                      history=ConvergenceHistory(), ledger=led)
        for name in LOGICAL:
            assert getattr(led, name) == getattr(A_SNAP, name)
        assert (led.recoveries, led.respawns, led.replayed_iterations) == (
            1, 5, 9)

    def test_snapshot_reads_every_field(self):
        led = CostLedger()
        for name in FIELDS:
            setattr(led, name, getattr(C_SNAP, name))
        assert led.snapshot() == C_SNAP

    def test_reset_zeroes_schema_and_ledger_only_counters(self):
        led = CostLedger(machine=CRAY_XC30)
        for name in FIELDS:
            setattr(led, name, getattr(B_SNAP, name))
        led.add_collective("allreduce", CollectiveCost(2, 4.0, 0.5))
        led.add_flops(1e6, "blas3")
        led.add_idle(0.25)
        for kind in ("rejected", "timed_out", "quarantined", "recovered"):
            led.add_request_event(kind, 3)
        led.reset()
        assert led.snapshot() == CostSnapshot.zero()
        assert led.idle_seconds == 0.0
        assert (led.requests_rejected, led.requests_timed_out,
                led.requests_quarantined, led.requests_recovered) == (
            0, 0, 0, 0)
        assert not led.by_collective and not led.by_kind

    def test_summary_is_report_form_plus_ledger_counters(self):
        led = CostLedger()
        for name in FIELDS:
            setattr(led, name, getattr(A_SNAP, name))
        s = led.summary()
        assert {k: s[k] for k in ("seconds",) + FIELDS} == A_SNAP.to_report()
        assert {"idle_seconds", "requests_rejected", "by_collective",
                "by_kind"} <= set(s)


class TestReportTotal:
    def test_seconds_added_as_written(self):
        comm = (0.844, 0.758, 0.421)
        compute = (0.259, 0.511, 0.405)
        reps = [CostSnapshot(c, k, 0, 0.0, 0.0).to_report()
                for c, k in zip(comm, compute, strict=True)]
        total = report_total(reps)
        assert total["seconds"] == 3.198
        # re-deriving seconds from the summed parts moves the last bit
        assert total["comm_seconds"] + total["compute_seconds"] == (
            3.1979999999999995)

    def test_fields_merge_by_policy(self):
        total = report_total([A_SNAP.to_report(), B_SNAP.to_report(),
                              C_SNAP.to_report()])
        folded = A_SNAP + B_SNAP + C_SNAP
        for name in FIELDS:
            assert total[name] == getattr(folded, name)
        assert total["max_staleness"] == B_SNAP.max_staleness
        assert tuple(total) == ("seconds",) + FIELDS

    def test_empty_total_is_zero(self):
        assert report_total([]) == CostSnapshot.zero().to_report()


# -- malformed cost blocks: each loader raises its own error ----------------


def _result_dict(dense_regression) -> dict:
    A, b, _ = dense_regression
    res = fit_lasso(A, b, 0.3, solver="sa-bcd", s=4, max_iter=8, tol=None,
                    record_every=4)
    return json.loads(json.dumps(result_to_dict(res)))


class TestSavedResultCost:
    @pytest.mark.parametrize("patch, field", [
        ({"comm_seconds": "1", "compute_seconds": "2"}, "comm_seconds"),
        ({"messages": 2.7}, "messages"),
        ({"retries": "x"}, "retries"),
        ({"words": None}, "words"),
        ({"flops": [1.0]}, "flops"),
        ({"timeouts": True}, "timeouts"),
    ])
    def test_bad_value_is_solver_error(self, dense_regression, patch, field):
        d = _result_dict(dense_regression)
        d["cost"].update(patch)
        with pytest.raises(SolverError, match=field):
            result_from_dict(d)

    def test_non_object_block_is_solver_error(self, dense_regression):
        d = _result_dict(dense_regression)
        d["cost"] = [1, 2]
        with pytest.raises(SolverError, match="cost block"):
            result_from_dict(d)

    def test_missing_core_field_reads_zero(self, dense_regression):
        d = _result_dict(dense_regression)
        del d["cost"]["words"]
        assert result_from_dict(d).cost.words == 0.0

    def test_whole_float_count_loads_as_int(self, dense_regression):
        d = _result_dict(dense_regression)
        d["cost"]["messages"] = 12.0
        got = result_from_dict(d).cost.messages
        assert got == 12 and type(got) is int

    def test_load_result_file(self, dense_regression, tmp_path):
        d = _result_dict(dense_regression)
        d["cost"]["comm_seconds"] = "1"
        path = tmp_path / "r.json"
        path.write_text(json.dumps(d))
        with pytest.raises(SolverError, match="comm_seconds"):
            load_result(path)
        d["cost"]["comm_seconds"] = 1.0
        path.write_text(json.dumps(d))
        res = load_result(path)
        save_result(tmp_path / "again.json", res)
        assert load_result(tmp_path / "again.json").cost == res.cost


class TestPathCheckpointCost:
    KW = dict(n_lambdas=4, solver="sa-accbcd", mu=2, s=4, max_iter=12,
              tol=None, seed=5, record_every=4)

    def _mid(self, dense_regression):
        A, b, _ = dense_regression
        captured = []
        lasso_path(A, b, checkpoint_every=2,
                   checkpoint_sink=captured.append, **self.KW)
        return json.loads(json.dumps(captured[0]))

    def test_string_cost_is_checkpoint_error(self, dense_regression):
        A, b, _ = dense_regression
        ck = self._mid(dense_regression)
        ck["results"][0]["cost"]["comm_seconds"] = "1"
        with pytest.raises(CheckpointError, match="comm_seconds"):
            lasso_path(A, b, resume_from=ck, **self.KW)

    def test_missing_field_reads_zero(self, dense_regression):
        A, b, _ = dense_regression
        ck = self._mid(dense_regression)
        del ck["results"][0]["cost"]["flops"]
        res = lasso_path(A, b, resume_from=ck, **self.KW)
        assert res.results[0].cost.flops == 0.0
        assert res.results[1].cost.flops > 0.0


class TestStreamCheckpointCost:
    def _ck(self) -> dict:
        rng = np.random.default_rng(2)
        A, b = rng.standard_normal((30, 6)), rng.standard_normal(30)
        eng = StreamingSweep(A[:20], b[:20], task="lasso", max_iter=8,
                             tol=None, s=4, mu=2)
        eng.solve()
        eng.append(A[20:], b[20:])
        return json.loads(json.dumps(eng.checkpoint()))

    @pytest.mark.parametrize("block, match", [
        ({"messages": "x"}, "messages"),
        (None, "cost block"),
        ({"comm_seconds": "1", "compute_seconds": "2"}, "comm_seconds"),
    ])
    def test_bad_append_cost_is_checkpoint_error(self, block, match):
        ck = self._ck()
        ck["revisions"][1]["append_cost"] = block
        with pytest.raises(CheckpointError, match=match):
            StreamingSweep.from_checkpoint(ck)

    def test_partial_block_reads_zero(self):
        ck = self._ck()
        ck["revisions"][1]["append_cost"] = {"messages": 3}
        eng = StreamingSweep.from_checkpoint(ck)
        assert eng.revisions[1].append_cost == dataclasses.replace(
            CostSnapshot.zero(), messages=3)


class TestSolverCheckpointCost:
    def test_numeric_string_in_ledger_is_refused(self, dense_regression):
        A, b, _ = dense_regression
        kw = dict(solver="sa-bcd", s=4, max_iter=16, tol=None, seed=5,
                  record_every=4)
        cks = []
        fit_lasso(A, b, 0.3, checkpoint_every=8, checkpoint_sink=cks.append,
                  **kw)
        ck = copy.deepcopy(cks[0])
        ck["ledger"]["words"] = "12.5"
        with pytest.raises(CheckpointError, match="words"):
            fit_lasso(A, b, 0.3, resume_from=ck, **kw)
