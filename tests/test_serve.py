"""Multi-tenant serving engine: admission, deadlines, fault isolation.

Five layers:

* **traces** — loader/validator (JSON + JSONL), synthetic generator
  determinism, and the shared ``("sleep", seconds)`` schedule token in
  :func:`repro.streaming.replay_schedule`;
* **admission queue** — bounded rejection with a typed error naming
  the depth, per-tenant round-robin fairness (a saturating tenant
  cannot starve the others), append coalescing, state round-trip;
* **engine (virtual backend)** — backpressure rejections, deadline
  expiry + all-late rollback (model hash unchanged), per-tenant
  quarantine on solver faults with every other tenant untouched and
  the last-good model still serving predicts;
* **checkpoint/resume + recovery (process backend, slow)** — a rank
  death mid-refit recovers through the supervised pool and the
  non-faulted tenants end byte-identical to a fault-free run, with no
  orphaned workers;
* **ledger + CLI** — the new idle/request counters, and ``repro
  serve`` end-to-end with ``--save``.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    CommError,
    CostModelError,
    ServeError,
    SolverError,
)
from repro.machine.ledger import CostLedger
from repro.machine.spec import CRAY_XC30
from repro.serve import (
    SERVE_CHECKPOINT_VERSION,
    SERVE_REPORT_VERSION,
    AdmissionQueue,
    TenantSpec,
    TraceEvent,
    load_trace,
    serve_trace,
    synthetic_trace,
    validate_trace,
)
from repro.streaming import STREAM_REPORT_VERSION, replay_schedule


def _assert_no_orphans(timeout: float = 10.0) -> None:
    """Every forked rank must be reaped once the run returns."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        kids = [p for p in multiprocessing.active_children()
                if p.name.startswith("spmd-proc")]
        if not kids:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned SPMD workers: {kids}")


def _spec(name, m=40, n=12, seed=1, m0=24, **kw):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    knobs = dict(max_iter=60, tol=1e-5, seed=0)
    knobs.update(kw.pop("knobs", {}))
    return TenantSpec(name=name, A=A, b=b, m0=m0, knobs=knobs, **kw)


def _three_tenants():
    return [_spec("a", seed=1), _spec("b", seed=2), _spec("c", seed=3)]


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------
class TestTraces:
    def test_load_jsonl_and_json_array(self, tmp_path):
        p1 = tmp_path / "t.jsonl"
        p1.write_text('{"t": 0.2, "tenant": "a"}\n'
                      '{"t": 0.1, "tenant": "b", "op": "predict", "rows": 3}\n')
        ev = load_trace(p1)
        # sorted by arrival, defaults filled
        assert [e.tenant for e in ev] == ["b", "a"]
        assert ev[0].op == "predict" and ev[0].rows == 3
        assert ev[1].op == "append" and ev[1].rows == 1
        p2 = tmp_path / "t.json"
        p2.write_text(json.dumps([{"t": 0.0, "tenant": "a", "deadline": 0.5}]))
        assert load_trace(p2)[0].deadline == 0.5

    def test_load_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"tenant": "a"}\n')
        with pytest.raises(ServeError, match="'t' and 'tenant'"):
            load_trace(p)
        p.write_text("not json\n")
        with pytest.raises(ServeError, match="not valid JSON"):
            load_trace(p)
        with pytest.raises(ServeError, match="could not read"):
            load_trace(tmp_path / "missing.jsonl")

    def test_validate_rejects_bad_fields(self):
        with pytest.raises(ServeError, match="unknown op"):
            validate_trace([TraceEvent(0.0, "a", op="train")])
        with pytest.raises(ServeError, match="finite"):
            validate_trace([TraceEvent(float("nan"), "a")])
        with pytest.raises(ServeError, match="rows"):
            validate_trace([TraceEvent(0.0, "a", rows=0)])
        with pytest.raises(ServeError, match="deadline"):
            validate_trace([TraceEvent(0.0, "a", deadline=-1.0)])
        with pytest.raises(ServeError, match="unknown tenant"):
            validate_trace([TraceEvent(0.0, "z")], known_tenants={"a"})

    def test_synthetic_trace_deterministic_and_budgeted(self):
        kw = dict(seed=7, mean_gap=0.01, rows=2, predict_frac=0.4,
                  append_budget={"a": 6, "b": 6})
        t1 = synthetic_trace(["a", "b"], 30, **kw)
        t2 = synthetic_trace(["a", "b"], 30, **kw)
        assert t1 == t2
        for name in ("a", "b"):
            appended = sum(e.rows for e in t1
                           if e.tenant == name and e.op == "append")
            assert appended <= 6
        assert all(t1[i].t <= t1[i + 1].t for i in range(len(t1) - 1))

    def test_replay_schedule_sleep_token(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        rep = replay_schedule(
            A[:20], b[:20],
            [(A[20:25], b[20:25]), ("sleep", 1.5), (A[25:30], b[25:30])],
            max_iter=40, tol=1e-5, virtual_p=4, machine=CRAY_XC30,
        )
        assert rep["format_version"] == STREAM_REPORT_VERSION
        assert rep["totals"]["slept_seconds"] == 1.5
        # the sleep is schedule-visible but produces no revision
        assert [s["op"] for s in rep["schedule"]] == ["append", "sleep",
                                                      "append"]
        assert rep["schedule"][1]["seconds"] == 1.5
        assert len(rep["revisions"]) == 3  # rev0 + two appends

    def test_replay_schedule_rejects_bad_sleep(self):
        A = np.eye(4)
        b = np.ones(4)
        with pytest.raises(SolverError, match="sleep seconds"):
            replay_schedule(A, b, [("sleep", -1.0)], max_iter=5)


# ---------------------------------------------------------------------------
# admission queue
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_full_queue_rejects_with_typed_error(self):
        q = AdmissionQueue(2, ["a", "b"])
        q.offer(0, "a", is_append=True)
        q.offer(1, "b", is_append=True)
        assert q.full
        with pytest.raises(AdmissionError) as ei:
            q.offer(2, "a", is_append=True, retry_after=0.25)
        assert "depth 2" in str(ei.value)
        assert ei.value.queue_depth == 2
        assert ei.value.retry_after == 0.25

    def test_round_robin_fairness(self):
        # tenant a saturates; b's single request is served on the very
        # next dispatch, not after a's backlog drains
        q = AdmissionQueue(8, ["a", "b"], max_coalesce=1)
        for i in range(5):
            q.offer(i, "a", is_append=True)
        q.offer(5, "b", is_append=True)
        first, second = q.next_batch(), q.next_batch()
        assert first == ("a", [0])
        assert second == ("b", [5])

    def test_append_coalescing_stops_at_barriers(self):
        q = AdmissionQueue(8, ["a"], max_coalesce=4)
        q.offer(0, "a", is_append=True)
        q.offer(1, "a", is_append=True)
        q.offer(2, "a", is_append=False)  # predict/evict barrier
        q.offer(3, "a", is_append=True)
        assert q.next_batch() == ("a", [0, 1])
        assert q.next_batch() == ("a", [2])
        assert q.next_batch() == ("a", [3])
        assert q.next_batch() is None

    def test_state_round_trip(self):
        q = AdmissionQueue(8, ["a", "b"], max_coalesce=2)
        for i in range(3):
            q.offer(i, "a", is_append=True)
        q.offer(3, "b", is_append=False)
        q.next_batch()
        state = q.to_state()
        q2 = AdmissionQueue(8, ["a", "b"], max_coalesce=2)
        q2.from_state(state)
        assert len(q2) == len(q)
        assert q2.next_batch() == q.next_batch()

    def test_validation(self):
        with pytest.raises(ServeError, match="depth"):
            AdmissionQueue(0, ["a"])
        with pytest.raises(ServeError, match="duplicate"):
            AdmissionQueue(4, ["a", "a"])
        q = AdmissionQueue(4, ["a"])
        with pytest.raises(ServeError, match="unknown tenant"):
            q.offer(0, "z", is_append=True)


# ---------------------------------------------------------------------------
# engine, virtual backend
# ---------------------------------------------------------------------------
class TestEngineVirtual:
    def test_burst_backpressure_rejects_beyond_depth(self):
        specs = _three_tenants()
        # one burst at t=0, queue bounded well below the burst size
        trace = synthetic_trace(["a", "b", "c"], 16, seed=3, mean_gap=0.0,
                                rows=2, predict_frac=0.5,
                                append_budget={n: 10 for n in "abc"})
        rep = serve_trace(specs, trace, queue_depth=4,
                          machine=CRAY_XC30, virtual_p=4)
        out = rep["totals"]["outcomes"]
        assert out["rejected"] == 16 - 4
        assert out["completed"] == 4
        rejected = [r for r in rep["requests"] if r["outcome"] == "rejected"]
        assert all("depth 4" in r["error"] for r in rejected)

    def test_deadline_expiry_and_all_late_rollback(self):
        specs = [_spec("a", seed=1)]
        # a burst of appends with a deadline far below any refit's
        # modelled service time: the first dispatched batch commits? no —
        # it finishes past its own deadline, so it must be rolled back
        trace = [TraceEvent(0.0, "a", op="append", rows=2, deadline=1e-9)
                 for _ in range(3)]
        rep = serve_trace(specs, trace, queue_depth=8, max_coalesce=1,
                          machine=CRAY_XC30, virtual_p=4)
        out = rep["totals"]["outcomes"]
        assert out["timed_out"] == 3 and out["completed"] == 0
        ten = rep["tenants"][0]
        # nothing committed: no rows consumed beyond onboarding
        assert ten["rows_consumed"] == specs[0].m0
        assert ten["state"] == "active"  # deadline misses are not faults
        # and the model still serves: identical to a no-op run's model
        oracle = serve_trace(specs, [], machine=CRAY_XC30, virtual_p=4)
        assert ten["model_hash"] == oracle["tenants"][0]["model_hash"]

    def test_solver_fault_quarantines_only_that_tenant(self):
        specs = _three_tenants()
        trace = []
        t = 0.0
        for _ in range(4):  # interleave appends for all tenants
            for name in ("a", "b", "c"):
                trace.append(TraceEvent(t, name, op="append", rows=2))
                t += 1e-5
        trace.append(TraceEvent(t, "b", op="predict", rows=4))

        def boom(comm, tenant, dispatch_no, op):
            if tenant == "b" and op == "refit" and dispatch_no >= 2:
                raise SolverError("injected divergence")

        kw = dict(queue_depth=16, max_coalesce=1, machine=CRAY_XC30,
                  virtual_p=4, tenant_max_faults=1)
        rep = serve_trace(specs, trace, fault_hook=boom, **kw)
        by_name = {t["name"]: t for t in rep["tenants"]}
        assert by_name["b"]["state"] == "quarantined"
        assert by_name["b"]["faults"] == 2
        assert by_name["a"]["state"] == "active"
        assert by_name["c"]["state"] == "active"
        # the quarantined tenant still serves predicts from last-good
        predicts = [r for r in rep["requests"]
                    if r["tenant"] == "b" and r["op"] == "predict"]
        assert predicts and predicts[0]["outcome"] == "completed"
        assert predicts[0]["result_hash"] is not None
        # other tenants are byte-identical to a fault-free run
        oracle = serve_trace(specs, trace, **kw)
        oracle_by = {t["name"]: t for t in oracle["tenants"]}
        for name in ("a", "c"):
            assert by_name[name]["model_hash"] == oracle_by[name]["model_hash"]
        assert rep["totals"]["outcomes"]["failed"] == 2
        assert rep["totals"]["outcomes"]["quarantined"] >= 1

    def test_fairness_under_saturation(self):
        # tenant a floods the queue; b's lone append must not wait for
        # a's whole backlog
        specs = [_spec("a", seed=1), _spec("b", seed=2)]
        trace = [TraceEvent(0.0, "a", op="append", rows=1)
                 for _ in range(6)]
        trace.append(TraceEvent(0.0, "b", op="append", rows=2))
        rep = serve_trace(specs, trace, queue_depth=16, max_coalesce=1,
                          machine=CRAY_XC30, virtual_p=4)
        done = [r for r in rep["requests"] if r["outcome"] == "completed"]
        order = [r["tenant"] for r in sorted(done,
                                             key=lambda r: r["completed_at"])]
        assert order.index("b") <= 1
        assert rep["totals"]["outcomes"]["completed"] == 7

    def test_svm_tenant_serves(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((36, 10))
        b = np.sign(rng.standard_normal(36))
        b[b == 0] = 1.0
        spec = TenantSpec(name="s", A=A, b=b, m0=28, task="svm",
                          knobs=dict(max_iter=80, tol=None, seed=0))
        trace = [TraceEvent(0.0, "s", op="append", rows=4),
                 TraceEvent(0.0, "s", op="predict", rows=5)]
        rep = serve_trace([spec], trace, machine=CRAY_XC30, virtual_p=4)
        t = rep["tenants"][0]
        assert rep["totals"]["outcomes"]["completed"] == 2
        assert t["rows_consumed"] == 32
        assert t["model_hash"] is not None

    def test_report_schema_and_determinism(self):
        specs = _three_tenants()
        trace = synthetic_trace(["a", "b", "c"], 12, seed=9, mean_gap=0.001,
                                rows=2, predict_frac=0.3,
                                append_budget={n: 12 for n in "abc"})
        kw = dict(machine=CRAY_XC30, virtual_p=4, queue_depth=6)
        rep = serve_trace(specs, trace, **kw)
        assert rep["format_version"] == SERVE_REPORT_VERSION
        assert rep["kind"] == "serve-report"
        for key in ("config", "tenants", "requests", "totals", "recovery"):
            assert key in rep
        lat = rep["totals"]["latency"]
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert json.dumps(rep) == json.dumps(serve_trace(specs, trace, **kw))

    def test_tenant_validation(self):
        with pytest.raises(ServeError, match="at least one tenant"):
            serve_trace([], [])
        s = _spec("a")
        with pytest.raises(ServeError, match="unique"):
            serve_trace([s, _spec("a", seed=2)], [])
        with pytest.raises(ServeError, match="m0"):
            serve_trace([_spec("a", m0=0)], [])
        with pytest.raises(ServeError, match="unknown tenant"):
            serve_trace([s], [TraceEvent(0.0, "zzz")])
        with pytest.raises(CommError, match="recover"):
            serve_trace([s], [], recover="checkpoint", backend="virtual")


# ---------------------------------------------------------------------------
# checkpoint / resume, recovery (process backend)
# ---------------------------------------------------------------------------
class TestCheckpointResume:
    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        specs = _three_tenants()
        trace = synthetic_trace(["a", "b", "c"], 10, seed=2, mean_gap=0.001,
                                rows=2, predict_frac=0.3,
                                append_budget={n: 12 for n in "abc"})
        kw = dict(machine=CRAY_XC30, virtual_p=4, queue_depth=8)
        full = serve_trace(specs, trace, **kw)
        ck_path = tmp_path / "serve.ck.json"
        # run only a prefix of the trace, checkpointing as we go...
        serve_trace(specs, trace[:5], checkpoint_path=ck_path, **kw)
        ck = json.loads(ck_path.read_text())
        assert ck["kind"] == "serve-engine"
        assert ck["format_version"] == SERVE_CHECKPOINT_VERSION
        # ...then resume with the whole trace: the prefix is replayed
        # from state, and the final models match the uninterrupted run
        resumed = serve_trace(specs, trace, resume_from=ck, **kw)
        for t_full, t_res in zip(full["tenants"], resumed["tenants"], strict=True):
            assert t_full["model_hash"] == t_res["model_hash"]
        assert (resumed["totals"]["outcomes"]["completed"]
                == full["totals"]["outcomes"]["completed"])

    def test_resume_rejects_mismatched_checkpoint(self, tmp_path):
        from repro.errors import CheckpointError
        specs = [_spec("a")]
        with pytest.raises(CheckpointError, match="serve-engine"):
            serve_trace(specs, [], resume_from={"kind": "other"},
                        machine=CRAY_XC30)
        bad = tmp_path / "nope.json"
        with pytest.raises(CheckpointError, match="could not read"):
            serve_trace(specs, [], resume_from=bad, machine=CRAY_XC30)

    @staticmethod
    def _mixed_trace():
        """Predicts, two coalesced refits and one refit rolled back for
        missing its deadline: three of the five refits commit."""
        return [
            TraceEvent(0.0, "a", op="append", rows=2),
            TraceEvent(0.0, "a", op="append", rows=2),
            TraceEvent(0.0, "b", op="predict", rows=4),
            TraceEvent(0.0, "c", op="append", rows=2),
            TraceEvent(1.0, "b", op="append", rows=2, deadline=1e-9),
            TraceEvent(2.0, "a", op="predict", rows=4),
            TraceEvent(2.0, "b", op="append", rows=2),
            TraceEvent(2.0, "b", op="append", rows=2),
            TraceEvent(2.0, "c", op="predict", rows=4),
        ]

    def _check_mixed_report(self, rep):
        reqs = rep["requests"]
        assert [r["outcome"] for r in reqs].count("completed") == 8
        assert "rolled back" in reqs[4]["error"]
        assert [r["coalesced"] for r in reqs if r["op"] == "append"] == [
            2, 2, 1, 1, 2, 2]

    def test_checkpoint_file_is_compact_and_holds_committed_states(
            self, tmp_path, monkeypatch):
        from repro.streaming import StreamingSweep
        specs = _three_tenants()
        ck_path = tmp_path / "serve.ck.json"
        committed, dispatched = {}, []
        setup_order = iter(s.name for s in specs)
        sweep_checkpoint = StreamingSweep.checkpoint

        def checkpoint(sweep, sink=None):
            state = sweep_checkpoint(sweep, sink)
            # setup commits every tenant in spec order; after that, only
            # the tenant being dispatched commits
            name = dispatched[-1] if dispatched else next(setup_order)
            committed[name] = json.loads(json.dumps(state))
            return state

        def check_file():
            text = ck_path.read_text()
            ck = json.loads(text)
            assert text == json.dumps(ck, separators=(",", ":")) + "\n"
            assert {name: t["engine"] for name, t in ck["tenants"].items()} \
                == committed

        def hook(comm, tenant, dispatch_no, op):
            check_file()
            dispatched.append(tenant)

        monkeypatch.setattr(StreamingSweep, "checkpoint", checkpoint)
        rep = serve_trace(specs, self._mixed_trace(), checkpoint_path=ck_path,
                          fault_hook=hook, machine=CRAY_XC30, virtual_p=4)
        check_file()
        self._check_mixed_report(rep)
        assert len(dispatched) == 7

    def test_each_committed_state_is_encoded_once(self, tmp_path,
                                                  monkeypatch):
        from repro.streaming import StreamingSweep

        class State(dict):
            encodes = 0

            def items(self):
                # json's encoders, C and Python, walk a dict subclass
                # through items(): one call is one encode
                self.encodes += 1
                return super().items()

        states = []
        sweep_checkpoint = StreamingSweep.checkpoint

        def checkpoint(sweep, sink=None):
            states.append(State(sweep_checkpoint(sweep, sink)))
            return states[-1]

        monkeypatch.setattr(StreamingSweep, "checkpoint", checkpoint)
        specs = _three_tenants()
        kw = dict(machine=CRAY_XC30, virtual_p=4)
        rep = serve_trace(specs, self._mixed_trace(),
                          checkpoint_path=tmp_path / "serve.ck.json", **kw)
        self._check_mixed_report(rep)
        # one state per tenant at setup and one per committed refit, each
        # encoded once: predicts, the rollback and the pre-dispatch writes
        # encode none
        assert len(states) == len(specs) + 3
        assert [s.encodes for s in states] == [1] * len(states)
        # without a checkpoint file nothing is encoded
        states.clear()
        serve_trace(specs, self._mixed_trace(), **kw)
        assert len(states) == len(specs) + 3
        assert [s.encodes for s in states] == [0] * len(states)

    def test_resume_rejects_malformed_checkpoint_files(self, tmp_path):
        from repro.errors import CheckpointError
        specs = [_spec("a")]
        ck_path = tmp_path / "serve.ck.json"
        serve_trace(specs, [], checkpoint_path=ck_path, machine=CRAY_XC30)
        good = json.loads(ck_path.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([good]))
        with pytest.raises(CheckpointError, match="bad.json.*JSON list"):
            serve_trace(specs, [], resume_from=bad, machine=CRAY_XC30)
        for version in ("one", "1", 1.0, True, None, [1]):
            bad.write_text(json.dumps(dict(good, format_version=version)))
            with pytest.raises(CheckpointError,
                               match="bad.json.* format_version"):
                serve_trace(specs, [], resume_from=bad, machine=CRAY_XC30)

    def test_resume_from_file_mid_trace_matches_uninterrupted(self, tmp_path):
        specs = _three_tenants()
        trace = synthetic_trace(["a", "b", "c"], 16, seed=4, mean_gap=0.001,
                                rows=2, predict_frac=0.3,
                                append_budget={n: 12 for n in "abc"})
        kw = dict(machine=CRAY_XC30, virtual_p=4, queue_depth=8)
        full = serve_trace(specs, trace, **kw)
        ck_path = tmp_path / "serve.ck.json"

        class Killed(Exception):
            pass

        def kill(comm, tenant, dispatch_no, op):
            if dispatch_no == 6:
                raise Killed

        # the run dies with dispatch 6 in flight; its pre-dispatch
        # checkpoint is on disk and the resume replays that batch
        with pytest.raises(Killed):
            serve_trace(specs, trace, checkpoint_path=ck_path,
                        fault_hook=kill, **kw)
        assert json.loads(ck_path.read_text())["in_flight"] is not None
        indented = tmp_path / "serve.indented.json"
        indented.write_text(
            json.dumps(json.loads(ck_path.read_text()), indent=2) + "\n"
        )

        def outcomes(rep):
            return [(r["eidx"], r["outcome"], r["result_hash"])
                    for r in rep["requests"]]

        # a compact file and one in the indented layout that earlier
        # versions wrote resume alike
        for source in (ck_path, indented):
            resumed = serve_trace(specs, trace, resume_from=source, **kw)
            assert ([t["model_hash"] for t in resumed["tenants"]]
                    == [t["model_hash"] for t in full["tenants"]])
            assert outcomes(resumed) == outcomes(full)
            assert resumed["totals"]["recovered_requests"] >= 1

    def test_resume_rejects_older_nested_engine(self, tmp_path):
        # a serve checkpoint nests each tenant's streaming checkpoint,
        # whose own format_version gates the resume
        from repro.errors import CheckpointError
        specs = [_spec("a")]
        trace = synthetic_trace(["a"], 4, seed=1, mean_gap=0.001, rows=2,
                                append_budget={"a": 4})
        ck_path = tmp_path / "serve.ck.json"
        serve_trace(specs, trace, checkpoint_path=ck_path, machine=CRAY_XC30)
        ck = json.loads(ck_path.read_text())
        ck["tenants"]["a"]["engine"]["format_version"] = 1
        with pytest.raises(CheckpointError, match="format_version"):
            serve_trace(specs, trace, resume_from=ck, machine=CRAY_XC30)


@pytest.mark.slow
class TestProcessRecovery:
    def test_rank_death_recovers_and_isolates(self):
        """The PR acceptance scenario: 3 tenants on the process backend,
        one injected rank death mid-refit; the faulted tenant's batch is
        replayed after recovery and every tenant's final model is
        byte-identical to a fault-free run, with no orphaned workers."""
        specs = _three_tenants()
        trace = synthetic_trace(["a", "b", "c"], 12, seed=5, mean_gap=0.001,
                                rows=2, predict_frac=0.25,
                                append_budget={n: 16 for n in "abc"})
        kw = dict(queue_depth=8, max_coalesce=4, machine=CRAY_XC30,
                  backend="process", ranks=2, recover="checkpoint",
                  max_recoveries=2, run_timeout=180.0)
        oracle = serve_trace(specs, trace, **kw)
        _assert_no_orphans()

        def die_hook(comm, tenant, dispatch_no, op):
            rctx = getattr(comm, "recovery", None)
            if (dispatch_no == 3 and comm.rank == 1
                    and rctx is not None and rctx.recoveries == 0):
                os._exit(13)

        rep = serve_trace(specs, trace, fault_hook=die_hook, **kw)
        _assert_no_orphans()
        assert rep["recovery"]["recoveries"] == 1
        assert rep["recovery"]["respawns"] >= 1
        assert rep["recovery"]["replayed_requests"] >= 1
        by_name = {t["name"]: t for t in rep["tenants"]}
        oracle_by = {t["name"]: t for t in oracle["tenants"]}
        faulted = [n for n, t in by_name.items() if t["faults"] > 0]
        assert len(faulted) == 1
        for name in ("a", "b", "c"):
            # the replay is deterministic, so even the faulted tenant
            # converges to the fault-free model
            assert by_name[name]["model_hash"] == oracle_by[name]["model_hash"]
            assert by_name[name]["state"] == "active"
        assert (rep["totals"]["outcomes"]["completed"]
                == oracle["totals"]["outcomes"]["completed"])
        # predict results are also byte-identical across the fault
        def hashes(r):
            return [(q["eidx"], q["result_hash"]) for q in r["requests"]
                    if q["op"] == "predict" and q["outcome"] == "completed"]
        assert hashes(rep) == hashes(oracle)


# ---------------------------------------------------------------------------
# ledger counters
# ---------------------------------------------------------------------------
class TestLedgerCounters:
    def test_add_idle(self):
        led = CostLedger()
        led.add_idle(1.25)
        led.add_idle(0.25)
        assert led.idle_seconds == 1.5
        with pytest.raises(CostModelError):
            led.add_idle(-1.0)
        led.reset()
        assert led.idle_seconds == 0.0

    def test_add_request_event(self):
        led = CostLedger()
        led.add_request_event("rejected")
        led.add_request_event("timed_out", 3)
        led.add_request_event("quarantined")
        led.add_request_event("recovered", 2)
        assert led.requests_rejected == 1
        assert led.requests_timed_out == 3
        assert led.requests_quarantined == 1
        assert led.requests_recovered == 2
        s = led.summary()
        assert s["requests_timed_out"] == 3
        with pytest.raises(CostModelError):
            led.add_request_event("exploded")
        with pytest.raises(CostModelError):
            led.add_request_event("rejected", -1)
        led.reset()
        assert led.requests_rejected == 0

    def test_serve_patches_counters_onto_report_ledger(self):
        # the engine's final ledger mirrors its request counters (they
        # would otherwise be wiped by mid-run resets)
        specs = [_spec("a", seed=1)]
        trace = [TraceEvent(0.0, "a", op="append", rows=2, deadline=1e-9)]
        rep = serve_trace(specs, trace, machine=CRAY_XC30, virtual_p=4)
        assert rep["totals"]["outcomes"]["timed_out"] == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServeCli:
    def test_serve_cli_save(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "serve.json"
        rc = main([
            "serve", "--dataset", "covtype", "--cells", "3000",
            "--tenants", "3", "--requests", "12", "--gap", "0.0005",
            "--p", "4", "--save", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "serving 3 lasso tenants" in text
        assert "throughput" in text
        rep = json.loads(out.read_text())
        assert rep["format_version"] == SERVE_REPORT_VERSION
        assert rep["kind"] == "serve-report"
        assert len(rep["tenants"]) == 3
        assert all("recovery" in t for t in rep["tenants"])

    def test_serve_cli_rejects_bad_args(self, capsys):
        from repro.cli import main
        rc = main(["serve", "--dataset", "covtype", "--cells", "3000",
                   "--tenants", "0"])
        assert rc == 2
        assert "--tenants" in capsys.readouterr().err

    def test_stream_cli_sleep_token(self, capsys):
        from repro.cli import main
        rc = main(["stream", "--dataset", "covtype", "--cells", "2000",
                   "--schedule", "8,@0.25,8", "--p", "4"])
        assert rc == 0
        # bad sleep tokens surface as CLI errors, not tracebacks
        for sched in ("8,@oops", "8,@-1"):
            rc = main(["stream", "--dataset", "covtype", "--cells", "2000",
                       "--schedule", sched])
            assert rc == 2
