"""Checkpoint/resume across solvers, paths, streaming, CLI, and I/O.

The acceptance contract: a run killed at iteration ``k`` and resumed
from its last checkpoint finishes within ``1e-9`` of the uninterrupted
run — for every solver family, blocking and pipelined, on any backend
(the replay-based sampler resume makes checkpoints backend-portable).
In practice resume is bit-exact; the tests pin ``<= 1e-9`` as the
contract and ``array_equal`` where exactness is load-bearing.
"""

import copy
import json
import os
import re

import numpy as np
import pytest

from repro._api import fit_lasso, fit_svm
from repro.checkpoint import (
    SOLVER_CHECKPOINT_VERSION,
    load_solver_checkpoint,
)
from repro.datasets import make_classification, make_sparse_regression
from repro.errors import CheckpointError
from repro.faults import InjectedFailure
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.path import lasso_path, svm_path
from repro.prox.penalties import ElasticNetPenalty, GroupLassoPenalty
from repro.serve import TenantSpec, TraceEvent, serve_trace
from repro.solvers.outer import Schedule
from repro.streaming import STREAM_CHECKPOINT_VERSION, StreamingSweep, replay_schedule
from repro.utils.io import (
    JSONText,
    TailEncoder,
    atomic_write_json,
    atomic_write_text,
    compact_json,
)

SEED = 5
TOL9 = 1e-9

LASSO_SOLVERS = ["bcd", "sa-bcd", "accbcd", "sa-accbcd"]
SVM_SOLVERS = ["svm", "sa-svm"]


def _lasso_kwargs(solver, pipeline=False):
    kw = dict(solver=solver, mu=2, max_iter=24, tol=None, seed=SEED,
              record_every=4)
    if solver.startswith("sa-"):
        kw.update(s=4, schedule=Schedule(ring=pipeline))
    return kw


def _svm_kwargs(solver, pipeline=False):
    kw = dict(solver=solver, loss="l2", lam=0.7, max_iter=40, tol=None,
              seed=SEED, record_every=8)
    if solver.startswith("sa-"):
        kw.update(s=4, schedule=Schedule(ring=pipeline))
    return kw


class _CrashingSink:
    """Callable sink that captures checkpoints, then kills the run."""

    def __init__(self, crash_at: int):
        self.crash_at = crash_at
        self.payloads = []

    def __call__(self, payload):
        self.payloads.append(payload)
        if payload["iteration"] >= self.crash_at:
            raise InjectedFailure(
                f"simulated crash at iteration {payload['iteration']}"
            )


class TestSolverCrashResume:
    """Crash at iteration k, resume from the last checkpoint, finish
    within 1e-9 of the uninterrupted run — every solver, both modes."""

    @pytest.mark.parametrize("solver", LASSO_SOLVERS)
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_lasso(self, dense_regression, solver, pipeline):
        if pipeline and not solver.startswith("sa-"):
            pytest.skip("pipeline needs an SA solver")
        A, b, _ = dense_regression
        kw = _lasso_kwargs(solver, pipeline)
        full = fit_lasso(A, b, 0.3, **kw)
        sink = _CrashingSink(crash_at=8)
        with pytest.raises(InjectedFailure):
            fit_lasso(A, b, 0.3, checkpoint_every=4, checkpoint_sink=sink,
                      **kw)
        assert sink.payloads, "no checkpoint was emitted before the crash"
        resumed = fit_lasso(A, b, 0.3, resume_from=sink.payloads[-1], **kw)
        assert np.max(np.abs(full.x - resumed.x)) <= TOL9
        assert resumed.iterations == full.iterations
        assert resumed.history.iterations == full.history.iterations

    @pytest.mark.parametrize("solver", SVM_SOLVERS)
    @pytest.mark.parametrize("pipeline", [False, True])
    def test_svm(self, small_classification, solver, pipeline):
        if pipeline and not solver.startswith("sa-"):
            pytest.skip("pipeline needs an SA solver")
        A, b = small_classification
        kw = _svm_kwargs(solver, pipeline)
        full = fit_svm(A, b, **kw)
        sink = _CrashingSink(crash_at=16)
        with pytest.raises(InjectedFailure):
            fit_svm(A, b, checkpoint_every=8, checkpoint_sink=sink, **kw)
        assert sink.payloads
        resumed = fit_svm(A, b, resume_from=sink.payloads[-1], **kw)
        assert np.max(np.abs(full.x - resumed.x)) <= TOL9
        assert np.max(np.abs(full.extras["alpha"]
                             - resumed.extras["alpha"])) <= TOL9


class TestBackendPortability:
    """One checkpoint file resumes under any backend and either mode."""

    def _emit(self, A, b, tmp_path, **kw):
        path = tmp_path / "ck.json"
        fit_lasso(A, b, 0.3, max_iter=8, checkpoint_every=8,
                  checkpoint_sink=str(path), **kw)
        return str(path)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_virtual_checkpoint_resumes_on_real_backend(
            self, dense_regression, tmp_path, backend):
        A, b, _ = dense_regression
        kw = dict(solver="sa-accbcd", mu=2, s=4, tol=None, seed=SEED)
        full = fit_lasso(A, b, 0.3, max_iter=20, **kw)
        path = self._emit(A, b, tmp_path, **kw)

        def work(comm, rank):
            res = fit_lasso(A, b, 0.3, max_iter=20, comm=comm,
                            resume_from=path, **kw)
            return res.x

        runner = spmd_run if backend == "thread" else process_spmd_run
        out = runner(work, 2)
        for x in out.values:
            assert np.max(np.abs(full.x - x)) <= TOL9

    def test_blocking_checkpoint_resumes_pipelined_and_cross_solver(
            self, dense_regression, tmp_path):
        A, b, _ = dense_regression
        kw = dict(mu=2, s=4, tol=None, seed=SEED)
        path = self._emit(A, b, tmp_path, solver="sa-bcd", **kw)
        full = fit_lasso(A, b, 0.3, solver="sa-bcd", max_iter=20, **kw)
        # blocking -> pipelined
        piped = fit_lasso(A, b, 0.3, solver="sa-bcd", max_iter=20,
                          schedule=Schedule(ring=True), resume_from=path, **kw)
        assert np.max(np.abs(full.x - piped.x)) <= TOL9
        # sa-bcd checkpoint resumes the classical solver of the family
        classical = fit_lasso(A, b, 0.3, solver="bcd", mu=2, tol=None,
                              seed=SEED, max_iter=20, resume_from=path)
        assert np.max(np.abs(full.x - classical.x)) <= TOL9


class TestValidation:
    def test_non_integer_seed_rejected(self, dense_regression):
        A, b, _ = dense_regression
        rng = np.random.default_rng(0)
        with pytest.raises(CheckpointError):
            fit_lasso(A, b, 0.3, solver="bcd", max_iter=4, seed=rng,
                      checkpoint_every=2, checkpoint_sink=lambda p: None)

    def test_family_seed_param_mismatches(self, dense_regression,
                                          small_classification):
        A, b, _ = dense_regression
        sink = []
        fit_lasso(A, b, 0.3, solver="bcd", mu=2, max_iter=4, tol=None,
                  seed=SEED, checkpoint_every=4,
                  checkpoint_sink=sink.append)
        ck = sink[-1]
        As, bs = small_classification
        with pytest.raises(CheckpointError):  # wrong family
            fit_svm(As, bs, solver="svm", max_iter=4, seed=SEED,
                    resume_from=ck)
        with pytest.raises(CheckpointError):  # wrong seed
            fit_lasso(A, b, 0.3, solver="bcd", mu=2, max_iter=8,
                      seed=SEED + 1, resume_from=ck)
        with pytest.raises(CheckpointError):  # wrong params (mu)
            fit_lasso(A, b, 0.3, solver="bcd", mu=4, max_iter=8,
                      seed=SEED, resume_from=ck)

    def test_version_and_kind_guards(self, dense_regression):
        A, b, _ = dense_regression
        sink = []
        fit_lasso(A, b, 0.3, solver="bcd", mu=2, max_iter=4, tol=None,
                  seed=SEED, checkpoint_every=4,
                  checkpoint_sink=sink.append)
        bad = dict(sink[-1], format_version=SOLVER_CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointError):
            load_solver_checkpoint(bad, family="lasso-plain", seed=SEED,
                                   params=bad["params"])
        with pytest.raises(CheckpointError):
            load_solver_checkpoint({"kind": "nope"}, family="lasso-plain",
                                   seed=SEED, params={})

    def test_unreadable_path_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_solver_checkpoint(str(tmp_path / "missing.json"),
                                   family="lasso-plain", seed=0, params={})


class TestCorruptedFiles:
    """Every on-disk corruption mode surfaces as a CheckpointError that
    names the offending path and the reason — never a raw
    JSONDecodeError/KeyError/TypeError escape."""

    def _good_payload(self, dense_regression):
        A, b, _ = dense_regression
        sink = []
        fit_lasso(A, b, 0.3, solver="bcd", mu=2, max_iter=4, tol=None,
                  seed=SEED, checkpoint_every=4,
                  checkpoint_sink=sink.append)
        return sink[-1]

    def _resume(self, dense_regression, path):
        A, b, _ = dense_regression
        return fit_lasso(A, b, 0.3, solver="bcd", mu=2, max_iter=8,
                         seed=SEED, resume_from=str(path))

    def test_missing_file_names_path(self, dense_regression, tmp_path):
        path = tmp_path / "never_written.json"
        with pytest.raises(CheckpointError, match="never_written"):
            self._resume(dense_regression, path)

    def test_truncated_file(self, dense_regression, tmp_path):
        payload = self._good_payload(dense_regression)
        path = tmp_path / "ck.json"
        atomic_write_json(str(path), payload)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="ck.json"):
            self._resume(dense_regression, path)

    def test_garbage_bytes(self, dense_regression, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_bytes(b"\x00\xffnot json at all\x7f")
        with pytest.raises(CheckpointError, match="garbage.json"):
            self._resume(dense_regression, path)

    def test_non_dict_json(self, dense_regression, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="expected"):
            self._resume(dense_regression, path)

    def test_wrong_version_on_disk(self, dense_regression, tmp_path):
        payload = dict(self._good_payload(dense_regression),
                       format_version=SOLVER_CHECKPOINT_VERSION + 7)
        path = tmp_path / "vers.json"
        atomic_write_json(str(path), payload)
        with pytest.raises(CheckpointError, match="format_version"):
            self._resume(dense_regression, path)

    def test_garbage_seed_in_checkpoint(self, dense_regression, tmp_path):
        payload = dict(self._good_payload(dense_regression),
                       seed="not-a-seed")
        path = tmp_path / "seed.json"
        atomic_write_json(str(path), payload)
        with pytest.raises(CheckpointError, match="seed"):
            self._resume(dense_regression, path)

    def test_garbage_state_vector(self, dense_regression, tmp_path):
        payload = self._good_payload(dense_regression)
        payload = dict(payload, state=dict(payload["state"], x="corrupt"))
        path = tmp_path / "state.json"
        atomic_write_json(str(path), payload)
        with pytest.raises(CheckpointError):
            self._resume(dense_regression, path)

    def test_wrong_length_state_vector(self, dense_regression, tmp_path):
        payload = self._good_payload(dense_regression)
        payload = dict(payload, state=dict(payload["state"], x=[1.0, 2.0]))
        path = tmp_path / "short.json"
        atomic_write_json(str(path), payload)
        with pytest.raises(CheckpointError):
            self._resume(dense_regression, path)

    def test_garbage_iteration(self, dense_regression, tmp_path):
        payload = dict(self._good_payload(dense_regression),
                       iteration="soon")
        path = tmp_path / "iter.json"
        atomic_write_json(str(path), payload)
        with pytest.raises(CheckpointError, match="iteration"):
            self._resume(dense_regression, path)


#: per path task: the SA and the classical knobs the path resume tests run
PATH_SA = {"lasso": dict(solver="sa-accbcd", mu=2, s=4),
           "svm": dict(solver="sa-svm", loss="l2", s=4)}
PATH_CLASSICAL = {"lasso": dict(solver="bcd", mu=2),
                  "svm": dict(solver="svm", loss="l2")}


def _path_case(task, request):
    """``(sweep, A, b)``: the task's path sweep and its small dense problem."""
    if task == "lasso":
        A, b, _ = request.getfixturevalue("dense_regression")
        return lasso_path, A, b
    A, b = request.getfixturevalue("dense_classification")
    return svm_path, A, b


class TestPathResume:
    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_path_checkpoint_resume_matches_full_sweep(self, task, request,
                                                       tmp_path):
        sweep, A, b = _path_case(task, request)
        kw = dict(n_lambdas=6, max_iter=20, tol=None, seed=SEED,
                  record_every=5, **PATH_SA[task])
        full = sweep(A, b, **kw)
        captured = []
        sweep(A, b, checkpoint_every=2, checkpoint_sink=captured.append, **kw)
        assert captured and captured[-1]["kind"] == f"{task}-path"
        mid = captured[0]  # 2 of 6 grid points completed
        assert mid["completed"] == 2
        resumed = sweep(A, b, resume_from=mid, **kw)
        assert np.array_equal(full.lambdas, resumed.lambdas)
        for rf, rr in zip(full.results, resumed.results, strict=True):
            assert np.max(np.abs(rf.x - rr.x)) <= TOL9

    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_path_file_round_trip(self, task, request, tmp_path):
        sweep, A, b = _path_case(task, request)
        path = tmp_path / "path_ck.json"
        kw = dict(n_lambdas=4, max_iter=12, tol=None, seed=SEED,
                  **PATH_CLASSICAL[task])
        full = sweep(A, b, **kw)
        sweep(A, b, checkpoint_every=1, checkpoint_sink=str(path), **kw)
        resumed = sweep(A, b, resume_from=str(path), **kw)
        for rf, rr in zip(full.results, resumed.results, strict=True):
            assert np.array_equal(rf.x, rr.x)

    @pytest.mark.parametrize("case", [
        "kind", "format_version", "params", "lambdas", "results",
        "warm-not-numeric", "warm-short", "result-missing-history",
        "result-not-object",
    ])
    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_malformed_checkpoint_is_checkpoint_error(self, task, case,
                                                      request, tmp_path):
        """Every malformed field is a CheckpointError, never a raw
        AttributeError/TypeError/ValueError or a failed solve; a ``kind``
        of the other task's path covers resuming the wrong sweep."""
        sweep, A, b = _path_case(task, request)
        kw = dict(n_lambdas=3, max_iter=8, tol=None, seed=SEED,
                  **PATH_CLASSICAL[task])
        captured = []
        sweep(A, b, checkpoint_every=1, checkpoint_sink=captured.append, **kw)
        ck = captured[-1]
        warm = "x_warm" if task == "lasso" else "alpha_warm"
        ck.update({
            "kind": {"kind": "svm-path" if task == "lasso" else "lasso-path"},
            "format_version": {"format_version": 2},
            "params": {"params": [1, 2]},
            "lambdas": {"lambdas": ["a"] * len(ck["lambdas"])},
            "results": {"results": None},
            "warm-not-numeric": {warm: ["a"] * len(ck[warm])},
            "warm-short": {warm: ck[warm][:-1]},
            "result-missing-history": {"results": [
                {k: v for k, v in d.items() if k != "history"}
                for d in ck["results"]
            ]},
            "result-not-object": {"results": [1] * len(ck["results"])},
        }[case])
        path = tmp_path / "bad.json"
        atomic_write_json(str(path), ck)
        with pytest.raises(CheckpointError):
            sweep(A, b, resume_from=str(path), **kw)

    @pytest.mark.parametrize("field, edit", [
        ("'completed'", lambda ck, warm: ck.pop("completed")),
        ("'completed'",
         lambda ck, warm: [ck.pop(k) for k in ("completed", "results")]),
        ("'completed'", lambda ck, warm: ck.update(completed=True)),
        ("'completed'", lambda ck, warm: ck.update(completed=2.0)),
        ("'results'", lambda ck, warm: ck.pop("results")),
        ("'results'", lambda ck, warm: ck.update(results=[1, 2])),
        ("'lambdas'", lambda ck, warm: ck.pop("lambdas")),
        ("'lambdas'", lambda ck, warm: ck.update(lambdas=["a", "b", "c"])),
        ("'params'", lambda ck, warm: ck.pop("params")),
        ("'params'", lambda ck, warm: ck.update(params=[1, 2])),
        ("WARM", lambda ck, warm: ck.pop(warm)),
        ("WARM", lambda ck, warm: ck.update({warm: None})),
    ], ids=["no-completed", "no-completed-or-results", "completed-bool",
            "completed-float", "no-results", "results-not-objects",
            "no-lambdas", "lambdas-not-numbers", "no-params",
            "params-not-object", "no-warm", "warm-null"])
    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_resume_names_malformed_field(self, task, field, edit, request,
                                          tmp_path):
        """A field missing or of the wrong type raises a CheckpointError
        naming the file and the field before any point runs; a checkpoint
        without ``completed`` and ``results`` once re-solved every point."""
        sweep, A, b = _path_case(task, request)
        kw = dict(n_lambdas=3, max_iter=8, tol=None, seed=SEED,
                  **PATH_CLASSICAL[task])
        captured = []
        sweep(A, b, checkpoint_every=1, checkpoint_sink=captured.append, **kw)
        ck = copy.deepcopy(captured[-1])
        assert ck["completed"] == 2
        warm = "x_warm" if task == "lasso" else "alpha_warm"
        edit(ck, warm)
        path = tmp_path / "bad.json"
        atomic_write_json(str(path), ck)
        field = repr(warm) if field == "WARM" else field
        with pytest.raises(CheckpointError,
                           match=f"bad.json.*{re.escape(field)}"):
            sweep(A, b, resume_from=str(path), **kw)

    @pytest.mark.slow
    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_process_checkpoint_resumes_on_virtual_backend(self, task,
                                                           tmp_path):
        """A path checkpoint is backend-portable: written on 2 process
        ranks, where a default Lasso grid's lambda_max is a 2-rank
        Allreduce, it resumes on the virtual backend, whose grid agrees
        only to rounding, and ends where the process sweep ended."""
        if task == "lasso":
            A, b, _ = make_sparse_regression(60, 24, density=0.4, seed=3)
        else:
            A, b = make_classification(60, 16, density=0.5, seed=5,
                                       margin=0.2)
        sweep = lasso_path if task == "lasso" else svm_path
        kw = dict(n_lambdas=4, max_iter=24, tol=None, seed=SEED,
                  **PATH_SA[task])
        path = tmp_path / "ck.json"
        full = sweep(A, b, backend="process", ranks=2, checkpoint_every=1,
                     checkpoint_sink=str(path), **kw)
        for virtual_p in (1, 2):
            resumed = sweep(A, b, virtual_p=virtual_p, resume_from=str(path),
                            **kw)
            scale = float(np.max(np.abs(full.coefs)))
            assert (float(np.max(np.abs(resumed.coefs - full.coefs)))
                    <= TOL9 * scale)


class TestStreamingResume:
    def _batches(self, n, rng):
        return [(rng.standard_normal((8, n)), rng.standard_normal(8)),
                ("evict_oldest", 5),
                (rng.standard_normal((6, n)), rng.standard_normal(6)),
                ("relabel_oldest", 4)]

    def test_engine_round_trip_and_materialize_equivalence(self):
        rng = np.random.default_rng(0)
        m, n = 60, 12
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        batches = self._batches(n, rng)
        eng = StreamingSweep(A, b, task="lasso", virtual_p=4, max_iter=40,
                             tol=None, seed=3)
        eng.append(*batches[0])
        eng.solve()
        ck = eng.checkpoint()
        eng.append(*batches[2])
        r_live = eng.solve()
        resumed = StreamingSweep.from_checkpoint(ck, virtual_p=4)
        resumed.append(*batches[2])
        r_resumed = resumed.solve()
        assert np.max(np.abs(r_live.x - r_resumed.x)) <= TOL9
        A1, b1 = eng.materialize()
        A2, b2 = resumed.materialize()
        assert np.array_equal(A1, A2) and np.array_equal(b1, b2)
        assert [r.rev for r in resumed.revisions] == [0, 1, 2]

    def test_closed_revision_entries_are_built_once(self):
        """A revision before the last can no longer change: every later
        checkpoint carries the entry its first one built, and the payload
        equals the one a resumed engine builds from scratch."""
        rng = np.random.default_rng(4)
        n = 8
        eng = StreamingSweep(rng.standard_normal((30, n)),
                             rng.standard_normal(30), mu=2, max_iter=10,
                             tol=None)
        eng.solve()
        first = eng.checkpoint()
        eng.append(rng.standard_normal((3, n)), rng.standard_normal(3))
        eng.evict([0, 1])
        eng.solve()
        second = eng.checkpoint()
        eng.solve()
        third = eng.checkpoint()
        assert second["revisions"][0] is third["revisions"][0]
        assert second["revisions"][1] is third["revisions"][1]
        assert first["revisions"][0] is not second["revisions"][0]
        assert len(third["revisions"][2]["solve_costs"]) == 2
        fresh = StreamingSweep.from_checkpoint(third).checkpoint()
        assert json.dumps(fresh) == json.dumps(third)
        # an engine always has its revision 0, so no revision at all is
        # a malformed checkpoint, not an engine to resume
        with pytest.raises(CheckpointError, match="'revisions' must be a non-empty"):
            StreamingSweep.from_checkpoint(dict(third, revisions=[]))

    def test_engine_rank_count_guard(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 6))
        b = rng.standard_normal(20)

        def work(comm, rank):
            eng = StreamingSweep(A, b, comm=comm, mu=2, max_iter=10,
                                 tol=None)
            return eng.checkpoint()

        ck = spmd_run(work, 2).values[0]  # taken at 2 real ranks
        with pytest.raises(CheckpointError):
            StreamingSweep.from_checkpoint(ck)  # virtual: 1 actual rank

    def test_engine_refuses_older_format(self):
        # version 1 payloads still carried the removed `parity` default:
        # resume refuses them up front instead of failing on the knob
        rng = np.random.default_rng(5)
        eng = StreamingSweep(rng.standard_normal((20, 6)), rng.standard_normal(20),
                             mu=2, max_iter=10, tol=None)
        ck = eng.checkpoint()
        assert ck["format_version"] == STREAM_CHECKPOINT_VERSION
        old = dict(ck, format_version=1, defaults=dict(ck["defaults"], parity="exact"))
        with pytest.raises(CheckpointError, match="format_version"):
            StreamingSweep.from_checkpoint(old)

    def test_replay_resume_report_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        m, n = 50, 10
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        batches = self._batches(n, rng)
        kw = dict(task="lasso", max_iter=30, seed=2, virtual_p=2,
                  compare_cold=True)
        full = replay_schedule(A, b, batches, **kw)
        ck_path = tmp_path / "replay_ck.json"
        # crash after two events: replay only the prefix, checkpointing
        replay_schedule(A, b, batches[:2], checkpoint_path=str(ck_path),
                        **kw)
        resumed = replay_schedule(A, b, batches, resume_from=str(ck_path),
                                  **kw)
        assert (json.dumps(full, sort_keys=True)
                == json.dumps(resumed, sort_keys=True))

    @pytest.mark.parametrize("lam", [
        ElasticNetPenalty(0.5, 0.3),
        GroupLassoPenalty(0.2, group_ids=np.repeat(np.arange(5), 2)),
    ], ids=["elastic-net", "group-lasso"])
    def test_replay_resume_with_penalty_lam(self, lam, tmp_path):
        """A Penalty ``lam`` rides the replay and engine checkpoints (by
        class name and fields) and resumes to the uninterrupted report."""
        rng = np.random.default_rng(2)
        m, n = 50, 10
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        batches = self._batches(n, rng)
        kw = dict(task="lasso", lam=lam, mu=2, max_iter=30, seed=2,
                  virtual_p=2, compare_cold=True)
        full = replay_schedule(A, b, batches, **kw)
        ck_path = tmp_path / "replay_penalty.json"
        replay_schedule(A, b, batches[:2], checkpoint_path=str(ck_path),
                        **kw)
        resumed = replay_schedule(A, b, batches, resume_from=str(ck_path),
                                  **kw)
        assert (json.dumps(full, sort_keys=True)
                == json.dumps(resumed, sort_keys=True))

    def test_replay_resume_svm_with_window(self, tmp_path):
        rng = np.random.default_rng(3)
        m, n = 40, 8
        A = rng.standard_normal((m, n))
        b = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
        y1 = np.where(rng.standard_normal(10) >= 0, 1.0, -1.0)
        y2 = np.where(rng.standard_normal(10) >= 0, 1.0, -1.0)
        batches = [(rng.standard_normal((10, n)), y1),
                   (rng.standard_normal((10, n)), y2)]
        kw = dict(task="svm", loss="l2", max_rows=45, max_iter=60, seed=1,
                  virtual_p=2)
        full = replay_schedule(A, b, batches, **kw)
        ck_path = tmp_path / "replay_svm.json"
        replay_schedule(A, b, batches[:1], checkpoint_path=str(ck_path),
                        **kw)
        resumed = replay_schedule(A, b, batches, resume_from=str(ck_path),
                                  **kw)
        assert (json.dumps(full, sort_keys=True)
                == json.dumps(resumed, sort_keys=True))

    def test_replay_resume_task_and_progress_guards(self, tmp_path):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((20, 6))
        b = rng.standard_normal(20)
        batches = [(rng.standard_normal((4, 6)), rng.standard_normal(4))]
        ck_path = tmp_path / "g.json"
        replay_schedule(A, b, batches, task="lasso", mu=2, max_iter=10,
                        seed=0, checkpoint_path=str(ck_path))
        with pytest.raises(CheckpointError):  # wrong task
            replay_schedule(A, np.where(b >= 0, 1.0, -1.0), batches,
                            task="svm", max_iter=10, seed=0,
                            resume_from=str(ck_path))
        with pytest.raises(CheckpointError):  # shorter schedule than applied
            replay_schedule(A, b, [], task="lasso", mu=2, max_iter=10,
                            seed=0, resume_from=str(ck_path))


#: every field a streaming checkpoint's resume reads, as a path into the
#: engine payload, and the replay wrapper's own fields
ENGINE_FIELDS = (
    [(k,) for k in ("task", "max_rows", "defaults", "matrix", "b", "offsets",
                    "arrivals", "next_arrival", "atb", "x_warm", "alpha_warm",
                    "revisions")]
    + [("defaults", k) for k in ("solver", "loss", "lam", "mu", "s",
                                 "max_iter", "tol", "seed", "record_every",
                                 "fast", "pipeline", "async_", "tau")]
    + [("revisions", 0, k) for k in ("rev", "rows_total", "rows_added",
                                     "rows_removed", "labels_changed",
                                     "append_cost", "evict_cost",
                                     "solve_costs")]
)
REPLAY_FIELDS = [(k,) for k in ("events_applied", "slept_seconds",
                                "lam_used", "entries", "engine")]
#: the resume path, the field's path from the top of its checkpoint
FIELD_CASES = (
    [("stream", f) for f in ENGINE_FIELDS]
    + [("replay", ("engine",) + f) for f in ENGINE_FIELDS]
    + [("replay", f) for f in REPLAY_FIELDS]
    + [("serve", ("tenants", "a", "engine") + f) for f in ENGINE_FIELDS]
)
#: a value of the wrong type for each field ("z" for all others)
MISTYPED = {"solver": "nope", "loss": 7}


class TestStreamCheckpointFields:
    """A streaming checkpoint with a field missing or of the wrong type
    raises a CheckpointError naming the field, before the resume changes
    any state, on each of the three paths that read one: the engine's
    own resume, a replay's and a serve tenant's."""

    KW = dict(task="lasso", mu=2, s=4, max_iter=12, tol=None, seed=SEED)

    @pytest.fixture(scope="class")
    def problem(self, tmp_path_factory):
        rng = np.random.default_rng(6)
        A, b = rng.standard_normal((48, 6)), rng.standard_normal(48)
        batches = [(rng.standard_normal((4, 6)), rng.standard_normal(4))]
        ck_dir = tmp_path_factory.mktemp("fields")
        replay_schedule(A, b, batches, checkpoint_path=ck_dir / "replay.json",
                        **self.KW)
        spec = TenantSpec(name="a", A=A, b=b, m0=40,
                          knobs=dict(s=4, mu=2, max_iter=12, tol=None))
        trace = [TraceEvent(0.0, "a", op="append", rows=2)]
        serve_trace([spec], trace, checkpoint_path=ck_dir / "serve.json")
        replay = json.loads((ck_dir / "replay.json").read_text())
        return {
            "stream": (replay["engine"], lambda ck: StreamingSweep.from_checkpoint(ck)),
            "replay": (replay, lambda ck: replay_schedule(
                A, b, batches, resume_from=ck, **self.KW)),
            "serve": (json.loads((ck_dir / "serve.json").read_text()),
                      lambda ck: serve_trace([spec], trace, resume_from=ck)),
        }

    def test_cases_cover_every_written_field(self, problem):
        engine, _ = problem["stream"]
        replay, _ = problem["replay"]
        written = ([(k,) for k in engine if k not in ("kind", "format_version")]
                   + [("defaults", k) for k in engine["defaults"]]
                   + [("revisions", 0, k) for k in engine["revisions"][0]])
        assert sorted(written, key=str) == sorted(ENGINE_FIELDS, key=str)
        assert sorted((k,) for k in replay) == sorted(
            [(k,) for k in ("kind", "format_version", "task", "warm_start")]
            + REPLAY_FIELDS)

    @pytest.mark.parametrize("how", ["missing", "mistyped"])
    @pytest.mark.parametrize(
        "resume, field", FIELD_CASES,
        ids=[f"{r}-{'.'.join(map(str, f))}" for r, f in FIELD_CASES])
    def test_names_the_field(self, problem, resume, field, how):
        payload, run = problem[resume]
        ck = copy.deepcopy(payload)
        block = ck
        for key in field[:-1]:
            block = block[key]
        if how == "missing":
            del block[field[-1]]
        else:
            block[field[-1]] = MISTYPED.get(field[-1], "z")
        named = ".".join(repr(k) if isinstance(k, str) else str(k) for k in field)
        pattern = ("has no field " if how == "missing" else "field ") + re.escape(named)
        with pytest.raises(CheckpointError, match=pattern):
            run(ck)


class TestCliStream:
    ARGS = ["stream", "--dataset", "covtype", "--cells", "3000",
            "--schedule", "6,-3,6", "--max-iter", "30"]

    def test_checkpoint_then_resume_identical_report(self, tmp_path, capsys):
        from repro.cli import main

        full_out = tmp_path / "full.json"
        ck = tmp_path / "ck.json"
        rc = main(self.ARGS + ["--save", str(full_out),
                               "--checkpoint", str(ck)])
        assert rc == 0
        res_out = tmp_path / "resumed.json"
        rc = main(self.ARGS + ["--save", str(res_out),
                               "--resume", str(ck)])
        assert rc == 0
        capsys.readouterr()
        full = json.loads(full_out.read_text())
        resumed = json.loads(res_out.read_text())
        assert (json.dumps(full, sort_keys=True)
                == json.dumps(resumed, sort_keys=True))

    def test_bad_resume_file_is_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(self.ARGS + ["--resume", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestAtomicWrites:
    def test_atomic_write_json_round_trip_and_no_temp_residue(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"a": [1.5, 2.5], "b": "x"})
        assert json.loads(target.read_text()) == {"a": [1.5, 2.5], "b": "x"}
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_preserves_previous_file(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"v": 1})
        with pytest.raises(TypeError):  # not JSON-serialisable
            atomic_write_json(target, {"v": object()})
        assert json.loads(target.read_text()) == {"v": 1}
        assert os.listdir(tmp_path) == ["out.json"]

    def test_json_text_writes_as_its_value_would(self, tmp_path):
        state = {"x": [0.1, 2.0, float("inf")], "s": "\u00e9\n"}
        # strings equal to the splice markers, and one that encodes with
        # the quoted marker inside it, must not capture a fragment
        strings = {"JSONText": "JSONText", "m": "JSONText_", "q": 'a "JSONText'}
        target = tmp_path / "out.json"
        atomic_write_json(target, dict(
            strings, t=[JSONText(state), JSONText([1, "JSONText"])],
            u=JSONText(None),
        ))
        want = dict(strings, t=[state, [1, "JSONText"]], u=None)
        assert (target.read_text()
                == json.dumps(want, separators=(",", ":")) + "\n")

    def test_json_text_nested_in_json_text_writes_as_its_value(self,
                                                                tmp_path):
        inner = JSONText({"x": [1.5, -0.0], "s": "JSONText"})
        outer = JSONText({"inner": inner, "list": [JSONText(None), 2]})
        target = tmp_path / "out.json"
        atomic_write_json(target, {"outer": outer, "again": inner})
        value = {"x": [1.5, -0.0], "s": "JSONText"}
        want = {"outer": {"inner": value, "list": [None, 2]}, "again": value}
        assert (target.read_text()
                == json.dumps(want, separators=(",", ":")) + "\n")

    def test_encode_hook_supplies_the_text(self, tmp_path):
        calls = []

        def encode(value):
            calls.append(value)
            return compact_json(value)

        text = JSONText([1, 2.5], encode)
        target = tmp_path / "out.json"
        for _ in range(2):
            atomic_write_json(target, {"t": text})
        assert target.read_text() == '{"t":[1,2.5]}\n'
        assert calls == [[1, 2.5]]  # encoded once, on the first write

    def test_streamed_write_failing_part_way_keeps_previous_file(
            self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"v": [1.0, 2.0]})
        before = target.read_bytes()
        fdopen, written = os.fdopen, []

        class FailsAfterFirstFragment:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, piece):
                if written:
                    raise OSError("simulated disk full")
                written.append(piece)
                return self.fh.write(piece)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(
            os, "fdopen",
            lambda *a, **kw: FailsAfterFirstFragment(fdopen(*a, **kw)))
        payload = {"a": JSONText([3.0] * 4), "b": JSONText({"c": "d"})}
        with pytest.raises(OSError, match="disk full"):
            atomic_write_json(target, payload)
        monkeypatch.undo()
        assert written == ['{"a":']  # the write failed part-way through
        assert target.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.json"]

    def test_interrupted_replace_leaves_no_partial_target(self, tmp_path,
                                                          monkeypatch):
        target = tmp_path / "out.json"
        atomic_write_text(target, "complete-v1")

        def boom(src, dst):
            raise OSError("simulated crash during replace")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "partial-v2")
        monkeypatch.undo()
        assert target.read_text() == "complete-v1"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_solver_checkpoint_file_is_valid_json_after_every_emit(
            self, dense_regression, tmp_path):
        A, b, _ = dense_regression
        path = tmp_path / "ck.json"
        seen = []

        def sink(payload):
            # mirror the file write, then verify the file parses — the
            # path emission happened just before for earlier iterations
            if path.exists():
                json.loads(path.read_text())
            seen.append(payload["iteration"])

        fit_lasso(A, b, 0.3, solver="bcd", mu=2, max_iter=12, tol=None,
                  seed=SEED, checkpoint_every=3, checkpoint_sink=sink)
        assert seen == [3, 6, 9, 12]


class TestTailEncoder:
    """``TailEncoder.encode(values)`` is ``compact_json(values)`` for any
    sequence of lists, whichever of its two paths it takes."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("lists", [
        # appended, including to and from an empty list
        [[], [0.5], [0.5, 1.25], [0.5, 1.25, 3.0, -2.0], []],
        [[1, 2], [1, 2, 3], [1, 2, 3, 40, 500], [1, 2, 3, 40, 500]],
        # truncated, then grown again
        [[0.1, 0.2, 0.3], [0.1, 0.2], [0.1, 0.2, 0.7]],
        # edited in place, at the head and at the end of the prefix
        [[0.1, 0.2, 0.3], [9.0, 0.2, 0.3, 0.4], [9.0, 0.2, 0.5, 0.4]],
        # a sliding window: the old part moves, at the boundary element too
        # or only before it
        [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0]],
        [[1.0, 2.0, 2.0], [2.0, 2.0, 2.0, 3.0]],
        # retyped: equal values of another type encode differently
        [[1, 2], [1.0, 2.0, 3.0], [1, 2, 3, 4], [True, 2, 3, 4, 5]],
        [[1.0, 0.0], [1, 0, 2], [1.0, 0, 2.0, 3.0]],
        # ... even where the bits agree: 0 and 0.0 both pack to zeros
        [[0.0], [0.0, 0.0], [0, 0, 5]],
        # signed zeros, NaN and the infinities
        [[0.0], [-0.0, 1.0], [-0.0, 1.0, NAN], [-0.0, 1.0, NAN, INF, -INF],
         [0.0, 1.0, NAN, INF, -INF], [0.0, 1.0, NAN, INF, -INF, -0.0]],
        # lists no array type packs: mixed, nested, strings, huge ints
        [[1, "a"], [1, "a", None], [[1.0], [2.0]], [[1.0], [2.0], [3.0]],
         [2**70], [2**70, 1], ["x"], ["x", "y"]],
    ])
    def test_text_is_compact_json(self, lists):
        enc = TailEncoder()
        for values in lists:
            assert enc.encode(values) == compact_json(values)

    def test_appends_encode_only_the_tail(self, monkeypatch):
        import repro.utils.io as io
        enc = TailEncoder()
        enc.encode([0.5, 1.5])
        seen = []
        real = io.compact_json
        monkeypatch.setattr(io, "compact_json",
                            lambda v: seen.append(list(v)) or real(v))
        assert enc.encode([0.5, 1.5, 2.5, 3.5]) == "[0.5,1.5,2.5,3.5]"
        assert enc.encode([0.5, 1.5, 2.5, 3.5]) == "[0.5,1.5,2.5,3.5]"
        assert seen == [[2.5, 3.5]]
        assert enc.encode([-0.0, 1.5, 2.5, 3.5, 4.5]) == \
            "[-0.0,1.5,2.5,3.5,4.5]"
        assert seen[-1] == [-0.0, 1.5, 2.5, 3.5, 4.5]

    def test_object_lists_extend_past_the_same_objects(self, monkeypatch):
        import repro.utils.io as io
        a, b, c = {"k": 1}, {"k": 2.5}, {"k": [3]}
        enc = TailEncoder()
        enc.encode([a, b])
        seen = []
        real = io.compact_json
        monkeypatch.setattr(io, "compact_json",
                            lambda v: seen.append(list(v)) or real(v))
        assert enc.encode([a, b, c]) == '[{"k":1},{"k":2.5},{"k":[3]}]'
        assert seen == [[c]]
        # an equal object that is not the one encoded is encoded again,
        # since only the very same object is known not to have changed
        again = [dict(a), b, c, {"k": 1.0}]
        assert enc.encode(again) == real(again)
        assert seen[-1] == again

    def test_a_moved_old_part_is_not_packed(self, monkeypatch):
        import repro.utils.io as io
        packed = []
        real = io._packed
        monkeypatch.setattr(io, "_packed",
                            lambda v, code: packed.append(v) or real(v, code))
        enc = TailEncoder()
        for start in range(4):  # a window of three slides by one
            window = [float(i) for i in range(start, start + 3)]
            assert enc.encode(window) == compact_json(window)
        assert packed == []


class TestPayloadShape:
    def test_make_solver_checkpoint_is_json_ready(self, dense_regression):
        A, b, _ = dense_regression
        sink = []
        fit_lasso(A, b, 0.3, solver="sa-accbcd", mu=2, s=4, max_iter=8,
                  tol=None, seed=SEED, checkpoint_every=4,
                  checkpoint_sink=sink.append)
        ck = sink[-1]
        round_tripped = json.loads(json.dumps(ck))
        assert round_tripped == ck
        assert ck["kind"] == "solver"
        assert ck["family"] == "lasso-acc"
        assert ck["format_version"] == SOLVER_CHECKPOINT_VERSION
        assert set(ck["ledger"]) >= {"retries", "timeouts", "flops"}

    def test_helper_requires_int_iteration(self):
        with pytest.raises(CheckpointError):
            load_solver_checkpoint(
                {"kind": "solver",
                 "format_version": SOLVER_CHECKPOINT_VERSION,
                 "family": "lasso-plain", "seed": 0, "params": {},
                 "iteration": -1},
                family="lasso-plain", seed=0, params={},
            )
