"""One launcher: argument checks and kill-and-recover per entry point.

Nine entry points can run on real ranks: ``fit_lasso``, ``fit_svm``,
``lasso_path``, ``svm_path``, ``run_lasso``, ``run_svm``,
``replay_schedule``, ``serve_trace`` and the CLI's ``lasso-path``. All of
them dispatch through :func:`repro.launch.launch`. Two layers pin that:

* **argument checks** (tier-1) — each entry point rejects an unknown
  backend, a bad ``recover``, ``recover="checkpoint"`` off the process
  backend, ``ranks < 1`` on a real backend and ``comm=`` with a real
  backend (where it takes ``comm``) with a :class:`CommError` carrying
  the same message, before any rank starts, the path sweeps on the
  virtual backend included.
* **kill-and-recover** (``slow``) — on 2 forked ranks under
  ``recover="checkpoint"``, rank 1 is hard-killed once, on the first
  attempt only (a marker file records the kill). The call must return,
  count one recovery wherever its result carries the counter, replay
  from a solver checkpoint where one exists, and land within 1e-9
  relative of the fault-free run.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

import repro.path
from repro import fit_lasso, fit_svm
from repro.cli import main
from repro.datasets import make_classification, make_sparse_regression, save_libsvm
from repro.errors import CommError
from repro.experiments import runner
from repro.experiments.runner import load_scaled, run_lasso, run_svm
from repro.machine.spec import CRAY_XC30
from repro.mpi.virtual_backend import VirtualComm
from repro.path import lasso_path, svm_path
from repro.serve import TenantSpec, serve_trace
from repro.streaming import StreamingSweep, replay_schedule

RANKS = 2
REL = 1e-9


def _lasso_problem():
    A, b, _ = make_sparse_regression(60, 24, density=0.4, seed=3)
    return A, b


def _svm_problem():
    return make_classification(60, 16, density=0.5, seed=5, margin=0.2)


@pytest.fixture(scope="module")
def lasso_ds():
    return load_scaled("covtype", target_cells=4000, seed=0)


@pytest.fixture(scope="module")
def svm_ds():
    return load_scaled("gisette", target_cells=4000, seed=0)


@pytest.fixture(scope="module")
def lasso_file(tmp_path_factory):
    A, b = _lasso_problem()
    path = tmp_path_factory.mktemp("launch") / "lasso.svm"
    save_libsvm(path, A, b)
    return str(path)


def _assert_no_orphans(timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        kids = [p for p in multiprocessing.active_children()
                if p.name.startswith("spmd-proc")]
        if not kids:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned SPMD workers: {kids}")


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------
#: (keyword overrides, the exact message every entry point raises)
BAD = {
    "unknown-backend": (
        dict(backend="mpi"),
        "unknown backend 'mpi'; known: ['virtual', 'thread', 'process']",
    ),
    "bad-recover": (
        dict(recover="retry"),
        "recover must be 'raise' or 'checkpoint', got 'retry'",
    ),
    "checkpoint-off-process": (
        dict(backend="thread", recover="checkpoint"),
        "recover='checkpoint' needs backend='process' (the supervised"
        " worker pool); thread/virtual ranks cannot die independently",
    ),
    "checkpoint-on-virtual": (
        dict(recover="checkpoint"),
        "recover='checkpoint' needs backend='process' (the supervised"
        " worker pool); thread/virtual ranks cannot die independently",
    ),
    "ranks": (
        dict(backend="thread", ranks=0),
        "ranks must be >= 1, got 0",
    ),
    "comm-with-real-backend": (
        dict(backend="thread", comm=VirtualComm(2)),
        "pass either comm= or backend=; a non-virtual backend builds"
        " its own communicators",
    ),
}


def _entry_points(lasso_ds, svm_ds):
    """name -> call(**overrides), each a small solve on one rank"""
    A, b = _lasso_problem()
    As, bs = _svm_problem()
    batches = [make_sparse_regression(8, 24, density=0.4, seed=4)[:2]]
    spec = TenantSpec(name="t", A=A, b=b, m0=48, task="lasso")
    return {
        "fit_lasso": lambda **kw: fit_lasso(A, b, 0.5, max_iter=8, **kw),
        "fit_svm": lambda **kw: fit_svm(As, bs, max_iter=8, **kw),
        "lasso_path": lambda **kw: lasso_path(A, b, n_lambdas=2, max_iter=8,
                                              **kw),
        "svm_path": lambda **kw: svm_path(As, bs, n_lambdas=2, max_iter=8,
                                          **kw),
        "run_lasso": lambda **kw: run_lasso(lasso_ds, "sa-bcd", s=4,
                                            max_iter=8, **kw),
        "run_svm": lambda **kw: run_svm(svm_ds, "sa-svm-l1", s=4, max_iter=8,
                                        **kw),
        "replay_schedule": lambda **kw: replay_schedule(A, b, batches,
                                                        max_iter=8, **kw),
        "serve_trace": lambda **kw: serve_trace([spec], [], **kw),
    }


#: the entry points that also take a caller's communicator
TAKES_COMM = ("fit_lasso", "fit_svm", "lasso_path", "svm_path")
CASES = [
    (entry, case)
    for entry in (*TAKES_COMM, "run_lasso", "run_svm", "replay_schedule",
                  "serve_trace")
    for case in sorted(BAD)
    if case != "comm-with-real-backend" or entry in TAKES_COMM
]


class TestArgumentChecks:
    @pytest.mark.parametrize(("entry", "case"), CASES)
    def test_one_error_type_and_message(self, entry, case, lasso_ds, svm_ds):
        overrides, message = BAD[case]
        with pytest.raises(CommError) as exc:
            _entry_points(lasso_ds, svm_ds)[entry](**overrides)
        assert str(exc.value) == message
        _assert_no_orphans()

    def test_cli_lasso_path(self, lasso_file, capsys):
        for argv, message in (
            (["--backend", "thread", "--recover", "checkpoint"],
             BAD["checkpoint-off-process"][1]),
            (["--backend", "thread", "--ranks", "0"], BAD["ranks"][1]),
        ):
            rc = main(["lasso-path", "--file", lasso_file, "--n-lambdas", "2",
                       "--max-iter", "8", *argv])
            assert rc == 2
            assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_cli_serve_checks_before_loading(self, capsys):
        # the data file is never read: the check comes first
        rc = main(["serve", "--file", "/nonexistent/data.svm",
                   "--backend", "thread", "--recover", "checkpoint"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: {BAD['checkpoint-off-process'][1]}"


# ---------------------------------------------------------------------------
# kill-and-recover, one entry point at a time
# ---------------------------------------------------------------------------
def _kill_rank1_once(marker) -> None:
    """Hard-kill rank 1 of a process run, the first time only."""
    if (multiprocessing.current_process().name == "spmd-proc-1"
            and not os.path.exists(marker)):
        with open(marker, "w"):
            pass
        os._exit(1)


def _killing_sink(marker):
    """A checkpoint sink that kills rank 1 at its first checkpoint."""
    def sink(payload):
        _kill_rank1_once(marker)
    return sink


def _killing_solver(fn, marker):
    """``fn`` with rank 1 killed right after its first checkpoint."""
    def solve(*args, checkpoint_sink=None, **kwargs):
        def sink(payload):
            if checkpoint_sink is not None:
                checkpoint_sink(payload)
            _kill_rank1_once(marker)
        return fn(*args, checkpoint_sink=sink, **kwargs)
    return solve


def _killing_at_call(fn, marker, at: int):
    """``fn`` with rank 1 killed on entry to its call number ``at``."""
    calls = [0]

    def call(*args, **kwargs):
        calls[0] += 1
        if calls[0] == at:
            _kill_rank1_once(marker)
        return fn(*args, **kwargs)
    return call


def _assert_close(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), 1e-30)
    assert float(np.max(np.abs(got - want))) <= REL * scale


def _assert_recovered(res, marker) -> None:
    assert os.path.exists(marker)
    assert res.cost.recoveries == 1
    assert res.cost.replayed_iterations > 0
    _assert_no_orphans()


PROCESS = dict(backend="process", ranks=RANKS, machine=CRAY_XC30)
RECOVER = dict(PROCESS, recover="checkpoint", max_recoveries=2)


@pytest.mark.slow
class TestKillAndRecover:
    @pytest.mark.parametrize("mu", (1, 2))
    @pytest.mark.parametrize("solver", ("sa-bcd", "sa-accbcd"))
    def test_fit_lasso(self, solver, mu, tmp_path):
        A, b = _lasso_problem()
        kw = dict(solver=solver, mu=mu, s=4, max_iter=24, record_every=4)
        oracle = fit_lasso(A, b, 0.3, **kw, **PROCESS)
        marker = tmp_path / "killed"
        res = fit_lasso(A, b, 0.3, **kw, **RECOVER,
                        checkpoint_sink=_killing_sink(marker))
        _assert_recovered(res, marker)
        _assert_close(res.x, oracle.x)
        assert res.iterations == oracle.iterations

    @pytest.mark.parametrize("loss", ("l1", "l2"))
    def test_fit_svm(self, loss, tmp_path):
        A, b = _svm_problem()
        kw = dict(loss=loss, s=4, max_iter=48, record_every=8)
        oracle = fit_svm(A, b, **kw, **PROCESS)
        marker = tmp_path / "killed"
        res = fit_svm(A, b, **kw, **RECOVER,
                      checkpoint_sink=_killing_sink(marker))
        _assert_recovered(res, marker)
        _assert_close(res.x, oracle.x)
        _assert_close(res.extras["alpha"], oracle.extras["alpha"])

    def test_lasso_path(self, tmp_path):
        A, b = _lasso_problem()
        kw = dict(n_lambdas=4, mu=2, s=4, max_iter=24, record_every=4)
        oracle = lasso_path(A, b, **kw, **PROCESS)
        marker = tmp_path / "killed"
        res = lasso_path(A, b, **kw, **RECOVER,
                         checkpoint_sink=_killing_sink(marker))
        assert os.path.exists(marker)
        _assert_no_orphans()
        np.testing.assert_array_equal(res.lambdas, oracle.lambdas)
        _assert_close(res.coefs, oracle.coefs)
        assert res.iterations == oracle.iterations

    def test_svm_path(self, monkeypatch, tmp_path):
        """The SVM sweep has no path checkpoints: it restarts from
        scratch, so the answer is the fault-free one."""
        A, b = _svm_problem()
        kw = dict(n_lambdas=3, s=4, max_iter=48)
        oracle = svm_path(A, b, **kw, **PROCESS)
        marker = tmp_path / "killed"
        monkeypatch.setattr(repro.path, "fit_svm",
                            _killing_at_call(repro.path.fit_svm, marker, 2))
        res = svm_path(A, b, **kw, **RECOVER)
        assert os.path.exists(marker)
        _assert_no_orphans()
        _assert_close(res.coefs, oracle.coefs)

    def test_run_lasso(self, lasso_ds, monkeypatch, tmp_path):
        kw = dict(mu=2, s=4, max_iter=24, record_every=4)
        oracle = run_lasso(lasso_ds, "sa-accbcd", **kw, **PROCESS)
        marker = tmp_path / "killed"
        monkeypatch.setitem(
            runner.LASSO_SOLVERS, "sa-accbcd",
            _killing_solver(runner.LASSO_SOLVERS["sa-accbcd"], marker),
        )
        res = run_lasso(lasso_ds, "sa-accbcd", **kw, **RECOVER)
        _assert_recovered(res, marker)
        _assert_close(res.x, oracle.x)
        assert res.cost.seconds == pytest.approx(oracle.cost.seconds, rel=REL)

    def test_run_svm(self, svm_ds, monkeypatch, tmp_path):
        kw = dict(s=4, max_iter=48, record_every=8)
        oracle = run_svm(svm_ds, "sa-svm-l2", **kw, **PROCESS)
        marker = tmp_path / "killed"
        monkeypatch.setitem(
            runner.SVM_SOLVERS, "sa-svm-l2",
            _killing_solver(runner.SVM_SOLVERS["sa-svm-l2"], marker),
        )
        res = run_svm(svm_ds, "sa-svm-l2", **kw, **RECOVER)
        _assert_recovered(res, marker)
        _assert_close(res.x, oracle.x)

    def test_replay_schedule(self, monkeypatch, tmp_path):
        A, b = _lasso_problem()
        batches = [make_sparse_regression(8, 24, density=0.4, seed=k)[:2]
                   for k in (4, 5)]
        kw = dict(mu=2, s=4, max_iter=24, record_every=4, tol=None)
        oracle = replay_schedule(A, b, batches, **kw, **PROCESS)
        marker = tmp_path / "killed"
        # the initial fit and the first refit complete; rank 1 dies
        # entering the second refit
        monkeypatch.setattr(
            StreamingSweep, "solve",
            _killing_at_call(StreamingSweep.solve, marker, 3),
        )
        rep = replay_schedule(A, b, batches, **kw, **RECOVER)
        assert os.path.exists(marker)
        _assert_no_orphans()
        assert rep["recovery"]["recoveries"] == 1
        assert rep["recovery"]["replayed_iterations"] > 0
        assert len(rep["revisions"]) == len(oracle["revisions"])
        for got, want in zip(rep["revisions"], oracle["revisions"],
                             strict=True):
            assert got["warm"]["iterations"] == want["warm"]["iterations"]
            assert got["warm"]["final_metric"] == pytest.approx(
                want["warm"]["final_metric"], rel=REL)

    def test_cli_lasso_path(self, lasso_file, monkeypatch, tmp_path, capsys):
        argv = ["lasso-path", "--file", lasso_file, "--n-lambdas", "3",
                "--mu", "2", "--s", "4", "--max-iter", "24",
                "--record-every", "4", "--backend", "process",
                "--ranks", str(RANKS)]
        assert main(argv) == 0
        oracle = capsys.readouterr().out
        marker = tmp_path / "killed"
        monkeypatch.setattr(repro.path, "fit_lasso",
                            _killing_at_call(repro.path.fit_lasso, marker, 2))
        assert main([*argv, "--recover", "checkpoint"]) == 0
        assert os.path.exists(marker)
        _assert_no_orphans()
        assert capsys.readouterr().out == oracle
