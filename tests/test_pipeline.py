"""Pipelined SA solvers: iterate parity, ledger honesty, SPMD backends.

The acceptance contract: pipelined ``sa_*`` solvers drift <= 1e-9 from
the blocking reference (they are in fact bit-identical — same sampled
blocks, same rank-ordered folds), charge identical traffic (messages,
words, flops), and charge comm *time* only for the unoverlapped latency
remainder (``charged + hidden == blocking``).
"""

import numpy as np
import pytest

from repro._api import fit_lasso, fit_svm
from repro.datasets import make_sparse_regression
from repro.errors import SolverError
from repro.machine.spec import CRAY_XC30
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.lasso import sa_acc_bcd, sa_bcd
from repro.solvers.outer import Schedule
from repro.solvers.svm import sa_dcd

LAM = 0.5


@pytest.fixture(scope="module")
def lasso_problem():
    return make_sparse_regression(400, 150, density=0.1, seed=0)


def _rel_drift(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


class TestIterateParity:
    @pytest.mark.parametrize("mu,s,H", [
        (1, 8, 64),
        (4, 16, 100),
        (2, 8, 30),  # truncated final outer step (30 % 8 != 0)
    ])
    def test_sa_bcd_drift(self, lasso_problem, mu, s, H):
        A, b, _ = lasso_problem
        kw = dict(mu=mu, s=s, max_iter=H, seed=1, record_every=5)
        base = sa_bcd(A, b, LAM, **kw)
        pip = sa_bcd(A, b, LAM, pipeline=True, **kw)
        assert _rel_drift(pip.x, base.x) <= 1e-9
        assert pip.iterations == base.iterations
        assert pip.history.metric == base.history.metric

    @pytest.mark.parametrize("mu,s,fast", [
        (1, 8, True),
        (4, 16, True),
        (2, 8, False),
    ])
    def test_sa_acc_bcd_drift(self, lasso_problem, mu, s, fast):
        A, b, _ = lasso_problem
        kw = dict(mu=mu, s=s, max_iter=96, seed=1, record_every=5, fast=fast)
        base = sa_acc_bcd(A, b, LAM, **kw)
        pip = sa_acc_bcd(A, b, LAM, pipeline=True, **kw)
        assert _rel_drift(pip.x, base.x) <= 1e-9
        assert pip.history.metric == base.history.metric

    @pytest.mark.parametrize("loss,s", [("l1", 16), ("l2", 8)])
    def test_sa_dcd_drift(self, small_classification, loss, s):
        A, b = small_classification
        kw = dict(loss=loss, s=s, max_iter=120, seed=2, record_every=0)
        base = sa_dcd(A, b, **kw)
        pip = sa_dcd(A, b, pipeline=True, **kw)
        assert _rel_drift(pip.x, base.x) <= 1e-9
        assert np.array_equal(pip.extras["alpha"], base.extras["alpha"])

    def test_early_stop_matches(self, lasso_problem):
        # SA records fall at outer-step boundaries: this solve meets tol
        # at iteration 808
        A, b, _ = lasso_problem
        kw = dict(mu=2, s=8, max_iter=2000, seed=1, tol=1e-10, record_every=1)
        base = sa_bcd(A, b, LAM, **kw)
        pip = sa_bcd(A, b, LAM, pipeline=True, **kw)
        assert base.converged and pip.converged
        assert pip.iterations == base.iterations
        assert np.array_equal(pip.x, base.x)

    def test_warm_start_matches(self, lasso_problem):
        A, b, _ = lasso_problem
        x0 = np.linspace(-0.1, 0.1, A.shape[1])
        kw = dict(mu=2, s=8, max_iter=40, seed=3, record_every=0, x0=x0)
        base = sa_acc_bcd(A, b, LAM, **kw)
        pip = sa_acc_bcd(A, b, LAM, pipeline=True, **kw)
        assert np.array_equal(pip.x, base.x)


class TestLedgerHonesty:
    def test_identical_traffic_only_unoverlapped_latency(self, lasso_problem):
        A, b, _ = lasso_problem
        kw = dict(mu=4, s=16, max_iter=96, seed=1, record_every=0)
        base = sa_acc_bcd(A, b, LAM, comm=VirtualComm(1024, machine=CRAY_XC30), **kw)
        pip = sa_acc_bcd(A, b, LAM, comm=VirtualComm(1024, machine=CRAY_XC30),
                         pipeline=True, **kw)
        # traffic and compute identical
        assert pip.cost.messages == base.cost.messages
        assert pip.cost.words == pytest.approx(base.cost.words)
        assert pip.cost.flops == pytest.approx(base.cost.flops)
        # blocking hides nothing; pipelined hides the overlapped part and
        # charged + hidden reconstructs the blocking bill exactly
        assert base.cost.comm_seconds_hidden == 0.0
        assert pip.cost.comm_seconds_hidden > 0.0
        assert pip.cost.comm_seconds + pip.cost.comm_seconds_hidden == \
            pytest.approx(base.cost.comm_seconds)
        assert pip.cost.comm_seconds < base.cost.comm_seconds

    def test_svm_ledger_honesty(self, small_classification):
        A, b = small_classification
        kw = dict(loss="l2", s=16, max_iter=96, seed=0, record_every=0)
        base = sa_dcd(A, b, comm=VirtualComm(256, machine=CRAY_XC30), **kw)
        pip = sa_dcd(A, b, comm=VirtualComm(256, machine=CRAY_XC30),
                     pipeline=True, **kw)
        assert pip.cost.messages == base.cost.messages
        assert pip.cost.words == pytest.approx(base.cost.words)
        assert pip.cost.comm_seconds + pip.cost.comm_seconds_hidden == \
            pytest.approx(base.cost.comm_seconds)


class TestPipelineOnSpmdBackends:
    @pytest.mark.parametrize(
        "runner",
        [spmd_run,
         pytest.param(process_spmd_run, marks=pytest.mark.slow)],
        ids=["thread", "process"])
    def test_lasso_matches_sequential(self, lasso_problem, runner):
        A, b, _ = lasso_problem
        seq = sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=48, seed=1,
                         record_every=0).x

        def fn(comm, rank):
            return sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=48, seed=1,
                              comm=comm, record_every=0, pipeline=True).x

        res = runner(fn, 3)
        for xv in res.values:
            assert np.allclose(xv, seq, atol=1e-10)

    @pytest.mark.parametrize(
        "runner",
        [spmd_run,
         pytest.param(process_spmd_run, marks=pytest.mark.slow)],
        ids=["thread", "process"])
    def test_svm_matches_sequential(self, small_classification, runner):
        A, b = small_classification
        seq = sa_dcd(A, b, loss="l1", s=16, max_iter=96, seed=5,
                     record_every=0).x

        def fn(comm, rank):
            return sa_dcd(A, b, loss="l1", s=16, max_iter=96, seed=5,
                          comm=comm, record_every=0, pipeline=True).x

        res = runner(fn, 3)
        for xv in res.values:
            assert np.allclose(xv, seq, atol=1e-10)

    def test_pipeline_bitwise_vs_blocking_under_threads(self, lasso_problem):
        A, b, _ = lasso_problem

        def fn(comm, rank, pipeline):
            return sa_bcd(A, b, LAM, mu=2, s=8, max_iter=40, seed=2,
                          comm=comm, record_every=0, pipeline=pipeline).x

        blocking = spmd_run(fn, 3, args=(False,))
        pipelined = spmd_run(fn, 3, args=(True,))
        assert np.array_equal(blocking.values[0], pipelined.values[0])


class TestApiKnob:
    def test_fit_lasso_pipeline(self, lasso_problem):
        A, b, _ = lasso_problem
        base = fit_lasso(A, b, LAM, solver="sa-accbcd", mu=2, s=8, max_iter=40,
                         record_every=0)
        pip = fit_lasso(A, b, LAM, solver="sa-accbcd", mu=2, s=8, max_iter=40,
                        record_every=0, schedule=Schedule(ring=True))
        assert np.array_equal(base.x, pip.x)

    def test_fit_svm_pipeline(self, small_classification):
        A, b = small_classification
        base = fit_svm(A, b, solver="sa-svm", s=16, max_iter=80, record_every=0)
        pip = fit_svm(A, b, solver="sa-svm", s=16, max_iter=80, record_every=0,
                      schedule=Schedule(ring=True))
        assert np.array_equal(base.x, pip.x)

    def test_pipeline_rejected_for_non_sa(self, lasso_problem):
        A, b, _ = lasso_problem
        with pytest.raises(SolverError, match="pipeline"):
            fit_lasso(A, b, LAM, solver="bcd", schedule=Schedule(ring=True))
        with pytest.raises(SolverError, match="pipeline"):
            fit_svm(A, b, solver="svm", schedule=Schedule(ring=True))
