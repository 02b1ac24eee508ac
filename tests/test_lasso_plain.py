"""Tests for non-accelerated (SA-)BCD — paper's BCD/CD curves.

The central invariant (paper §III): with equal seeds, SA-BCD(s) produces
the same iterate sequence as BCD for any s, up to roundoff.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.machine.spec import CRAY_XC30
from repro.mpi.virtual_backend import VirtualComm
from repro.prox.penalties import ElasticNetPenalty, GroupLassoPenalty, ZeroPenalty
from repro.solvers.lasso import bcd, cd, sa_bcd, sa_cd
from repro.solvers.lasso.reference import coordinate_descent_reference, fista
from repro.solvers.objectives import lasso_objective


LAM = 0.9


class TestBcdBasics:
    def test_objective_decreases(self, small_regression):
        A, b, _ = small_regression
        res = bcd(A, b, LAM, mu=4, max_iter=200, seed=0)
        h = res.history.metric
        assert h[-1] < h[0]
        # proximal BCD with exact block Lipschitz is monotone
        assert all(b <= a + 1e-9 for a, b in zip(h, h[1:], strict=False))

    def test_reaches_fista_optimum(self, small_regression):
        A, b, _ = small_regression
        res = bcd(A, b, LAM, mu=4, max_iter=2000, seed=0, record_every=0)
        _, trace = fista(A, b, LAM, max_iter=4000)
        assert res.final_metric == pytest.approx(trace[-1], rel=1e-6)

    def test_final_metric_consistent_with_x(self, small_regression):
        A, b, _ = small_regression
        res = bcd(A, b, LAM, mu=2, max_iter=50, seed=1)
        assert lasso_objective(A, b, res.x, LAM) == pytest.approx(res.final_metric)

    def test_matches_sequential_reference(self, small_regression):
        A, b, _ = small_regression
        res = bcd(A, b, LAM, mu=4, max_iter=150, seed=7)
        x_ref, _ = coordinate_descent_reference(A, b, LAM, mu=4, max_iter=150, seed=7)
        assert np.allclose(res.x, x_ref, atol=1e-12)

    def test_dense_input(self, dense_regression):
        A, b, _ = dense_regression
        res = bcd(A, b, LAM, mu=3, max_iter=100, seed=0)
        assert res.history.metric[-1] < res.history.metric[0]

    def test_warm_start(self, small_regression):
        A, b, _ = small_regression
        r1 = bcd(A, b, LAM, mu=4, max_iter=300, seed=0, record_every=0)
        r2 = bcd(A, b, LAM, mu=4, max_iter=50, seed=1, x0=r1.x, record_every=0)
        assert r2.final_metric <= r1.final_metric * (1 + 1e-9)

    def test_x0_wrong_length(self, small_regression):
        A, b, _ = small_regression
        with pytest.raises(SolverError):
            bcd(A, b, LAM, x0=np.zeros(3), max_iter=5)

    def test_record_every_zero(self, small_regression):
        A, b, _ = small_regression
        res = bcd(A, b, LAM, mu=2, max_iter=40, seed=0, record_every=0)
        assert len(res.history) == 2  # initial + final
        assert res.history.iterations == [0, 40]

    def test_tol_stops_early(self, small_regression):
        A, b, _ = small_regression
        res = bcd(A, b, LAM, mu=8, max_iter=5000, seed=0, tol=1e-10)
        assert res.converged and res.iterations < 5000

    def test_zero_penalty(self, small_regression):
        A, b, _ = small_regression
        res = bcd(A, b, ZeroPenalty(), mu=4, max_iter=300, seed=0)
        assert res.history.metric[-1] < res.history.metric[0]


class TestSaEquivalence:
    @pytest.mark.parametrize("s", [1, 2, 5, 16, 100])
    def test_sa_matches_bcd(self, small_regression, s):
        A, b, _ = small_regression
        r = bcd(A, b, LAM, mu=4, max_iter=100, seed=3)
        rs = sa_bcd(A, b, LAM, mu=4, s=s, max_iter=100, seed=3)
        assert np.allclose(r.x, rs.x, atol=1e-10)
        rel = abs(r.final_metric - rs.final_metric) / abs(r.final_metric)
        assert rel < 1e-12  # paper Table III: machine-precision agreement

    def test_sa_matches_cd_mu1(self, small_regression):
        A, b, _ = small_regression
        r = cd(A, b, LAM, max_iter=200, seed=9)
        rs = sa_cd(A, b, LAM, s=50, max_iter=200, seed=9)
        assert np.allclose(r.x, rs.x, atol=1e-10)

    def test_cd_names(self, small_regression):
        A, b, _ = small_regression
        assert cd(A, b, LAM, max_iter=8).solver == "cd"
        assert sa_cd(A, b, LAM, s=4, max_iter=8).solver == "sa-cd(s=4)"

    def test_s_not_dividing_h(self, small_regression):
        # H=97 with s=16: last outer step has a short tail
        A, b, _ = small_regression
        r = bcd(A, b, LAM, mu=2, max_iter=97, seed=5)
        rs = sa_bcd(A, b, LAM, mu=2, s=16, max_iter=97, seed=5)
        assert rs.iterations == 97
        assert np.allclose(r.x, rs.x, atol=1e-10)

    def test_s_larger_than_h(self, small_regression):
        A, b, _ = small_regression
        r = bcd(A, b, LAM, mu=2, max_iter=10, seed=5)
        rs = sa_bcd(A, b, LAM, mu=2, s=64, max_iter=10, seed=5)
        assert np.allclose(r.x, rs.x, atol=1e-12)

    def test_history_iterations_align(self, small_regression):
        # SA records at outer-step boundaries only; there its objective
        # is the classical method's
        A, b, _ = small_regression
        r = bcd(A, b, LAM, mu=2, max_iter=60, seed=2)
        rs = sa_bcd(A, b, LAM, mu=2, s=10, max_iter=60, seed=2)
        assert rs.history.iterations == list(range(0, 61, 10))
        at = [r.history.iterations.index(it) for it in rs.history.iterations]
        assert np.allclose(np.take(r.history.metric, at), rs.history.metric, rtol=1e-10)

    def test_elastic_net_penalty(self, small_regression):
        A, b, _ = small_regression
        pen = ElasticNetPenalty(lam=0.4, scale=0.8)
        r = bcd(A, b, pen, mu=4, max_iter=80, seed=1)
        rs = sa_bcd(A, b, pen, mu=4, s=8, max_iter=80, seed=1)
        assert np.allclose(r.x, rs.x, atol=1e-10)
        assert r.history.metric[-1] < r.history.metric[0]

    def test_group_lasso_penalty(self, small_regression):
        A, b, _ = small_regression
        n = A.shape[1]
        gid = np.arange(n) // 4  # groups of 4
        pen = GroupLassoPenalty(0.6, group_ids=gid)
        r = bcd(A, b, pen, mu=2, max_iter=80, seed=1)
        rs = sa_bcd(A, b, pen, mu=2, s=8, max_iter=80, seed=1)
        assert np.allclose(r.x, rs.x, atol=1e-10)
        assert r.history.metric[-1] < r.history.metric[0]

    def test_invalid_s(self, small_regression):
        A, b, _ = small_regression
        with pytest.raises(SolverError):
            sa_bcd(A, b, LAM, s=0, max_iter=10)


class TestCommunicationCounts:
    def test_sa_reduces_messages_by_s(self, small_regression):
        A, b, _ = small_regression
        H, s, P = 64, 16, 256

        def run(fn, **kw):
            comm = VirtualComm(P, machine=CRAY_XC30)
            return fn(A, b, LAM, mu=2, max_iter=H, seed=0, comm=comm,
                      record_every=0, **kw)

        r = run(bcd)
        rs = run(sa_bcd, s=s)
        assert r.cost.messages == s * rs.cost.messages

    def test_sa_increases_words(self, small_regression):
        A, b, _ = small_regression

        def run(fn, **kw):
            comm = VirtualComm(64, machine=CRAY_XC30)
            return fn(A, b, LAM, mu=2, max_iter=32, seed=0, comm=comm,
                      record_every=0, **kw)

        r = run(bcd)
        rs = run(sa_bcd, s=8)
        assert rs.cost.words > r.cost.words
