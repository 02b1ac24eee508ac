"""Tests for accelerated (SA-)BCD — paper Algorithms 1 and 2."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.prox.penalties import ElasticNetPenalty
from repro.solvers.lasso import acc_bcd, acc_cd, sa_acc_bcd, sa_acc_cd
from repro.solvers.lasso.common import theta_next
from repro.solvers.lasso.reference import fista
from repro.solvers.objectives import lasso_objective


LAM = 0.9


class TestThetaRecurrence:
    def test_decreasing(self):
        th = 0.25
        for _ in range(50):
            nxt = theta_next(th)
            assert 0 < nxt < th
            th = nxt

    def test_known_fixed_point_behaviour(self):
        # theta_h ~ 2/(h + 2/theta_0) asymptotically; just sanity-check decay
        th = 1.0
        for _ in range(1000):
            th = theta_next(th)
        assert th < 2e-3

    def test_invalid(self):
        with pytest.raises(SolverError):
            theta_next(0.0)


class TestAccBcdBasics:
    def test_objective_decreases_overall(self, small_regression):
        A, b, _ = small_regression
        res = acc_bcd(A, b, LAM, mu=4, max_iter=400, seed=0)
        h = res.history.metric
        assert h[-1] < 0.1 * h[0]

    def test_approaches_fista_optimum(self, small_regression):
        A, b, _ = small_regression
        res = acc_bcd(A, b, LAM, mu=8, max_iter=4000, seed=0, record_every=0)
        _, trace = fista(A, b, LAM, max_iter=4000)
        assert res.final_metric <= trace[-1] * 1.01

    def test_final_metric_consistent_with_x(self, small_regression):
        A, b, _ = small_regression
        res = acc_bcd(A, b, LAM, mu=2, max_iter=77, seed=1)
        assert lasso_objective(A, b, res.x, LAM) == pytest.approx(res.final_metric)

    def test_initial_objective_is_at_x0(self, small_regression):
        A, b, _ = small_regression
        x0 = np.linspace(-0.5, 0.5, A.shape[1])
        res = acc_bcd(A, b, LAM, mu=2, max_iter=5, seed=0, x0=x0)
        assert res.history.metric[0] == pytest.approx(
            lasso_objective(A, b, x0, LAM)
        )

    def test_acc_faster_than_plain_on_iterations(self, small_regression):
        # the paper's Fig. 2/3 observation: accelerated converges faster
        from repro.solvers.lasso import bcd

        A, b, _ = small_regression
        H = 1500
        r_plain = bcd(A, b, LAM, mu=2, max_iter=H, seed=0, record_every=0)
        r_acc = acc_bcd(A, b, LAM, mu=2, max_iter=H, seed=0, record_every=0)
        assert r_acc.final_metric <= r_plain.final_metric * 1.05

    def test_dense_input(self, dense_regression):
        A, b, _ = dense_regression
        res = acc_bcd(A, b, LAM, mu=2, max_iter=200, seed=0)
        assert res.history.metric[-1] < res.history.metric[0]


class TestSaAccEquivalence:
    @pytest.mark.parametrize("s", [1, 2, 7, 16, 128])
    def test_sa_matches_acc(self, small_regression, s):
        A, b, _ = small_regression
        r = acc_bcd(A, b, LAM, mu=4, max_iter=128, seed=3)
        rs = sa_acc_bcd(A, b, LAM, mu=4, s=s, max_iter=128, seed=3)
        assert np.allclose(r.x, rs.x, atol=1e-9)
        rel = abs(r.final_metric - rs.final_metric) / abs(r.final_metric)
        assert rel < 1e-12  # paper Table III

    def test_sa_acc_cd(self, small_regression):
        A, b, _ = small_regression
        r = acc_cd(A, b, LAM, max_iter=150, seed=2)
        rs = sa_acc_cd(A, b, LAM, s=30, max_iter=150, seed=2)
        assert np.allclose(r.x, rs.x, atol=1e-9)

    def test_acc_cd_names(self, small_regression):
        A, b, _ = small_regression
        assert acc_cd(A, b, LAM, max_iter=8).solver == "acccd"
        assert sa_acc_cd(A, b, LAM, s=4, max_iter=8).solver == "sa-acccd(s=4)"

    def test_large_s_1000_stable(self, small_regression):
        # paper Fig. 2 uses s = 1000 without numerical trouble
        A, b, _ = small_regression
        r = acc_bcd(A, b, LAM, mu=1, max_iter=1000, seed=0, record_every=0)
        rs = sa_acc_bcd(A, b, LAM, mu=1, s=1000, max_iter=1000, seed=0,
                        record_every=0)
        rel = abs(r.final_metric - rs.final_metric) / abs(r.final_metric)
        assert rel < 1e-10
        assert np.all(np.isfinite(rs.x))

    def test_history_alignment(self, small_regression):
        # SA records at outer-step boundaries only; there its objective
        # is the classical method's
        A, b, _ = small_regression
        r = acc_bcd(A, b, LAM, mu=2, max_iter=48, seed=4)
        rs = sa_acc_bcd(A, b, LAM, mu=2, s=12, max_iter=48, seed=4)
        assert rs.history.iterations == list(range(0, 49, 12))
        at = [r.history.iterations.index(it) for it in rs.history.iterations]
        assert np.allclose(np.take(r.history.metric, at), rs.history.metric, rtol=1e-9)

    def test_tail_outer_step(self, small_regression):
        A, b, _ = small_regression
        r = acc_bcd(A, b, LAM, mu=2, max_iter=50, seed=4, record_every=0)
        rs = sa_acc_bcd(A, b, LAM, mu=2, s=16, max_iter=50, seed=4, record_every=0)
        assert rs.iterations == 50
        assert np.allclose(r.x, rs.x, atol=1e-9)

    def test_elastic_net(self, small_regression):
        A, b, _ = small_regression
        pen = ElasticNetPenalty(lam=0.3, scale=0.5)
        r = acc_bcd(A, b, pen, mu=4, max_iter=96, seed=6)
        rs = sa_acc_bcd(A, b, pen, mu=4, s=16, max_iter=96, seed=6)
        assert np.allclose(r.x, rs.x, atol=1e-9)

    def test_theta_extras_match(self, small_regression):
        A, b, _ = small_regression
        r = acc_bcd(A, b, LAM, mu=2, max_iter=64, seed=0, record_every=0)
        rs = sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=64, seed=0, record_every=0)
        assert r.extras["theta"] == pytest.approx(rs.extras["theta"], rel=1e-12)

    def test_invalid_s(self, small_regression):
        A, b, _ = small_regression
        with pytest.raises(SolverError):
            sa_acc_bcd(A, b, LAM, s=-1, max_iter=10)

    def test_x0_propagates(self, small_regression):
        A, b, _ = small_regression
        x0 = np.full(A.shape[1], 0.1)
        r = acc_bcd(A, b, LAM, mu=2, max_iter=32, seed=1, x0=x0)
        rs = sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=32, seed=1, x0=x0)
        assert np.allclose(r.x, rs.x, atol=1e-10)
