"""Tests for the high-level fit_lasso / fit_svm API."""

import numpy as np
import pytest

from repro import ElasticNetPenalty, fit_lasso, fit_svm
from repro.errors import SolverError
from repro.machine.spec import CRAY_XC30


class TestFitLasso:
    def test_default_solver(self, small_regression):
        A, b, _ = small_regression
        res = fit_lasso(A, b, lam=0.9, max_iter=100)
        assert res.solver.startswith("sa-accbcd")
        assert res.x.shape == (A.shape[1],)

    @pytest.mark.parametrize("solver", ["bcd", "sa-bcd", "accbcd", "sa-accbcd"])
    def test_all_solvers(self, small_regression, solver):
        A, b, _ = small_regression
        res = fit_lasso(A, b, lam=0.9, solver=solver, max_iter=60, mu=2, s=8)
        assert res.history.metric[-1] < res.history.metric[0]

    def test_penalty_object(self, small_regression):
        A, b, _ = small_regression
        res = fit_lasso(A, b, lam=ElasticNetPenalty(0.5, scale=0.5),
                        max_iter=60)
        assert np.all(np.isfinite(res.x))

    def test_unknown_solver(self, small_regression):
        A, b, _ = small_regression
        with pytest.raises(SolverError):
            fit_lasso(A, b, lam=1.0, solver="adam")

    def test_virtual_p_and_machine(self, small_regression):
        A, b, _ = small_regression
        res = fit_lasso(A, b, lam=0.9, virtual_p=1024, machine=CRAY_XC30,
                        max_iter=30, record_every=0)
        assert res.cost.comm_seconds > 0

    def test_equivalence_through_api(self, small_regression):
        A, b, _ = small_regression
        r1 = fit_lasso(A, b, lam=0.9, solver="accbcd", mu=2, max_iter=50, seed=3)
        r2 = fit_lasso(A, b, lam=0.9, solver="sa-accbcd", mu=2, s=10,
                       max_iter=50, seed=3)
        assert np.allclose(r1.x, r2.x, atol=1e-10)

    def test_sparsity_induced(self, small_regression):
        A, b, _ = small_regression
        lam_big = float(np.max(np.abs(A.T @ b))) * 2
        res = fit_lasso(A, b, lam=lam_big, solver="bcd", mu=4, max_iter=400)
        assert np.count_nonzero(res.x) < A.shape[1] // 2


class TestWarmStarts:
    """Satellite: x0 round-trips through every lasso solver (fast and
    reference) and the SVM dual init through fit_svm."""

    @pytest.mark.parametrize("solver", ["bcd", "sa-bcd", "accbcd", "sa-accbcd"])
    @pytest.mark.parametrize("fast", [True, False])
    def test_x0_roundtrip_all_lasso_solvers(self, small_regression, solver,
                                            fast):
        A, b, _ = small_regression
        ref = fit_lasso(A, b, lam=0.9, solver=solver, mu=2, s=8,
                        max_iter=120, fast=fast)
        # restarting from the solution stays at the solution
        again = fit_lasso(A, b, lam=0.9, solver=solver, mu=2, s=8,
                          max_iter=40, x0=ref.x, fast=fast)
        assert again.history.metric[0] == pytest.approx(ref.final_metric)
        assert again.final_metric <= ref.final_metric * (1 + 1e-9)

    @pytest.mark.parametrize("solver", ["bcd", "sa-bcd", "accbcd", "sa-accbcd"])
    def test_x0_wrong_length_rejected(self, small_regression, solver):
        A, b, _ = small_regression
        with pytest.raises(SolverError):
            fit_lasso(A, b, lam=0.9, solver=solver, max_iter=10,
                      x0=np.ones(A.shape[1] + 1))

    @pytest.mark.parametrize("solver", ["svm", "sa-svm"])
    def test_alpha0_roundtrip_svm(self, small_classification, solver):
        A, b = small_classification
        ref = fit_svm(A, b, loss="l1", solver=solver, max_iter=400)
        warm = fit_svm(A, b, loss="l1", solver=solver, max_iter=100,
                       alpha0=ref.extras["alpha"])
        # the warm solve starts from the reference's gap, not from zero
        assert warm.history.metric[0] == pytest.approx(ref.final_metric)
        assert warm.final_metric <= ref.history.metric[0]

    @pytest.mark.parametrize("solver", ["svm", "sa-svm"])
    def test_infeasible_alpha0_rejected(self, small_classification, solver):
        A, b = small_classification
        m = A.shape[0]
        with pytest.raises(SolverError):
            fit_svm(A, b, loss="l1", lam=1.0, solver=solver, max_iter=10,
                    alpha0=np.full(m, 5.0))  # above nu = lam
        with pytest.raises(SolverError):
            fit_svm(A, b, loss="l2", solver=solver, max_iter=10,
                    alpha0=np.full(m, -0.1))  # negative


class TestFitSvm:
    def test_default_sa(self, small_classification):
        A, b = small_classification
        res = fit_svm(A, b, loss="l2", max_iter=500)
        assert res.solver.startswith("sa-svm")
        assert res.final_metric < res.history.metric[0]

    def test_classical(self, small_classification):
        A, b = small_classification
        res = fit_svm(A, b, solver="svm", loss="l1", max_iter=300)
        assert "alpha" in res.extras

    def test_tol(self, small_classification):
        A, b = small_classification
        res = fit_svm(A, b, loss="l2", max_iter=10**5, tol=1.0,
                      record_every=200)
        assert res.converged

    def test_unknown_solver(self, small_classification):
        A, b = small_classification
        with pytest.raises(SolverError):
            fit_svm(A, b, solver="smo")

    def test_equivalence_through_api(self, small_classification):
        A, b = small_classification
        r1 = fit_svm(A, b, solver="svm", loss="l1", max_iter=200, seed=9)
        r2 = fit_svm(A, b, solver="sa-svm", s=25, loss="l1", max_iter=200, seed=9)
        assert np.allclose(r1.x, r2.x, atol=1e-11)


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
