"""Edge-case and failure-injection tests across the solver stack."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import fit_lasso, fit_svm
from repro.datasets import make_classification, make_sparse_regression
from repro.errors import SolverError
from repro.solvers.lasso import acc_bcd, bcd, sa_acc_bcd, sa_bcd
from repro.solvers.svm import dcd, sa_dcd


class TestLassoEdges:
    def test_full_block_mu_equals_n(self, small_regression):
        A, b, _ = small_regression
        n = A.shape[1]
        r = bcd(A, b, 0.5, mu=n, max_iter=30, seed=0)
        rs = sa_bcd(A, b, 0.5, mu=n, s=5, max_iter=30, seed=0)
        assert np.allclose(r.x, rs.x, atol=1e-10)
        assert r.history.metric[-1] < r.history.metric[0]

    def test_zero_matrix_no_progress_no_crash(self):
        A = sp.csr_matrix((20, 10))
        b = np.ones(20)
        res = bcd(A, b, 0.5, mu=2, max_iter=10, seed=0)
        assert np.count_nonzero(res.x) == 0
        assert res.final_metric == pytest.approx(10.0)  # 0.5*||b||^2

    def test_zero_matrix_acc(self):
        A = np.zeros((8, 4))
        b = np.ones(8)
        res = sa_acc_bcd(A, b, 0.5, mu=2, s=4, max_iter=12, seed=0)
        assert np.all(res.x == 0.0)

    def test_single_column(self):
        A, b, _ = make_sparse_regression(30, 1, density=1.0, seed=0)
        r = acc_bcd(A, b, 0.01, mu=1, max_iter=40, seed=0)
        rs = sa_acc_bcd(A, b, 0.01, mu=1, s=8, max_iter=40, seed=0)
        assert np.allclose(r.x, rs.x, atol=1e-10)

    def test_single_row(self):
        A, b, _ = make_sparse_regression(1, 10, density=1.0, seed=0)
        res = bcd(A, b, 0.01, mu=2, max_iter=50, seed=0)
        assert res.history.metric[-1] <= res.history.metric[0]

    def test_max_iter_one(self, small_regression):
        A, b, _ = small_regression
        r = bcd(A, b, 0.5, mu=2, max_iter=1, seed=0)
        rs = sa_bcd(A, b, 0.5, mu=2, s=8, max_iter=1, seed=0)
        assert r.iterations == rs.iterations == 1
        assert np.allclose(r.x, rs.x)

    def test_duplicate_columns_matrix(self):
        # rank-deficient A with identical columns: eta finite, no blowup
        col = np.random.default_rng(0).standard_normal((30, 1))
        A = np.hstack([col] * 6)
        b = np.random.default_rng(1).standard_normal(30)
        res = sa_bcd(A, b, 0.1, mu=3, s=4, max_iter=60, seed=0)
        assert np.all(np.isfinite(res.x))
        assert res.history.metric[-1] <= res.history.metric[0] + 1e-9

    def test_huge_lambda_yields_zero(self, small_regression):
        A, b, _ = small_regression
        lam = 100 * float(np.max(np.abs(A.T @ b)))
        res = fit_lasso(A, b, lam=lam, solver="sa-bcd", mu=4, s=8,
                        max_iter=100)
        assert np.count_nonzero(res.x) == 0


class TestSvmEdges:
    def test_two_samples(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([1.0, -1.0])
        r = dcd(A, b, loss="l2", max_iter=100, seed=0)
        rs = sa_dcd(A, b, loss="l2", s=20, max_iter=100, seed=0)
        assert np.allclose(r.x, rs.x, atol=1e-12)
        assert r.x[0] > 0  # separating direction found

    def test_all_same_label(self):
        # degenerate but legal: every sample positive
        A, _ = make_classification(20, 8, density=0.8, seed=0)
        b = np.ones(20)
        res = dcd(A, b, loss="l2", max_iter=200, seed=0)
        assert np.all(np.isfinite(res.x))
        assert res.final_metric < res.history.metric[0]

    def test_zero_feature_rows(self):
        # rows with no features: eta = gamma (L2) or 0 (L1) — both guarded
        A = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0],
                                    [3.0, -1.0]]))
        b = np.array([1.0, -1.0, -1.0, 1.0])
        for loss in ("l1", "l2"):
            res = sa_dcd(A, b, loss=loss, s=10, max_iter=80, seed=0)
            assert np.all(np.isfinite(res.x)), loss

    def test_duplicate_rows_sampled_repeatedly(self):
        # m=2 forces heavy duplicate sampling inside every outer step
        A = np.array([[1.0, 2.0], [2.0, -1.0]])
        b = np.array([1.0, -1.0])
        r = dcd(A, b, loss="l1", max_iter=300, seed=4)
        rs = sa_dcd(A, b, loss="l1", s=100, max_iter=300, seed=4)
        assert np.allclose(r.extras["alpha"], rs.extras["alpha"], atol=1e-12)

    def test_lam_extremes(self, small_classification):
        A, b = small_classification
        tiny = fit_svm(A, b, loss="l1", lam=1e-4, max_iter=500, seed=0)
        big = fit_svm(A, b, loss="l1", lam=100.0, max_iter=500, seed=0)
        assert np.all(np.isfinite(tiny.x)) and np.all(np.isfinite(big.x))
        # alpha box scales with lam for L1
        assert np.max(tiny.extras["alpha"]) <= 1e-4 + 1e-12


class TestGramOverflow:
    """Data scaled by 1e155: the reduced Gram overflows float64. Every
    family raises SolverError at its first reduction, naming the
    overflow, instead of returning a zero model (mu = 1: every step size
    is 1/inf), failing inside LAPACK (mu > 1) or reporting divergence."""

    SCALE = 1e155

    @pytest.mark.parametrize("mu", [1, 4])
    @pytest.mark.parametrize("solver", [bcd, sa_bcd, acc_bcd, sa_acc_bcd])
    def test_lasso(self, solver, mu):
        A, b, _ = make_sparse_regression(200, 40, density=0.2, seed=0)
        # lam scaled with A: the scaled problem's solution is x / SCALE
        with pytest.raises(SolverError, match="Gram block overflowed"):
            solver(A * self.SCALE, b, 0.5 * self.SCALE, mu=mu, max_iter=40, seed=0)

    @pytest.mark.parametrize("solver", [dcd, sa_dcd])
    def test_svm(self, solver):
        A, b = make_classification(200, 40, density=0.2, seed=0)
        with pytest.raises(SolverError, match="Gram block overflowed"):
            solver(A * self.SCALE, b, max_iter=200, seed=0)

    def test_pipelined_reduction(self):
        A, b, _ = make_sparse_regression(200, 40, density=0.2, seed=0)
        with pytest.raises(SolverError, match="Gram block overflowed"):
            sa_acc_bcd(A * self.SCALE, b, 0.5 * self.SCALE, mu=4, s=8,
                       max_iter=40, seed=0, pipeline=True)


class TestDeterminism:
    def test_repeat_runs_bitwise_identical(self, small_regression):
        A, b, _ = small_regression
        x1 = sa_acc_bcd(A, b, 0.5, mu=4, s=8, max_iter=64, seed=9,
                        record_every=0).x
        x2 = sa_acc_bcd(A, b, 0.5, mu=4, s=8, max_iter=64, seed=9,
                        record_every=0).x
        assert np.array_equal(x1, x2)

    def test_different_seeds_differ(self, small_regression):
        A, b, _ = small_regression
        x1 = bcd(A, b, 0.5, mu=2, max_iter=10, seed=1, record_every=0).x
        x2 = bcd(A, b, 0.5, mu=2, max_iter=10, seed=2, record_every=0).x
        assert not np.array_equal(x1, x2)

    def test_symmetric_pack_does_not_change_iterates(self, small_regression):
        A, b, _ = small_regression
        x1 = sa_acc_bcd(A, b, 0.5, mu=4, s=8, max_iter=48, seed=0,
                        symmetric_pack=True, record_every=0).x
        x2 = sa_acc_bcd(A, b, 0.5, mu=4, s=8, max_iter=48, seed=0,
                        symmetric_pack=False, record_every=0).x
        assert np.allclose(x1, x2, atol=1e-13)
