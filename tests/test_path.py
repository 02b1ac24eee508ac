"""Tests for the warm-started regularization-path engine."""

import numpy as np
import pytest

from repro import Schedule, fit_lasso, lasso_path, svm_path
from repro.datasets import make_sparse_regression
from repro.errors import SolverError
from repro.experiments.runner import load_scaled
from repro.linalg.distmatrix import RowPartitionedMatrix
from repro.linalg.kernels import EigMemo, eig_cache_clear, eig_cache_info
from repro.machine.spec import CRAY_XC30
from repro.mpi.virtual_backend import VirtualComm
from repro.path import PathResult, SweepContext, adaptive_schedule, lambda_grid
from repro.solvers.objectives import lambda_max, lasso_objective


@pytest.fixture(scope="module")
def path_problem():
    """A problem where the path's small-lambda tail needs real work."""
    return make_sparse_regression(400, 150, density=0.1, k_nonzero=10,
                                  noise=0.02, seed=11)


class TestLambdaGrid:
    def test_descending_geometric(self):
        g = lambda_grid(10.0, n_lambdas=5, eps=1e-2)
        assert g.shape == (5,)
        assert g[0] == pytest.approx(10.0)
        assert g[-1] == pytest.approx(0.1)
        assert np.all(np.diff(g) < 0)

    def test_single_point(self):
        assert np.array_equal(lambda_grid(3.0, n_lambdas=1), [3.0])

    @pytest.mark.parametrize("bad", [dict(n_lambdas=0), dict(eps=0.0),
                                     dict(eps=1.5)])
    def test_invalid(self, bad):
        with pytest.raises(SolverError):
            lambda_grid(1.0, **bad)

    def test_nonpositive_lam_max(self):
        with pytest.raises(SolverError):
            lambda_grid(0.0)


class TestLassoPath:
    def test_default_grid_from_lambda_max(self, path_problem):
        A, b, _ = path_problem
        path = lasso_path(A, b, n_lambdas=4, mu=2, s=8, max_iter=100)
        assert len(path) == 4
        assert path.lambdas[0] == pytest.approx(lambda_max(A, b))
        # at lambda_max, x = 0 is optimal
        assert np.count_nonzero(path.results[0].x) == 0

    def test_matches_independent_cold_solves(self, path_problem):
        """Warm-started points reach (at least) the cold solves' quality."""
        A, b, _ = path_problem
        grid = lambda_grid(lambda_max(A, b), n_lambdas=5, eps=1e-2)
        kw = dict(mu=4, s=8, max_iter=400, tol=1e-7, record_every=10, seed=0)
        path = lasso_path(A, b, grid, **kw)
        for lam, res in zip(path.lambdas, path.results, strict=True):
            cold = fit_lasso(A, b, float(lam), **kw)
            warm_obj = lasso_objective(A, b, res.x, float(lam))
            cold_obj = lasso_objective(A, b, cold.x, float(lam))
            assert warm_obj <= cold_obj * (1.0 + 1e-4) + 1e-12

    def test_warm_start_fewer_iterations_fig3(self):
        """Satellite: warm start from the previous lambda beats cold
        start in recorded iterations on the fig3 configuration."""
        ds = load_scaled("news20", target_cells=20_000.0, seed=0)
        grid = lambda_grid(lambda_max(ds.A, ds.b), n_lambdas=6, eps=1e-3)
        kw = dict(solver="sa-accbcd", mu=8, s=16, max_iter=2000, tol=1e-5,
                  record_every=20, seed=3)
        warm = lasso_path(ds.A, ds.b, grid, warm_start=True, **kw)
        cold = lasso_path(ds.A, ds.b, grid, warm_start=False, **kw)
        assert sum(warm.iterations) < sum(cold.iterations)
        # and the hardest (smallest-lambda) point individually benefits
        assert warm.iterations[-1] < cold.iterations[-1]

    def test_per_point_costs_do_not_accumulate(self, path_problem):
        """Satellite: the shared ledger is reset per point, so each
        SolverResult carries per-point cost, not the running total."""
        A, b, _ = path_problem
        path = lasso_path(A, b, n_lambdas=4, mu=2, s=8, max_iter=64,
                          tol=None, record_every=0, virtual_p=64,
                          machine=CRAY_XC30)
        msgs = [r.cost.messages for r in path.results]
        # every point ran the same iteration budget => same message count
        # (accumulation would make the sequence strictly increasing)
        assert len(set(msgs)) == 1 and msgs[0] > 0
        assert path.total_cost.messages == sum(msgs)
        assert path.context.total_cost.messages == sum(msgs)

    def test_explicit_grid_sorted_descending(self, path_problem):
        A, b, _ = path_problem
        path = lasso_path(A, b, [0.1, 5.0, 1.0], mu=1, s=4, max_iter=40)
        assert np.all(np.diff(path.lambdas) < 0)

    def test_empty_grid_rejected(self, path_problem):
        A, b, _ = path_problem
        with pytest.raises(SolverError):
            lasso_path(A, b, [])

    def test_support_grows_along_path(self, path_problem):
        A, b, _ = path_problem
        path = lasso_path(A, b, n_lambdas=6, eps=1e-3, mu=4, s=8,
                          max_iter=400, tol=1e-7)
        sizes = path.support_sizes(1e-10)
        assert sizes[0] == 0
        assert sizes[-1] >= max(sizes[:-1])

    def test_result_properties(self, path_problem):
        A, b, _ = path_problem
        path = lasso_path(A, b, n_lambdas=3, mu=2, s=4, max_iter=40)
        assert isinstance(path, PathResult)
        assert path.coefs.shape == (3, A.shape[1])
        assert len(path.iterations) == 3
        assert path.final_metrics.shape == (3,)


class TestSweepContext:
    def test_reuses_one_partitioned_matrix(self, path_problem):
        A, b, _ = path_problem
        ctx = SweepContext(A, b, task="lasso")
        dist = ctx.dist
        lasso_path(A, b, n_lambdas=3, mu=2, s=4, max_iter=24, context=ctx)
        lasso_path(A, b, n_lambdas=2, mu=2, s=4, max_iter=24, context=ctx)
        assert ctx.dist is dist
        assert len(ctx.point_costs) == 5

    def test_adopts_prebuilt_dist(self, path_problem):
        A, b, _ = path_problem
        comm = VirtualComm(1)
        dist = RowPartitionedMatrix.from_global(A, comm)
        ctx = SweepContext(dist, b, task="lasso")
        assert ctx.dist is dist and ctx.comm is comm

    def test_task_validation(self, path_problem):
        A, b, _ = path_problem
        with pytest.raises(SolverError):
            SweepContext(A, b, task="ridge")
        ctx = SweepContext(A, b, task="svm")
        with pytest.raises(SolverError):
            lasso_path(A, b, [1.0], context=ctx)

    def test_wrong_layout_rejected(self, path_problem):
        A, b, _ = path_problem
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        with pytest.raises(SolverError):
            SweepContext(dist, b, task="svm")

    def test_mismatched_problem_rejected(self, path_problem):
        """context= sweeps solve the context's dataset; a different
        (A, b) pair is an error, not a silently-wrong result."""
        A, b, _ = path_problem
        ctx = SweepContext(A, b, task="lasso")
        A2, b2, _ = make_sparse_regression(30, 12, density=0.5, seed=1)
        with pytest.raises(SolverError):
            lasso_path(A2, b2, [1.0], context=ctx)
        with pytest.raises(SolverError):
            lasso_path(A, b + 1.0, [1.0], context=ctx)
        # same shape, different values (e.g. rescaled features)
        with pytest.raises(SolverError):
            lasso_path(A * 3.0, b, [1.0], context=ctx)

    def test_adopted_comm_totals_survive_via_child(self, path_problem):
        """The documented escape hatch: sweeping on comm.child() leaves
        the parent communicator's accumulated ledger intact."""
        A, b, _ = path_problem
        parent = VirtualComm(virtual_size=64, machine=CRAY_XC30)
        parent.Allreduce(np.ones(8))
        before = parent.ledger.messages
        assert before > 0
        ctx = SweepContext(A, b, task="lasso", comm=parent.child())
        lasso_path(A, b, [1.0, 0.5], mu=2, s=4, max_iter=24, context=ctx)
        assert parent.ledger.messages == before
        assert ctx.total_cost.messages > 0

    def test_eig_hit_rate_monotone_over_10_point_path(self):
        """Satellite: the persistent memo's hit rate rises monotonically
        across a 10-point sweep (each point replays the same sampled
        block stream, whose Gram blocks depend only on A)."""
        A, b, _ = make_sparse_regression(200, 60, density=0.2, seed=7)
        grid = lambda_grid(lambda_max(A, b), n_lambdas=10, eps=1e-3)
        ctx = SweepContext(A, b, task="lasso")
        eig_cache_clear()
        rates = []
        for lam in grid:
            lasso_path(A, b, [float(lam)], mu=4, s=8, max_iter=64,
                       tol=None, record_every=0, context=ctx)
            info = eig_cache_info()
            rates.append(info.hits / max(info.hits + info.misses, 1))
        assert all(b2 >= a2 for a2, b2 in zip(rates, rates[1:], strict=False))
        assert rates[-1] > rates[0] > 0.0 or rates[0] == 0.0
        # after the first point every block is a hit
        assert rates[-1] > 0.5


class TestSvmPath:
    def test_warm_dual_path(self, small_classification):
        A, b = small_classification
        path = svm_path(A, b, [0.5, 1.0, 2.0], loss="l1", s=8,
                        max_iter=240, record_every=60)
        assert len(path) == 3
        # ascending C order (dual feasibility of the warm start)
        assert np.all(np.diff(path.lambdas) > 0)
        for res in path.results:
            assert "alpha" in res.extras
            assert np.all(res.extras["alpha"] >= 0.0)

    def test_warm_start_helps_gap(self, small_classification):
        """A warm-started point reaches a gap at least as good as the
        cold solve within the same budget."""
        A, b = small_classification
        kw = dict(loss="l1", s=8, max_iter=400, record_every=100)
        warm = svm_path(A, b, [0.5, 1.0], **kw)
        cold = svm_path(A, b, [0.5, 1.0], warm_start=False, **kw)
        assert warm.final_metrics[-1] <= cold.final_metrics[-1] * (1 + 1e-6)

    def test_l1_warm_start_clipped_feasible(self, small_classification):
        A, b = small_classification
        path = svm_path(A, b, [0.2, 0.6], loss="l1", s=4, max_iter=120)
        for lam, res in zip(path.lambdas, path.results, strict=True):
            assert np.all(res.extras["alpha"] <= lam + 1e-12)

    def test_default_grid(self, small_classification):
        A, b = small_classification
        path = svm_path(A, b, n_lambdas=3, s=4, max_iter=60)
        assert len(path) == 3

    def test_empty_grid_rejected(self, small_classification):
        A, b = small_classification
        with pytest.raises(SolverError):
            svm_path(A, b, [])


class TestAdaptiveSchedule:
    def test_shape_and_endpoints(self):
        sched = adaptive_schedule(5, 1000, 1e-8, tol_factor=100.0,
                                  iter_factor=0.25)
        assert len(sched) == 5
        assert sched[0] == (250, pytest.approx(1e-6))
        assert sched[-1] == (1000, pytest.approx(1e-8))
        iters = [it for it, _ in sched]
        tols = [t for _, t in sched]
        assert iters == sorted(iters)
        assert tols == sorted(tols, reverse=True)

    def test_none_tol_stays_none(self):
        sched = adaptive_schedule(3, 100, None)
        assert all(t is None for _, t in sched)

    def test_single_point_gets_full_budget(self):
        assert adaptive_schedule(1, 500, 1e-6) == [(500, pytest.approx(1e-6))]

    @pytest.mark.parametrize("bad", [dict(tol_factor=0.5),
                                     dict(iter_factor=0.0),
                                     dict(iter_factor=1.5)])
    def test_invalid_factors(self, bad):
        with pytest.raises(SolverError):
            adaptive_schedule(4, 100, 1e-6, **bad)

    def test_final_point_matches_cold_solve(self):
        """The adaptive sweep's last point must not be degraded by the
        loosened intermediate budgets: it matches an independent cold
        solve at the same (max_iter, tol) to solution accuracy."""
        A, b, _ = make_sparse_regression(300, 100, density=0.1, seed=1)
        grid = lambda_grid(lambda_max(A, b), n_lambdas=8, eps=1e-2)
        kw = dict(mu=8, s=16, max_iter=2000, tol=1e-8, record_every=5, seed=0)
        adaptive = lasso_path(A, b, grid, adaptive=True, **kw)
        cold = fit_lasso(A, b, float(grid[-1]), solver="sa-accbcd",
                         mu=8, s=16, max_iter=2000, tol=1e-8, record_every=5)
        assert adaptive.results[-1].converged
        scale = max(np.max(np.abs(cold.x)), 1e-12)
        assert np.max(np.abs(adaptive.results[-1].x - cold.x)) / scale < 1e-3
        obj_a = lasso_objective(A, b, adaptive.results[-1].x, float(grid[-1]))
        obj_c = lasso_objective(A, b, cold.x, float(grid[-1]))
        assert obj_a == pytest.approx(obj_c, rel=1e-3)

    def test_adaptive_spends_fewer_iterations(self):
        A, b, _ = make_sparse_regression(300, 100, density=0.1, seed=1)
        grid = lambda_grid(lambda_max(A, b), n_lambdas=8, eps=1e-2)
        kw = dict(mu=8, s=16, max_iter=2000, tol=1e-8, record_every=5, seed=0)
        plain = lasso_path(A, b, grid, **kw)
        adaptive = lasso_path(A, b, grid, adaptive=True, **kw)
        assert sum(adaptive.iterations) < sum(plain.iterations)

    def test_svm_adaptive_final_matches_plain(self, small_classification):
        A, b = small_classification
        lams = [0.5, 1.0, 2.0]
        kw = dict(loss="l2", s=16, max_iter=400, tol=1e-3, record_every=20,
                  seed=0)
        plain = svm_path(A, b, lams, **kw)
        adaptive = svm_path(A, b, lams, adaptive=True, **kw)
        assert adaptive.results[-1].final_metric <= 1e-3 or \
            adaptive.results[-1].iterations == 400
        assert adaptive.lambdas[-1] == plain.lambdas[-1]


class TestEigMemoThreading:
    def test_context_default_is_shared_memo(self, path_problem):
        A, b, _ = path_problem
        ctx = SweepContext(A, b)
        from repro.linalg.kernels import default_eig_memo
        assert ctx.eig_memo is default_eig_memo()

    def test_private_memo_isolated_from_global(self, path_problem):
        A, b, _ = path_problem
        memo = EigMemo(maxsize=256)
        ctx = SweepContext(A, b, eig_memo=memo)
        assert ctx.eig_memo is memo
        eig_cache_clear()
        before = eig_cache_info()
        lasso_path(A, b, [0.5, 0.1], mu=4, s=8, max_iter=64,
                   record_every=0, tol=None, context=ctx)
        # the sweep's eigensolves hit the private memo, not the global one
        info = memo.cache_info()
        assert info.hits + info.misses > 0
        after = eig_cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_private_memos_do_not_share_entries(self, path_problem):
        """Two sweeps with private memos never serve each other's blocks."""
        A, b, _ = path_problem
        m1, m2 = EigMemo(), EigMemo()
        kw = dict(mu=4, s=8, max_iter=64, record_every=0, tol=None, seed=0)
        lasso_path(A, b, [0.5], context=SweepContext(A, b, eig_memo=m1), **kw)
        first = m1.cache_info()
        assert first.misses > 0
        # the second memo starts cold: same misses as the first sweep
        lasso_path(A, b, [0.5], context=SweepContext(A, b, eig_memo=m2), **kw)
        second = m2.cache_info()
        assert second.misses == first.misses

    def test_solver_accepts_explicit_memo(self, path_problem):
        A, b, _ = path_problem
        memo = EigMemo()
        res1 = fit_lasso(A, b, 0.5, solver="sa-accbcd", mu=4, s=8,
                         max_iter=48, record_every=0, eig_memo=memo)
        assert memo.cache_info().misses > 0
        # identical run through the same memo now hits
        res2 = fit_lasso(A, b, 0.5, solver="sa-accbcd", mu=4, s=8,
                         max_iter=48, record_every=0, eig_memo=memo)
        assert memo.cache_info().hits > 0
        assert np.array_equal(res1.x, res2.x)

    def test_pipeline_through_path(self, path_problem):
        A, b, _ = path_problem
        grid = [0.8, 0.3]
        kw = dict(mu=2, s=8, max_iter=64, record_every=0, tol=None, seed=0)
        base = lasso_path(A, b, grid, **kw)
        pip = lasso_path(A, b, grid, schedule=Schedule(ring=True), **kw)
        for rb, rp in zip(base.results, pip.results, strict=True):
            assert np.array_equal(rb.x, rp.x)
