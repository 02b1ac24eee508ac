"""Tests for the experiment runner (figure/table engine)."""

import numpy as np
import pytest

from repro._api import SOLVERS, SVM_SPELLINGS
from repro.errors import SolverError
from repro.experiments.runner import (
    load_scaled,
    run_lasso,
    run_svm,
    speedup_vs_s,
    strong_scaling,
)


@pytest.fixture(scope="module")
def covtype_ds():
    return load_scaled("covtype", target_cells=10_000, seed=0)


@pytest.fixture(scope="module")
def svm_ds():
    return load_scaled("gisette", target_cells=10_000, seed=0)


class TestLoadScaled:
    def test_caching(self, covtype_ds):
        again = load_scaled("covtype", target_cells=10_000, seed=0)
        assert again is covtype_ds

    def test_scaling_metadata(self, covtype_ds):
        assert covtype_ds.flop_scale > 1.0
        assert covtype_ds.gather_scale > 1.0
        assert covtype_ds.kind_scales["fixed"] == 1.0
        assert covtype_ds.task == "lasso"

    def test_svm_gather_scale_is_one(self, svm_ds):
        assert svm_ds.gather_scale == 1.0

    def test_lam_factor(self):
        ds = load_scaled("leu", target_cells=5_000, seed=0, lam_factor=10.0)
        assert ds.lam is not None and ds.lam > 0


class TestRunners:
    def test_all_lasso_solvers_run(self, covtype_ds):
        for name in SOLVERS["lasso"]:
            res = run_lasso(covtype_ds, name, s=4, mu=2, max_iter=8, P=16,
                            record_every=0, lam=1.0)
            assert np.all(np.isfinite(res.x))

    def test_all_svm_solvers_run(self, svm_ds):
        for name in SVM_SPELLINGS:
            res = run_svm(svm_ds, name, s=4, max_iter=8, P=16)
            assert np.all(np.isfinite(res.x))

    def test_unknown_solver(self, covtype_ds, svm_ds):
        with pytest.raises(SolverError):
            run_lasso(covtype_ds, "sgd")
        with pytest.raises(SolverError):
            run_svm(svm_ds, "pegasos")

    def test_sa_equivalence_through_runner(self, covtype_ds):
        r = run_lasso(covtype_ds, "acccd", max_iter=32, P=64, seed=4,
                      record_every=0, lam=1.0)
        rs = run_lasso(covtype_ds, "sa-acccd", s=8, max_iter=32, P=64, seed=4,
                       record_every=0, lam=1.0)
        assert np.allclose(r.x, rs.x, atol=1e-10)

    def test_modelled_seconds_positive(self, covtype_ds):
        res = run_lasso(covtype_ds, "cd", max_iter=16, P=1024, record_every=0,
                        lam=1.0)
        assert res.cost.seconds > 0
        assert res.cost.comm_seconds > 0


class TestSweeps:
    def test_strong_scaling_lasso(self, covtype_ds):
        pts = strong_scaling(covtype_ds, "acccd", [64, 256, 1024], max_iter=16)
        assert [p.P for p in pts] == [64, 256, 1024]
        # latency term grows with log P
        assert pts[-1].comm_seconds > pts[0].comm_seconds

    def test_strong_scaling_lasso_lam(self, covtype_ds):
        """An explicit ``lam`` reaches a Lasso run; ``None`` is the
        dataset's (0.1 without one), as the runs took before ``lam``
        applied to Lasso."""
        def seconds(lam):
            pts = strong_scaling(covtype_ds, "sa-acccd", [64], s=8, max_iter=64, lam=lam)
            return pts[0].seconds

        assert covtype_ds.lam is None
        assert seconds(1.0) != seconds(50.0)
        assert seconds(None) == seconds(0.1)

    def test_strong_scaling_svm(self, svm_ds):
        pts = strong_scaling(svm_ds, "sa-svm-l1", [16, 64], s=4, max_iter=16)
        assert all(p.seconds > 0 for p in pts)
        assert all(p.s == 4 for p in pts)

    def test_speedup_vs_s_shape(self, covtype_ds):
        pts = speedup_vs_s(covtype_ds, "acccd", "sa-acccd",
                           [2, 8, 32, 256], P=1024, max_iter=256)
        totals = [p.total for p in pts]
        # unimodal-ish: some s beats s=2, and very large s decays
        assert max(totals) > totals[0]
        assert totals[-1] < max(totals)

    def test_speedup_communication_monotone_until_bandwidth(self, covtype_ds):
        pts = speedup_vs_s(covtype_ds, "acccd", "sa-acccd", [2, 4, 8],
                           P=1024, max_iter=64)
        comm = [p.communication for p in pts]
        assert comm[0] < comm[1] < comm[2]

    def test_sa_wins_at_scale(self, svm_ds):
        pts = speedup_vs_s(svm_ds, "svm-l1", "sa-svm-l1", [16], P=3072,
                           max_iter=64)
        assert pts[0].total > 1.0
