"""Fused (fast=True) vs reference (fast=False) inner-loop parity.

Two contracts, both on the solution, the recorded objective/gap history
and the modelled cost ledger:

* ``mu = 1`` (the scalar loops) and every SVM loop are *bit-identical*
  to the reference: they remove Python/NumPy overhead, allocations and
  redundant eigensolves but never re-associate a floating-point
  reduction, so these tests use exact equality (``np.array_equal``).
* ``mu > 1`` Lasso loops apply each iteration's Gram correction as one
  prefix GEMV/GEMM, which BLAS re-associates: ``x`` and the history stay
  within 1e-9 relative, while iteration counts, recorded iterations and
  the ledger (seconds, words, messages) stay identical — the model
  charges the algorithm's work, not its association.
"""

import numpy as np
import pytest

from repro.experiments.runner import load_scaled
from repro.mpi.thread_backend import spmd_run
from repro.prox.penalties import ElasticNetPenalty, GroupLassoPenalty
from repro.solvers.lasso import sa_acc_bcd, sa_acc_cd, sa_bcd
from repro.solvers.svm.dcd import sa_dcd

LAM = 0.7


def _rel_drift(x, ref):
    return np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300)


def _assert_same_schedule(rf, rn):
    assert rf.iterations == rn.iterations
    assert rf.converged == rn.converged
    assert rf.history.iterations == rn.history.iterations
    # the model charges the algorithm's work, not Python overhead or
    # association: fused and naive must cost the same modelled seconds
    assert rf.cost.seconds == rn.cost.seconds
    assert rf.cost.messages == rn.cost.messages
    assert rf.cost.words == rn.cost.words


def _assert_same(rf, rn):
    """The bit-identical contract (mu = 1, SVM)."""
    assert np.array_equal(rf.x, rn.x)
    assert rf.history.metric == rn.history.metric
    _assert_same_schedule(rf, rn)


def _assert_close(rf, rn):
    """The fp-tolerant contract (mu > 1): rounding-level drift only."""
    assert _rel_drift(rf.x, rn.x) <= 1e-9
    np.testing.assert_allclose(rf.history.metric, rn.history.metric,
                               rtol=1e-9, atol=0.0)
    _assert_same_schedule(rf, rn)


def _assert_contract(rf, rn, mu):
    (_assert_same if mu == 1 else _assert_close)(rf, rn)


class TestSaAccBcdParity:
    @pytest.mark.parametrize("mu,s", [(1, 1), (1, 8), (1, 64), (4, 8), (3, 16)])
    def test_sparse(self, small_regression, mu, s):
        A, b, _ = small_regression
        rf = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=5, fast=True)
        rn = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=5, fast=False)
        _assert_contract(rf, rn, mu)

    @pytest.mark.parametrize("mu,s", [(1, 16), (4, 8)])
    def test_dense(self, dense_regression, mu, s):
        A, b, _ = dense_regression
        rf = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=64, seed=1, fast=True)
        rn = sa_acc_bcd(A, b, LAM, mu=mu, s=s, max_iter=64, seed=1, fast=False)
        _assert_contract(rf, rn, mu)

    def test_elastic_net(self, small_regression):
        A, b, _ = small_regression
        pen = ElasticNetPenalty(lam=0.3, scale=0.5)
        rf = sa_acc_bcd(A, b, pen, mu=2, s=12, max_iter=72, seed=6, fast=True)
        rn = sa_acc_bcd(A, b, pen, mu=2, s=12, max_iter=72, seed=6, fast=False)
        _assert_close(rf, rn)

    def test_group_lasso_blocks(self, small_regression):
        A, b, _ = small_regression
        n = A.shape[1]
        pen = GroupLassoPenalty(lam=0.4, group_ids=np.arange(n) // 4)
        rf = sa_acc_bcd(A, b, pen, mu=2, s=8, max_iter=48, seed=2, fast=True)
        rn = sa_acc_bcd(A, b, pen, mu=2, s=8, max_iter=48, seed=2, fast=False)
        _assert_close(rf, rn)

    def test_x0_and_tolerance_stop(self, small_regression):
        A, b, _ = small_regression
        x0 = np.linspace(-0.4, 0.4, A.shape[1])
        kw = dict(mu=1, s=16, max_iter=400, seed=3, x0=x0, tol=1e-4)
        rf = sa_acc_bcd(A, b, LAM, fast=True, **kw)
        rn = sa_acc_bcd(A, b, LAM, fast=False, **kw)
        _assert_same(rf, rn)

    def test_record_every_zero(self, small_regression):
        A, b, _ = small_regression
        kw = dict(mu=1, s=8, max_iter=50, seed=0, record_every=0)
        rf = sa_acc_bcd(A, b, LAM, fast=True, **kw)
        rn = sa_acc_bcd(A, b, LAM, fast=False, **kw)
        _assert_same(rf, rn)

    def test_sa_acc_cd_passthrough(self, small_regression):
        A, b, _ = small_regression
        rf = sa_acc_cd(A, b, LAM, s=24, max_iter=96, seed=7, fast=True)
        rn = sa_acc_cd(A, b, LAM, s=24, max_iter=96, seed=7, fast=False)
        _assert_same(rf, rn)

    def test_theta_extras_match(self, small_regression):
        A, b, _ = small_regression
        rf = sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=64, seed=0, fast=True)
        rn = sa_acc_bcd(A, b, LAM, mu=2, s=8, max_iter=64, seed=0, fast=False)
        assert rf.extras["theta"] == rn.extras["theta"]


class TestSaBcdParity:
    @pytest.mark.parametrize("mu,s", [(1, 8), (1, 32), (4, 8)])
    def test_sparse(self, small_regression, mu, s):
        A, b, _ = small_regression
        rf = sa_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=2, fast=True)
        rn = sa_bcd(A, b, LAM, mu=mu, s=s, max_iter=96, seed=2, fast=False)
        _assert_contract(rf, rn, mu)

    def test_dense(self, dense_regression):
        A, b, _ = dense_regression
        rf = sa_bcd(A, b, LAM, mu=2, s=16, max_iter=64, seed=9, fast=True)
        rn = sa_bcd(A, b, LAM, mu=2, s=16, max_iter=64, seed=9, fast=False)
        _assert_close(rf, rn)


class TestSaDcdParity:
    @pytest.mark.parametrize("loss,s", [("l1", 8), ("l1", 32), ("l2", 16)])
    def test_sparse(self, small_classification, loss, s):
        A, b = small_classification
        rf = sa_dcd(A, b, loss=loss, s=s, max_iter=200, seed=4, fast=True)
        rn = sa_dcd(A, b, loss=loss, s=s, max_iter=200, seed=4, fast=False)
        _assert_same(rf, rn)
        assert np.array_equal(rf.extras["alpha"], rn.extras["alpha"])
        assert np.array_equal(rf.extras["x_local"], rn.extras["x_local"])

    def test_dense(self, dense_classification):
        A, b = dense_classification
        rf = sa_dcd(A, b, loss="l1", s=8, max_iter=120, seed=1, fast=True)
        rn = sa_dcd(A, b, loss="l1", s=8, max_iter=120, seed=1, fast=False)
        _assert_same(rf, rn)
        assert np.array_equal(rf.extras["alpha"], rn.extras["alpha"])

    def test_record_every(self, small_classification):
        A, b = small_classification
        kw = dict(loss="l2", s=12, max_iter=96, seed=8, record_every=24)
        rf = sa_dcd(A, b, fast=True, **kw)
        rn = sa_dcd(A, b, fast=False, **kw)
        _assert_same(rf, rn)


class TestParityModes:
    """The fused loop's mu > 1 contract: <= 1e-9 relative drift from the
    reference, with an identical ledger."""

    @pytest.mark.parametrize("solver", [sa_bcd, sa_acc_bcd])
    def test_fp_tolerant_drift_bounded(self, small_regression, solver):
        A, b, _ = small_regression
        kw = dict(mu=4, s=16, max_iter=96, seed=2)
        rn = solver(A, b, LAM, fast=False, **kw)
        rf = solver(A, b, LAM, fast=True, **kw)
        assert _rel_drift(rf.x, rn.x) <= 1e-9
        # the ledger charges the algorithm's work: identical in both loops
        assert rf.cost.seconds == rn.cost.seconds
        assert rf.cost.messages == rn.cost.messages
        assert rf.cost.words == rn.cost.words

    def test_fp_tolerant_fig3_config(self):
        """Acceptance: <= 1e-9 relative iterate drift at mu=8, s=32 on
        the fig3 benchmark configuration."""
        ds = load_scaled("news20", target_cells=20_000.0, seed=0)
        kw = dict(mu=8, s=32, max_iter=384, seed=3, record_every=32)
        rn = sa_acc_bcd(ds.A, ds.b, 1.0, fast=False, **kw)
        rf = sa_acc_bcd(ds.A, ds.b, 1.0, fast=True, **kw)
        assert _rel_drift(rf.x, rn.x) <= 1e-9
        assert rf.iterations == rn.iterations

    @pytest.mark.parametrize("solver", [sa_bcd, sa_acc_bcd])
    def test_fp_tolerant_dense_blocks(self, dense_regression, solver):
        A, b, _ = dense_regression
        kw = dict(mu=4, s=8, max_iter=64, seed=9)
        rn = solver(A, b, LAM, fast=False, **kw)
        rf = solver(A, b, LAM, fast=True, **kw)
        assert _rel_drift(rf.x, rn.x) <= 1e-9
        assert rf.cost.seconds == rn.cost.seconds

    def test_sa_dcd_takes_no_discarded_knobs(self, small_classification):
        """sa_dcd accepts only knobs it uses; its fused loop is exact."""
        A, b = small_classification
        rf = sa_dcd(A, b, loss="l1", s=8, max_iter=80, seed=4)
        rn = sa_dcd(A, b, loss="l1", s=8, max_iter=80, seed=4, fast=False)
        _assert_same(rf, rn)
        for knob in ({"parity": "exact"}, {"eig_memo": None}):
            with pytest.raises(TypeError):
                sa_dcd(A, b, **knob)


class TestDistributedParity:
    """The fused loops run the same SPMD code path on thread ranks."""

    def test_thread_spmd_matches(self, small_regression):
        A, b, _ = small_regression

        def run(comm, rank, fast):
            from repro.linalg.distmatrix import RowPartitionedMatrix

            dist = RowPartitionedMatrix.from_global(A, comm)
            res = sa_acc_bcd(dist, b, LAM, mu=2, s=8, max_iter=48, seed=5, fast=fast)
            return res.x

        xs_fast = spmd_run(run, 3, args=(True,)).values
        xs_naive = spmd_run(run, 3, args=(False,)).values
        for xf, xn in zip(xs_fast, xs_naive, strict=True):
            # every rank runs the same arithmetic: bit-identical across
            # ranks; mu = 2 keeps the fused loop within 1e-9 of the naive
            assert np.array_equal(xf, xs_fast[0])
            assert _rel_drift(xf, xn) <= 1e-9
