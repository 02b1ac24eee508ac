"""Tests for dual CD SVM (Alg. 3) and SA-SVM (Alg. 4)."""

import numpy as np
import pytest

from conftest import dense_of
from repro.errors import SolverError
from repro.machine.spec import CRAY_XC30
from repro.mpi.tracing import attach_tracer
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.svm import dcd, dcd_reference, prediction_accuracy, sa_dcd


class TestDcdBasics:
    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_gap_shrinks(self, small_classification, loss):
        A, b = small_classification
        res = dcd(A, b, loss=loss, max_iter=2500, seed=0, record_every=500)
        gaps = res.history.metric
        assert gaps[-1] < 0.05 * gaps[0]
        # and it keeps improving over the trace, not just at the start
        assert gaps[-1] <= min(gaps[:-1])

    def test_matches_reference(self, small_classification):
        A, b = small_classification
        res = dcd(A, b, loss="l1", max_iter=400, seed=11)
        x_ref, a_ref, _ = dcd_reference(A, b, loss="l1", max_iter=400, seed=11)
        assert np.allclose(res.x, x_ref, atol=1e-12)
        assert np.allclose(res.extras["alpha"], a_ref, atol=1e-12)

    def test_dual_feasibility_l1(self, small_classification):
        A, b = small_classification
        lam = 1.0
        res = dcd(A, b, loss="l1", lam=lam, max_iter=1000, seed=0)
        alpha = res.extras["alpha"]
        assert np.all(alpha >= -1e-12) and np.all(alpha <= lam + 1e-12)

    def test_x_is_weighted_combination(self, small_classification):
        A, b = small_classification
        Ad = dense_of(A)
        res = dcd(A, b, loss="l2", max_iter=600, seed=1)
        alpha = res.extras["alpha"]
        assert np.allclose(res.x, Ad.T @ (b * alpha), atol=1e-10)

    def test_classifies_training_data(self, small_classification):
        A, b = small_classification
        res = dcd(A, b, loss="l2", max_iter=3000, seed=0)
        Ax = np.asarray(dense_of(A) @ res.x).ravel()
        assert prediction_accuracy(Ax, b) > 0.9

    def test_gap_tolerance_stops(self, small_classification):
        A, b = small_classification
        res = dcd(A, b, loss="l2", max_iter=10**5, seed=0, tol=1.0,
                  record_every=100)
        assert res.converged and res.iterations < 10**5
        assert res.final_metric <= 1.0

    def test_labels_validated(self, small_classification):
        A, b = small_classification
        with pytest.raises(SolverError):
            dcd(A, b * 2, max_iter=5)

    def test_dense_input(self, dense_classification):
        A, b = dense_classification
        res = dcd(A, b, loss="l1", max_iter=500, seed=0)
        assert res.final_metric < res.history.metric[0]

    def test_alpha0_warm_start(self, small_classification):
        A, b = small_classification
        r1 = dcd(A, b, loss="l2", max_iter=800, seed=0)
        r2 = dcd(A, b, loss="l2", max_iter=100, seed=1,
                 alpha0=r1.extras["alpha"])
        assert r2.history.metric[0] == pytest.approx(r1.final_metric, rel=1e-9)


class TestSaEquivalence:
    @pytest.mark.parametrize("loss", ["l1", "l2"])
    @pytest.mark.parametrize("s", [1, 3, 16, 64])
    def test_sa_matches_dcd(self, small_classification, loss, s):
        A, b = small_classification
        r = dcd(A, b, loss=loss, max_iter=300, seed=7)
        rs = sa_dcd(A, b, loss=loss, s=s, max_iter=300, seed=7)
        assert np.allclose(r.x, rs.x, atol=1e-11)
        assert np.allclose(r.extras["alpha"], rs.extras["alpha"], atol=1e-11)

    def test_duplicate_coordinate_replay(self, dense_classification):
        # tiny m forces repeated sampling of the same dual coordinate
        # within one outer step — exercises eq. (14)'s beta correction
        A, b = dense_classification
        A, b = A[:5], b[:5]
        r = dcd(A, b, loss="l1", max_iter=200, seed=3)
        rs = sa_dcd(A, b, loss="l1", s=50, max_iter=200, seed=3)
        assert np.allclose(r.extras["alpha"], rs.extras["alpha"], atol=1e-11)

    def test_s_500_like_paper_fig5(self, small_classification):
        A, b = small_classification
        r = dcd(A, b, loss="l2", max_iter=1000, seed=0, record_every=0)
        rs = sa_dcd(A, b, loss="l2", s=500, max_iter=1000, seed=0, record_every=0)
        rel = abs(r.final_metric - rs.final_metric) / max(abs(r.final_metric), 1e-300)
        assert rel < 1e-8
        assert np.all(np.isfinite(rs.x))

    def test_history_alignment(self, small_classification):
        A, b = small_classification
        r = dcd(A, b, loss="l1", max_iter=120, seed=2, record_every=30)
        rs = sa_dcd(A, b, loss="l1", s=30, max_iter=120, seed=2, record_every=30)
        assert r.history.iterations == rs.history.iterations
        assert np.allclose(r.history.metric, rs.history.metric, rtol=1e-9)

    def test_tail_outer(self, small_classification):
        A, b = small_classification
        r = dcd(A, b, loss="l2", max_iter=70, seed=2)
        rs = sa_dcd(A, b, loss="l2", s=32, max_iter=70, seed=2)
        assert rs.iterations == 70
        assert np.allclose(r.x, rs.x, atol=1e-11)

    def test_invalid_s(self, small_classification):
        A, b = small_classification
        with pytest.raises(SolverError):
            sa_dcd(A, b, s=0, max_iter=10)

    @pytest.mark.parametrize("mode,posts", [
        ({}, ["Allreduce:vec"]),
        ({"pipeline": True}, ["Iallreduce:vec"]),
        ({"async_": True, "tau": 2}, ["Iallreduce:vec"] * 3),
    ], ids=["blocking", "pipeline", "async"])
    def test_tol_met_before_first_step_records_once(self, small_classification, mode,
                                                    posts):
        # the initial gap already meets tol: no step runs, and the
        # iteration-0 record is the final one (no repeated gap
        # collectives). dcd syncs it in one Allgather that also gathers
        # the primal; sa_dcd learns it from the first Gram reduction it
        # carries, as every converged stop does, and gathers the primal
        # once the posts in flight are drained
        A, b = small_classification

        def run(fn, **kw):
            comm = VirtualComm(4, machine=CRAY_XC30)
            tracer = attach_tracer(comm)
            res = fn(A, b, loss="l1", max_iter=64, seed=0, comm=comm,
                     tol=1e12, record_every=0, **kw)
            return res, tracer.keys()

        r, keys = run(dcd)
        rs, sa_keys = run(sa_dcd, s=8, **mode)
        assert r.history.iterations == rs.history.iterations == [0]
        assert rs.iterations == 0 and rs.converged
        assert keys == ["Allgather:vec"]
        assert sa_keys == posts + ["Allgather:vec"]
        assert np.array_equal(rs.x, r.x) and rs.final_metric == r.final_metric


class TestCommunication:
    def test_sa_reduces_messages(self, small_classification):
        A, b = small_classification
        H, s, P = 128, 32, 512

        def run(fn, **kw):
            comm = VirtualComm(P, machine=CRAY_XC30)
            return fn(A, b, loss="l1", max_iter=H, seed=0, comm=comm,
                      record_every=0, **kw)

        r = run(dcd)
        rs = run(sa_dcd, s=s)
        assert r.cost.messages == s * rs.cost.messages
        assert rs.cost.words > r.cost.words
        assert rs.cost.seconds < r.cost.seconds  # latency-dominated regime
