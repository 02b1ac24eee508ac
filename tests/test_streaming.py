"""Streaming refit engine: append semantics, incremental state, and the
cold-solve equivalence contract on every solver x backend combination.

The central invariant (ISSUE 4 acceptance): a streaming ``partial_fit``
— appended rows, incrementally updated state, cached sampling views,
warm start — must match a *cold* solve on the concatenated data (fresh
partitioned matrix, fresh caches, same start) to <= 1e-9 relative
error, for every solver and every comm backend. The engine is in fact
bit-identical by construction (same shards, same rank-ordered folds);
the tests assert the 1e-9 contract and record exact equality where it
holds.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro._api import fit_lasso, fit_svm
from repro.datasets import make_classification, make_sparse_regression
from repro.errors import CommError, PartitionError, SolverError
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.machine.spec import CRAY_XC30
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.mpi.virtual_backend import VirtualComm
from repro.path import lasso_path
from repro.solvers.objectives import lambda_max, lasso_objective
from repro.solvers.outer import Schedule
from repro.streaming import StreamingSweep, replay_schedule

LASSO_SOLVERS = ("bcd", "sa-bcd", "accbcd", "sa-accbcd")
SVM_SOLVERS = ("svm", "sa-svm")
BACKENDS = ("virtual", "thread", "process")


def _lasso_data():
    A, b, _ = make_sparse_regression(240, 60, density=0.2, seed=3)
    B1, y1, _ = make_sparse_regression(30, 60, density=0.2, seed=4)
    B2, y2, _ = make_sparse_regression(18, 60, density=0.2, seed=5)
    return A, b, [(B1, y1), (B2, y2)]


def _svm_data():
    A, b = make_classification(200, 50, density=0.3, seed=7, margin=0.2)
    B1, y1 = make_classification(24, 50, density=0.3, seed=8, margin=0.2)
    B2, y2 = make_classification(16, 50, density=0.3, seed=9, margin=0.2)
    return A, b, [(B1, y1), (B2, y2)]


def _dense(M):
    return np.asarray(M.todense()) if sp.issparse(M) else np.asarray(M)


def _run_backend(fn, backend, ranks):
    if backend == "virtual":
        comm = VirtualComm(1)
        return [fn(comm, 0)]
    runner = spmd_run if backend == "thread" else process_spmd_run
    return runner(fn, ranks).values


# ---------------------------------------------------------------------------
# append_rows: the mutable-matrix primitive
# ---------------------------------------------------------------------------


class TestAppendRowsRowPartitioned:
    def _dist(self, A, P=3):
        def fn(comm, rank):
            return RowPartitionedMatrix.from_global(A, comm)

        # build on thread ranks so shards are genuinely rank-local
        return spmd_run(fn, P)

    def test_single_rank_append_matches_vstack(self):
        A, b, batches = _lasso_data()
        B = batches[0][0]
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        part = dist.append_rows(B)
        assert dist.shape == (A.shape[0] + B.shape[0], A.shape[1])
        assert part.n == B.shape[0]
        assert np.allclose(_dense(dist.local),
                           np.vstack([_dense(A), _dense(B)]))
        assert dist.local_nnz == dist.local.nnz

    def test_sampling_view_invalidated_and_rebuilt(self):
        A, b, batches = _lasso_data()
        B = batches[0][0]
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        idx = np.array([0, 3, 5])
        before = _dense(dist.sample_columns(idx)).copy()
        assert dist._csc_cache is not None  # view built by the sample
        dist.append_rows(B)
        assert dist._csc_cache is None  # stale view dropped
        after = _dense(dist.sample_columns(idx))
        expect = np.vstack([_dense(A), _dense(B)])[:, idx]
        assert np.allclose(after, expect)
        assert after.shape[0] == before.shape[0] + B.shape[0]

    def test_collective_buffers_survive_append(self):
        """Packed send/recv and Gram outputs are row-count independent."""
        A, b, batches = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        idx = np.arange(4)
        S = dist.sample_columns(idx)
        dist.gram_and_project(S, [np.zeros(dist.local.shape[0])])
        send_before = dist._send_buf
        gram_before = dist._gram_out
        dist.append_rows(batches[0][0])
        S = dist.sample_columns(idx)
        G, _ = dist.gram_and_project(S, [np.zeros(dist.local.shape[0])])
        assert dist._send_buf is send_before
        assert dist._gram_out is gram_before
        expect = _dense(S).T @ _dense(S)
        assert np.allclose(G, expect)

    def test_spmd_balanced_append(self):
        """Per-rank appends keep the partition consistent on real ranks."""
        A, b, batches = _lasso_data()
        B = batches[0][0]

        def fn(comm, rank):
            dist = RowPartitionedMatrix.from_global(A, comm)
            old_counts = dist.partition.counts().copy()
            bpart = dist.append_rows(B)
            counts = dist.partition.counts()
            assert dist.shape[0] == A.shape[0] + B.shape[0]
            assert counts.sum() == dist.shape[0]
            assert np.array_equal(
                counts, old_counts + bpart.counts()
            )
            assert dist.local.shape[0] == counts[rank]
            return _dense(dist.local)

        res = spmd_run(fn, 3)
        stacked = np.vstack(res.values)
        assert stacked.shape == (A.shape[0] + B.shape[0], A.shape[1])

    def test_column_mismatch_rejected(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        with pytest.raises(PartitionError, match="columns"):
            dist.append_rows(np.zeros((4, A.shape[1] + 1)))

    def test_wrong_batch_partition_rejected(self):
        A, b, batches = _lasso_data()
        B = batches[0][0]
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        from repro.linalg.partition import block_partition

        with pytest.raises(PartitionError, match="batch partition"):
            dist.append_rows(B, partition=block_partition(B.shape[0] + 1, 1))

    def test_dense_matrix_accepts_sparse_batch(self):
        A = np.arange(12.0).reshape(4, 3)
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        dist.append_rows(sp.csr_matrix(np.ones((2, 3))))
        assert not dist.is_sparse
        assert dist.local.shape == (6, 3)

    def test_sparse_matrix_accepts_dense_batch(self):
        A = sp.random(6, 4, density=0.5, random_state=0, format="csr")
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        dist.append_rows(np.ones((2, 4)))
        assert dist.is_sparse and dist.local.shape == (8, 4)


class TestAppendRowsColPartitioned:
    def test_single_rank_append_matches_vstack(self):
        A, b, batches = _svm_data()
        B = batches[0][0]
        dist = ColPartitionedMatrix.from_global(A, VirtualComm(1))
        dist.append_rows(B)
        assert dist.shape == (A.shape[0] + B.shape[0], A.shape[1])
        assert np.allclose(_dense(dist.local),
                           np.vstack([_dense(A), _dense(B)]))

    def test_spmd_append_keeps_column_partition(self):
        A, b, batches = _svm_data()
        B = batches[0][0]

        def fn(comm, rank):
            dist = ColPartitionedMatrix.from_global(A, comm)
            offsets_before = dist.partition.offsets
            dist.append_rows(B)
            assert dist.partition.offsets == offsets_before
            assert dist.shape[0] == A.shape[0] + B.shape[0]
            lo, hi = dist.partition.range_of(rank)
            expect = np.vstack([_dense(A), _dense(B)])[:, lo:hi]
            assert np.allclose(_dense(dist.local), expect)
            # row sampling (the SVM hot path) sees the new rows
            Y = dist.sample_rows(np.array([A.shape[0] + 1]))
            assert np.allclose(_dense(Y), expect[A.shape[0] + 1])
            return True

        assert all(spmd_run(fn, 3).values)

    def test_column_mismatch_rejected(self):
        A, b, _ = _svm_data()
        dist = ColPartitionedMatrix.from_global(A, VirtualComm(1))
        with pytest.raises(PartitionError, match="columns"):
            dist.append_rows(np.zeros((4, A.shape[1] + 2)))


# ---------------------------------------------------------------------------
# engine bookkeeping: incremental state, revisions, errors
# ---------------------------------------------------------------------------


class TestStreamingSweepState:
    def test_incremental_lambda_max_matches_recompute(self):
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso")
        assert eng.lambda_max == pytest.approx(lambda_max(A, b), rel=1e-12)
        for B, y in batches:
            eng.append(B, y)
            A_eff, b_eff = eng.materialize()
            assert eng.lambda_max == pytest.approx(
                lambda_max(A_eff, b_eff), rel=1e-9
            )

    def test_incremental_lambda_max_on_ranks(self):
        A, b, batches = _lasso_data()

        def fn(comm, rank):
            eng = StreamingSweep(A, b, task="lasso", comm=comm)
            for B, y in batches:
                eng.append(B, y)
            A_eff, b_eff = eng.materialize()
            return eng.lambda_max, lambda_max(A_eff, b_eff)

        for got, want in spmd_run(fn, 2).values:
            assert got == pytest.approx(want, rel=1e-9)

    def test_materialize_is_permuted_concatenation(self):
        A, b, batches = _lasso_data()

        def fn(comm, rank):
            eng = StreamingSweep(A, b, task="lasso", comm=comm)
            for B, y in batches:
                eng.append(B, y)
            A_eff, b_eff = eng.materialize()
            return _dense(A_eff), b_eff, eng.arrival_order()

        A_cat = np.vstack([_dense(A)] + [_dense(B) for B, _ in batches])
        b_cat = np.concatenate([b] + [y for _, y in batches])
        for A_eff, b_eff, order in spmd_run(fn, 3).values:
            assert sorted(order) == list(range(A_cat.shape[0]))
            assert np.allclose(A_eff, A_cat[order])
            assert np.allclose(b_eff, b_cat[order])

    def test_svm_order_is_arrival_order(self):
        A, b, batches = _svm_data()
        eng = StreamingSweep(A, b, task="svm")
        for B, y in batches:
            eng.append(B, y)
        assert np.array_equal(eng.arrival_order(), np.arange(eng.n_rows))
        A_eff, b_eff = eng.materialize()
        assert np.allclose(_dense(A_eff),
                           np.vstack([_dense(A)] + [_dense(B) for B, _ in batches]))

    def test_revision_ledger_split(self):
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso", virtual_p=64,
                             machine=CRAY_XC30, max_iter=64, s=8, mu=2,
                             tol=None)
        eng.solve(lam=0.5)
        eng.append(*batches[0])
        eng.solve(lam=0.5)
        eng.solve(lam=0.4)
        assert [r.rev for r in eng.revisions] == [0, 1]
        r0, r1 = eng.revisions
        assert r0.rows_added == A.shape[0]
        assert r1.rows_added == batches[0][0].shape[0]
        assert len(r0.solve_costs) == 1 and len(r1.solve_costs) == 2
        # the append's own incremental work is measured, and it is far
        # cheaper than the initial A^T b derivation
        assert 0 < r1.append_cost.flops < r0.append_cost.flops
        assert r1.refit_cost.messages == sum(
            c.messages for c in r1.solve_costs
        )

    def test_refresh_keeps_path_context_usable(self):
        """After appends the context still accepts path sweeps."""
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso", max_iter=64, s=8, mu=2)
        eng.append(*batches[0])
        A_eff, b_eff = eng.materialize()
        path = lasso_path(A_eff, b_eff, n_lambdas=3, mu=2, s=8, max_iter=48,
                          context=eng.ctx)
        assert len(path) == 3

    def test_mutated_context_still_rejects_other_data(self):
        """A mutation only marks the fingerprint stale: the next path
        sweep on the context fingerprints the mutated shard, accepts the
        stream's own data and rejects a same-shape stand-in."""
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso", max_iter=64, s=8, mu=2)
        eng.append(*batches[0])
        assert eng.ctx._fingerprint is None
        A_eff, b_eff = eng.materialize()
        with pytest.raises(SolverError, match="different data matrix"):
            lasso_path(A_eff * 3.0, b_eff, [1.0], context=eng.ctx)
        path = lasso_path(A_eff, b_eff, [1.0], mu=2, s=8, max_iter=16,
                          context=eng.ctx)
        assert len(path) == 1

    def test_append_validation(self):
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso")
        B, y = batches[0]
        with pytest.raises(SolverError, match="labels must match"):
            eng.append(B, y[:-1])
        # an empty batch is a defined no-op: no revision, no cost
        assert eng.append(B[:0], y[:0]) == 0
        assert len(eng.revisions) == 1

    def test_svm_label_validation(self):
        A, b, batches = _svm_data()
        eng = StreamingSweep(A, b, task="svm")
        B, y = batches[0]
        with pytest.raises(SolverError, match="labels"):
            eng.append(B, np.full(B.shape[0], 2.0))
        with pytest.raises(SolverError):
            StreamingSweep(A, np.arange(A.shape[0], dtype=float), task="svm")

    def test_lambda_max_rejected_for_svm(self):
        A, b, _ = _svm_data()
        eng = StreamingSweep(A, b, task="svm")
        with pytest.raises(SolverError, match="Lasso"):
            eng.lambda_max

    def test_unknown_override_rejected(self):
        A, b, _ = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso")
        with pytest.raises(SolverError, match="override"):
            eng.solve(lam=0.5, bogus=1)

    def test_unknown_task_rejected(self):
        A, b, _ = _lasso_data()
        with pytest.raises(SolverError):
            StreamingSweep(A, b, task="ridge")


# ---------------------------------------------------------------------------
# the equivalence contract: every solver x every backend
# ---------------------------------------------------------------------------

_EQ_KW = dict(mu=2, s=8, max_iter=96, tol=None, seed=1, record_every=8)
_EQ_SVM_KW = dict(s=8, max_iter=160, tol=None, seed=1, record_every=40)


def _lasso_equiv(comm, rank, solver, pipeline):
    """Warm streaming refit vs cold solve on the concatenated data."""
    A, b, batches = _lasso_data()
    kw = dict(_EQ_KW)
    if not solver.startswith("sa-"):
        kw.pop("s")
        pipeline = False
    eng = StreamingSweep(A, b, task="lasso", comm=comm, solver=solver,
                         schedule=Schedule(ring=pipeline), **kw)
    lam = 0.05 * eng.lambda_max
    prev = eng.solve(lam=lam, warm_start=False)
    for B, y in batches:
        eng.append(B, y)
        res = eng.solve(lam=lam)
        # cold reference: fresh matrix over the concatenated data, fresh
        # caches, the same warm start the streaming refit used
        A_eff, b_eff = eng.materialize()
        cold_dist = RowPartitionedMatrix.from_global(
            A_eff, comm, partition=eng.dist.partition
        )
        cold = fit_lasso(cold_dist, b_eff, lam, solver=solver, comm=comm,
                         x0=prev.x, schedule=Schedule(ring=pipeline), **kw)
        scale = max(float(np.max(np.abs(cold.x))), 1e-30)
        drift = float(np.max(np.abs(res.x - cold.x))) / scale
        assert drift <= 1e-9, (solver, drift)
        prev = res
    return True


def _svm_equiv(comm, rank, solver, pipeline):
    A, b, batches = _svm_data()
    kw = dict(_EQ_SVM_KW)
    if solver != "sa-svm":
        kw.pop("s")
        pipeline = False
    eng = StreamingSweep(A, b, task="svm", comm=comm, solver=solver,
                         loss="l2", lam=0.5, schedule=Schedule(ring=pipeline), **kw)
    prev = eng.solve(warm_start=False)
    for B, y in batches:
        eng.append(B, y)
        res = eng.solve()
        A_eff, b_eff = eng.materialize()
        cold_dist = ColPartitionedMatrix.from_global(
            A_eff, comm, partition=eng.dist.partition
        )
        alpha0 = np.concatenate([prev.extras["alpha"], np.zeros(B.shape[0])])
        cold = fit_svm(cold_dist, b_eff, loss="l2", lam=0.5, solver=solver,
                       comm=comm, alpha0=alpha0, schedule=Schedule(ring=pipeline), **kw)
        scale = max(float(np.max(np.abs(cold.x))), 1e-30)
        drift = float(np.max(np.abs(res.x - cold.x))) / scale
        assert drift <= 1e-9, (solver, drift)
        prev = res
    return True


class TestColdSolveEquivalence:
    """ISSUE 4 acceptance: <= 1e-9 vs a cold solve on the concatenated
    data, for every solver x backend combination."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("solver", LASSO_SOLVERS)
    def test_lasso(self, solver, backend):
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _lasso_equiv(comm, rank, solver, False)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("solver", SVM_SOLVERS)
    def test_svm(self, solver, backend):
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _svm_equiv(comm, rank, solver, False)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lasso_pipelined(self, backend):
        """The nonblocking pipelined path obeys the same contract."""
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _lasso_equiv(comm, rank, "sa-accbcd", True)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_svm_pipelined(self, backend):
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _svm_equiv(comm, rank, "sa-svm", True)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))

    def test_warm_and_zero_start_reach_the_same_optimum(self):
        """Convergence-level check: a warm refit run to tolerance lands
        on the same objective as a cold zero-start solve."""
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso", mu=2, s=8, max_iter=4000,
                             tol=1e-10, record_every=4)
        lam = 0.05 * eng.lambda_max
        eng.solve(lam=lam, warm_start=False)
        eng.append(*batches[0])
        warm = eng.solve(lam=lam)
        A_eff, b_eff = eng.materialize()
        cold = fit_lasso(A_eff, b_eff, lam, solver="sa-accbcd", mu=2, s=8,
                         max_iter=4000, tol=1e-10, record_every=4)
        obj_w = lasso_objective(A_eff, b_eff, warm.x, lam)
        obj_c = lasso_objective(A_eff, b_eff, cold.x, lam)
        assert obj_w <= obj_c * (1 + 1e-6) + 1e-12
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-4 * max(
            1.0, float(np.max(np.abs(cold.x)))
        )


# ---------------------------------------------------------------------------
# replay harness
# ---------------------------------------------------------------------------


class TestReplaySchedule:
    def test_report_schema_and_totals(self):
        A, b, batches = _lasso_data()
        rep = replay_schedule(A, b, batches, task="lasso", lam=0.5,
                              mu=2, s=8, max_iter=64, tol=None,
                              virtual_p=64, machine=CRAY_XC30,
                              compare_cold=True)
        assert rep["format_version"] == 3
        assert rep["task"] == "lasso" and rep["solver"] == "sa-accbcd"
        assert rep["schedule"] == [
            {"op": "append", "rows": B.shape[0]} for B, _ in batches
        ]
        assert len(rep["revisions"]) == len(batches) + 1
        for e in rep["revisions"]:
            assert {"rev", "rows_total", "rows_added", "rows_removed",
                    "labels_changed", "append_cost", "evict_cost",
                    "warm", "cold", "solution_rel_diff"} <= set(e)
            assert e["warm"]["cost"]["seconds"] > 0
        assert rep["revisions"][0]["cold"] is None
        for e in rep["revisions"][1:]:
            assert e["cold"] is not None
            assert e["solution_rel_diff"] is not None
        totals = rep["totals"]
        # the refit total is append + evict + solve, matching the
        # per-revision table rows (evict is zero for append-only replays)
        assert totals["warm_refit_cost"]["seconds"] == pytest.approx(
            sum(e["warm"]["cost"]["seconds"] + e["append_cost"]["seconds"]
                + e["evict_cost"]["seconds"]
                for e in rep["revisions"][1:])
        )

    def test_replay_runs_on_real_ranks(self):
        A, b, batches = _lasso_data()
        for backend in ("thread", "process"):
            rep = replay_schedule(A, b, batches[:1], task="lasso", lam=0.5,
                                  mu=2, s=8, max_iter=48, tol=None,
                                  backend=backend, ranks=2)
            assert rep["backend"] == backend and rep["ranks"] == 2
            assert len(rep["revisions"]) == 2

    def test_svm_replay(self):
        A, b, batches = _svm_data()
        rep = replay_schedule(A, b, batches[:1], task="svm", loss="l2",
                              lam=0.5, s=8, max_iter=96, tol=None,
                              record_every=48, compare_cold=True)
        assert rep["task"] == "svm" and rep["solver"] == "sa-svm"
        assert rep["revisions"][1]["solution_rel_diff"] is not None

    def test_unknown_backend_and_task(self):
        A, b, batches = _lasso_data()
        with pytest.raises(CommError):
            replay_schedule(A, b, batches, task="lasso", backend="mpi")
        with pytest.raises(SolverError):
            replay_schedule(A, b, batches, task="ridge")
