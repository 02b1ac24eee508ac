"""Sliding-window streaming: row eviction, label-only updates, windows.

ISSUE 5 acceptance: every mutation keeps the PR-4 equivalence contract —
interleaved append/evict/label-edit schedules must match a cold solve on
``materialize()`` of the *surviving* rows (fresh matrix, fresh caches,
the engine's own warm start) to <= 1e-9, on every solver x backend
combination; ``lambda_max`` after downdates equals a from-scratch
recompute; and each revision's ledger banking reconstructs the measured
costs exactly.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro._api import fit_lasso, fit_svm
from repro.datasets import make_classification, make_sparse_regression
from repro.errors import PartitionError, SolverError
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.machine.spec import CRAY_XC30
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.objectives import lambda_max
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
        return [fn(VirtualComm(1), 0)]
    runner = spmd_run if backend == "thread" else process_spmd_run
    return runner(fn, ranks).values


# ---------------------------------------------------------------------------
# remove_rows: the mutable-matrix primitive
# ---------------------------------------------------------------------------


class TestRemoveRowsRowPartitioned:
    def test_single_rank_matches_delete(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        removed = dist.remove_rows([0, 5, 7, 239])
        keep = np.setdiff1d(np.arange(A.shape[0]), [0, 5, 7, 239])
        assert removed.sum() == 4
        assert dist.shape == (A.shape[0] - 4, A.shape[1])
        assert np.allclose(_dense(dist.local), _dense(A)[keep])
        assert dist.local_nnz == dist.local.nnz

    def test_sampling_view_invalidated_and_rebuilt(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        idx = np.array([0, 3, 5])
        dist.sample_columns(idx)
        assert dist._csc_cache is not None
        dist.remove_rows([1, 2])
        assert dist._csc_cache is None  # stale view dropped
        after = _dense(dist.sample_columns(idx))
        keep = np.setdiff1d(np.arange(A.shape[0]), [1, 2])
        assert np.allclose(after, _dense(A)[keep][:, idx])

    def test_collective_buffers_survive_removal(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        idx = np.arange(4)
        S = dist.sample_columns(idx)
        dist.gram_and_project(S, [np.zeros(dist.local.shape[0])])
        send_before, gram_before = dist._send_buf, dist._gram_out
        dist.remove_rows(np.arange(10))
        S = dist.sample_columns(idx)
        G, _ = dist.gram_and_project(S, [np.zeros(dist.local.shape[0])])
        assert dist._send_buf is send_before
        assert dist._gram_out is gram_before
        assert np.allclose(G, _dense(S).T @ _dense(S))

    def test_spmd_removal_updates_partition(self):
        A, b, _ = _lasso_data()
        drop = np.array([0, 11, 40, 100, 239])

        def fn(comm, rank):
            dist = RowPartitionedMatrix.from_global(A, comm)
            old_counts = dist.partition.counts().copy()
            removed = dist.remove_rows(drop)
            assert dist.shape[0] == A.shape[0] - drop.size
            assert np.array_equal(dist.partition.counts(),
                                  old_counts - removed)
            assert dist.local.shape[0] == dist.partition.counts()[rank]
            return _dense(dist.local)

        res = spmd_run(fn, 3)
        stacked = np.vstack(res.values)
        # from_global slices contiguous row ranges, so the shard
        # concatenation preserves the global order of the survivors
        assert np.allclose(stacked,
                           _dense(A)[np.setdiff1d(np.arange(A.shape[0]), drop)])

    def test_emptying_one_ranks_shard_is_legal(self):
        A, b, _ = _lasso_data()

        def fn(comm, rank):
            dist = RowPartitionedMatrix.from_global(A, comm)
            lo, hi = dist.partition.range_of(0)
            removed = hi - lo
            dist.remove_rows(np.arange(lo, hi))  # rank 0 loses every row
            assert dist.partition.count_of(0) == 0
            # sampling and the Gram collective still work on every rank
            S = dist.sample_columns(np.array([0, 2, 4]))
            G, _ = dist.gram_and_project(S, [np.zeros(dist.local.shape[0])])
            assert np.all(np.isfinite(G))
            # an nnz-balanced append repopulates the empty shard
            dist.append_rows(A[:12])
            assert dist.partition.counts().sum() == dist.shape[0]
            assert dist.shape[0] == A.shape[0] - removed + 12
            return True

        assert all(spmd_run(fn, 2).values)

    def test_out_of_range_and_total_removal_rejected(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        with pytest.raises(PartitionError, match="lie in"):
            dist.remove_rows([A.shape[0]])
        with pytest.raises(PartitionError, match="every row"):
            dist.remove_rows(np.arange(A.shape[0]))

    def test_empty_removal_is_noop(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        dist.sample_columns(np.array([0]))
        view = dist._csc_cache
        assert dist.remove_rows([]).sum() == 0
        assert dist._csc_cache is view  # nothing invalidated

    def test_empty_append_is_noop(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        dist.sample_columns(np.array([0]))
        view = dist._csc_cache
        part = dist.append_rows(A[:0])
        assert part.n == 0 and dist.shape == A.shape
        assert dist._csc_cache is view

    def test_duplicate_indices_merged(self):
        A, b, _ = _lasso_data()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        removed = dist.remove_rows([3, 3, 7])
        assert removed.sum() == 2 and dist.shape[0] == A.shape[0] - 2


class TestRemoveRowsColPartitioned:
    def test_single_rank_matches_delete(self):
        A, b, _ = _svm_data()
        dist = ColPartitionedMatrix.from_global(A, VirtualComm(1))
        n_removed = dist.remove_rows([1, 2, 199])
        keep = np.setdiff1d(np.arange(A.shape[0]), [1, 2, 199])
        assert n_removed == 3
        assert dist.shape == (A.shape[0] - 3, A.shape[1])
        assert np.allclose(_dense(dist.local), _dense(A)[keep])

    def test_spmd_removal_keeps_column_partition(self):
        A, b, _ = _svm_data()
        drop = np.array([0, 50, 150])

        def fn(comm, rank):
            dist = ColPartitionedMatrix.from_global(A, comm)
            offsets_before = dist.partition.offsets
            dist.remove_rows(drop)
            assert dist.partition.offsets == offsets_before
            lo, hi = dist.partition.range_of(rank)
            keep = np.setdiff1d(np.arange(A.shape[0]), drop)
            assert np.allclose(_dense(dist.local), _dense(A)[keep][:, lo:hi])
            # row sampling sees the compacted order
            Y = dist.sample_rows(np.array([0]))
            assert np.allclose(_dense(Y).ravel(), _dense(A)[keep][0, lo:hi])
            return True

        assert all(spmd_run(fn, 3).values)

    def test_errors_and_noop(self):
        A, b, _ = _svm_data()
        dist = ColPartitionedMatrix.from_global(A, VirtualComm(1))
        with pytest.raises(PartitionError, match="lie in"):
            dist.remove_rows([-1])
        with pytest.raises(PartitionError, match="every row"):
            dist.remove_rows(np.arange(A.shape[0]))
        assert dist.remove_rows([]) == 0
        dist.append_rows(A[:0])  # empty append: no-op
        assert dist.shape == A.shape


# ---------------------------------------------------------------------------
# engine state: downdates, windows, label edits, ledger reconstruction
# ---------------------------------------------------------------------------


class TestWindowedEngineState:
    def test_downdated_lambda_max_matches_recompute(self):
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso")
        eng.append(*batches[0])
        for ids in ([0, 1, 2], [250, 30, 31], [5]):
            eng.evict(ids)
            A_eff, b_eff = eng.materialize()
            assert eng.lambda_max == pytest.approx(
                lambda_max(A_eff, b_eff), rel=1e-9
            )

    def test_downdated_lambda_max_on_ranks(self):
        A, b, batches = _lasso_data()

        def fn(comm, rank):
            eng = StreamingSweep(A, b, task="lasso", comm=comm)
            eng.append(*batches[0])
            eng.evict(np.arange(25))
            eng.update_labels([30, 40], [0.25, -0.75])
            A_eff, b_eff = eng.materialize()
            return eng.lambda_max, lambda_max(A_eff, b_eff)

        for got, want in spmd_run(fn, 2).values:
            assert got == pytest.approx(want, rel=1e-9)

    def test_label_update_lambda_max_and_placement(self):
        A, b, _ = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso")
        ids = np.array([7, 100, 239])
        vals = np.array([2.0, -1.5, 0.0])
        eng.update_labels(ids, vals)
        order = eng.arrival_order()
        A_eff, b_eff = eng.materialize()
        for i, v in zip(ids, vals, strict=True):
            assert b_eff[np.nonzero(order == i)[0][0]] == v
        assert eng.lambda_max == pytest.approx(
            lambda_max(A_eff, b_eff), rel=1e-9
        )

    def test_materialize_tracks_full_history(self):
        """A_eff == full arrival history indexed by arrival_order(), for
        any interleaving of appends, evictions, and label edits."""
        A, b, batches = _lasso_data()
        hist_A = [_dense(A)] + [_dense(B) for B, _ in batches]
        hist_A = np.vstack(hist_A)
        hist_b = np.concatenate([b] + [y for _, y in batches])

        def fn(comm, rank):
            eng = StreamingSweep(A, b, task="lasso", comm=comm)
            eng.append(*batches[0])
            eng.evict([0, 10, 245])
            eng.update_labels([50, 60], [1.0, -1.0])
            eng.append(*batches[1])
            eng.evict([271])
            A_eff, b_eff = eng.materialize()
            return _dense(A_eff), b_eff, eng.arrival_order()

        hist_b_edit = hist_b.copy()
        hist_b_edit[[50, 60]] = [1.0, -1.0]
        for A_eff, b_eff, order in spmd_run(fn, 3).values:
            assert np.allclose(A_eff, hist_A[order])
            assert np.allclose(b_eff, hist_b_edit[order])
            survivors = np.setdiff1d(
                np.arange(hist_A.shape[0]), [0, 10, 245, 271]
            )
            assert np.array_equal(np.sort(order), survivors)

    def test_window_trims_oldest_within_revision(self):
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso", max_rows=A.shape[0])
        eng.append(*batches[0])
        k = batches[0][0].shape[0]
        assert eng.n_rows == A.shape[0]
        rev = eng.revisions[-1]
        assert rev.rows_added == k and rev.rows_removed == k
        assert np.array_equal(eng.surviving_rows(),
                              np.arange(k, A.shape[0] + k))
        # the trim is measured separately from the append
        assert rev.evict_cost.flops > 0
        assert rev.append_cost.flops > 0

    def test_window_rejects_oversized_initial_data(self):
        A, b, _ = _lasso_data()
        with pytest.raises(SolverError, match="max_rows"):
            StreamingSweep(A, b, task="lasso", max_rows=10)
        with pytest.raises(SolverError, match="max_rows"):
            StreamingSweep(A, b, task="lasso", max_rows=0)

    def test_per_revision_ledger_reconstruction(self):
        """Each revision's banked snapshots equal the ledger's measured
        state after the mutating call — exactly, field by field."""
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso", virtual_p=8,
                             machine=CRAY_XC30, mu=2, s=8, max_iter=32,
                             tol=None)

        def snap_equal(a, c):
            return (a.comm_seconds == c.comm_seconds
                    and a.compute_seconds == c.compute_seconds
                    and a.messages == c.messages and a.words == c.words
                    and a.flops == c.flops)

        eng.append(*batches[0])
        assert snap_equal(eng.revisions[-1].append_cost
                          + eng.revisions[-1].evict_cost,
                          eng.comm.ledger.snapshot())
        eng.evict(np.arange(12))
        assert snap_equal(eng.revisions[-1].evict_cost,
                          eng.comm.ledger.snapshot())
        assert eng.revisions[-1].evict_cost.messages > 0  # the Allreduce
        eng.update_labels([20, 21], [0.5, -0.5])
        assert snap_equal(eng.revisions[-1].append_cost,
                          eng.comm.ledger.snapshot())
        res = eng.solve(lam=0.5)
        assert snap_equal(eng.revisions[-1].solve_costs[0],
                          eng.comm.ledger.snapshot())
        assert res.cost is eng.revisions[-1].solve_costs[0]

    def test_evict_cheaper_than_rescan(self):
        """The downdate is O(nnz(evicted)) + one n-word Allreduce, not an
        O(nnz(A)) rescan of the survivors."""
        A, b, _ = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso", virtual_p=8,
                             machine=CRAY_XC30)
        # revision 0 derives A^T b with one full-data spmv
        full_spmv = eng.comm.ledger.by_kind["spmv"]
        eng.evict([0, 1])
        # the eviction's matvec work touches only the evicted rows — far
        # below the full-data product a rescan would pay (the remaining
        # evict_cost is the unavoidable shard compaction, charged as
        # gather/scalar kinds)
        assert 0 < eng.comm.ledger.by_kind["spmv"] < 0.1 * full_spmv
        # and exactly one n-word collective, like the incremental append
        assert eng.revisions[-1].evict_cost.messages == \
            eng.revisions[0].append_cost.messages

    def test_empty_append_and_evict_are_noops(self):
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso")
        rev = eng.revision
        assert eng.append(batches[0][0][:0], batches[0][1][:0]) == rev
        assert eng.evict([]) == rev
        assert eng.update_labels([], []) == rev
        assert len(eng.revisions) == 1  # no spurious revisions

    def test_mutation_validation(self):
        A, b, batches = _lasso_data()
        eng = StreamingSweep(A, b, task="lasso")
        with pytest.raises(SolverError, match="labels must match"):
            eng.append(batches[0][0], batches[0][1][:-1])
        with pytest.raises(SolverError, match="not\\s+present"):
            eng.evict([9999])
        with pytest.raises(SolverError, match="every row"):
            eng.evict(np.arange(A.shape[0]))
        with pytest.raises(SolverError, match="duplicate"):
            eng.update_labels([3, 3], [1.0, 2.0])
        with pytest.raises(SolverError, match="labels must match"):
            eng.update_labels([3], [1.0, 2.0])
        with pytest.raises(SolverError, match="not\\s+present"):
            eng.update_labels([9999], [1.0])
        eng.evict([5])
        with pytest.raises(SolverError, match="not\\s+present"):
            eng.evict([5])  # already gone

    def test_svm_dual_shrinks_and_label_edits_reset(self):
        A, b, batches = _svm_data()
        eng = StreamingSweep(A, b, task="svm", s=8, max_iter=80, tol=None,
                             lam=0.5, loss="l2")
        eng.solve()
        alpha = eng._alpha_warm.copy()
        eng.evict([0, 3])
        assert eng._alpha_warm.shape[0] == A.shape[0] - 2
        keep = np.setdiff1d(np.arange(A.shape[0]), [0, 3])
        assert np.array_equal(eng._alpha_warm, alpha[keep])
        # flipping labels resets only the flipped coordinates
        before = eng._alpha_warm.copy()
        order = eng.arrival_order()
        flip = order[[4, 5]]
        eng.update_labels(flip, -eng.b[[4, 5]])
        assert np.all(eng._alpha_warm[[4, 5]] == 0.0)
        mask = np.ones(before.shape[0], dtype=bool)
        mask[[4, 5]] = False
        assert np.array_equal(eng._alpha_warm[mask], before[mask])
        with pytest.raises(SolverError, match="labels"):
            eng.update_labels([10], [2.0])  # not in {-1, +1}
        eng.solve()  # still solvable after the surgery

    def test_svm_window(self):
        A, b, batches = _svm_data()
        eng = StreamingSweep(A, b, task="svm", max_rows=A.shape[0], s=8,
                             max_iter=80, tol=None, lam=0.5, loss="l2")
        eng.append(*batches[0])
        k = batches[0][0].shape[0]
        assert eng.n_rows == A.shape[0]
        assert np.array_equal(eng.arrival_order(),
                              np.arange(k, A.shape[0] + k))


# ---------------------------------------------------------------------------
# the equivalence contract: interleaved schedules, every solver x backend
# ---------------------------------------------------------------------------

_EQ_KW = dict(mu=2, s=8, max_iter=96, tol=None, seed=1, record_every=8)
_EQ_SVM_KW = dict(s=8, max_iter=160, tol=None, seed=1, record_every=40)


def _interleaved_lasso(comm, rank, solver, pipeline):
    """Append / evict / label-edit schedule vs cold solves on the
    surviving materialized data, from the engine's own warm start."""
    A, b, batches = _lasso_data()
    kw = dict(_EQ_KW)
    if not solver.startswith("sa-"):
        kw.pop("s")
        pipeline = False
    eng = StreamingSweep(A, b, task="lasso", comm=comm, solver=solver,
                         schedule=Schedule(ring=pipeline), max_rows=A.shape[0] + 20, **kw)
    lam = 0.05 * eng.lambda_max
    eng.solve(lam=lam, warm_start=False)
    steps = [
        lambda: eng.append(*batches[0]),          # 240 -> 260 (window: -10)
        lambda: eng.evict(eng.surviving_rows()[:8]),
        lambda: eng.update_labels(eng.surviving_rows()[:5],
                                  np.linspace(-1.0, 1.0, 5)),
        lambda: eng.append(*batches[1]),
        lambda: eng.evict(eng.surviving_rows()[-4:]),
    ]
    for step in steps:
        step()
        x_warm = None if eng._x_warm is None else eng._x_warm.copy()
        res = eng.solve(lam=lam)
        A_eff, b_eff = eng.materialize()
        cold_dist = RowPartitionedMatrix.from_global(
            A_eff, comm, partition=eng.dist.partition
        )
        cold = fit_lasso(cold_dist, b_eff, lam, solver=solver, comm=comm,
                         x0=x_warm, schedule=Schedule(ring=pipeline), **kw)
        scale = max(float(np.max(np.abs(cold.x))), 1e-30)
        drift = float(np.max(np.abs(res.x - cold.x))) / scale
        assert drift <= 1e-9, (solver, drift)
    return True


def _interleaved_svm(comm, rank, solver, pipeline):
    A, b, batches = _svm_data()
    kw = dict(_EQ_SVM_KW)
    if solver != "sa-svm":
        kw.pop("s")
        pipeline = False
    eng = StreamingSweep(A, b, task="svm", comm=comm, solver=solver,
                         loss="l2", lam=0.5, schedule=Schedule(ring=pipeline),
                         max_rows=A.shape[0] + 20, **kw)
    eng.solve(warm_start=False)
    steps = [
        lambda: eng.append(*batches[0]),          # 200 -> 224 (window: -4)
        lambda: eng.evict(eng.surviving_rows()[:6]),
        lambda: eng.update_labels(eng.surviving_rows()[:3],
                                  -eng.b[np.isin(eng.arrival_order(),
                                                 eng.surviving_rows()[:3])]),
        lambda: eng.append(*batches[1]),
    ]
    for step in steps:
        step()
        alpha0 = eng._alpha_warm.copy()
        res = eng.solve()
        A_eff, b_eff = eng.materialize()
        cold_dist = ColPartitionedMatrix.from_global(
            A_eff, comm, partition=eng.dist.partition
        )
        cold = fit_svm(cold_dist, b_eff, loss="l2", lam=0.5, solver=solver,
                       comm=comm, alpha0=alpha0, schedule=Schedule(ring=pipeline), **kw)
        scale = max(float(np.max(np.abs(cold.x))), 1e-30)
        drift = float(np.max(np.abs(res.x - cold.x))) / scale
        assert drift <= 1e-9, (solver, drift)
    return True


class TestEvictionEquivalence:
    """ISSUE 5 acceptance: interleaved append/evict/label-edit schedules
    match cold solves on the surviving data <= 1e-9, for every solver x
    backend combination."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("solver", LASSO_SOLVERS)
    def test_lasso(self, solver, backend):
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _interleaved_lasso(comm, rank, solver, False)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("solver", SVM_SOLVERS)
    def test_svm(self, solver, backend):
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _interleaved_svm(comm, rank, solver, False)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lasso_pipelined(self, backend):
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _interleaved_lasso(comm, rank, "sa-accbcd", True)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_svm_pipelined(self, backend):
        ranks = 1 if backend == "virtual" else 2
        fn = lambda comm, rank: _interleaved_svm(comm, rank, "sa-svm", True)  # noqa: E731
        assert all(_run_backend(fn, backend, ranks))


# ---------------------------------------------------------------------------
# replay harness: event ops, window, schema v2
# ---------------------------------------------------------------------------


class TestReplayEvents:
    def test_event_schedule_schema(self):
        A, b, batches = _lasso_data()
        rep = replay_schedule(
            A, b,
            [batches[0], ("evict_oldest", 12), ("relabel_oldest", 5),
             ("evict", [40, 41]), batches[1]],
            task="lasso", lam=0.5, mu=2, s=8, max_iter=48, tol=None,
            virtual_p=8, machine=CRAY_XC30, compare_cold=True,
        )
        assert rep["format_version"] == 3
        assert rep["max_rows"] is None
        assert rep["schedule"] == [
            {"op": "append", "rows": 30}, {"op": "evict", "rows": 12},
            {"op": "labels", "rows": 5}, {"op": "evict", "rows": 2},
            {"op": "append", "rows": 18},
        ]
        revs = rep["revisions"]
        assert [e["rows_removed"] for e in revs] == [0, 0, 12, 0, 2, 0]
        assert [e["labels_changed"] for e in revs] == [0, 0, 0, 5, 0, 0]
        for e in revs:
            assert {"rows_removed", "labels_changed", "evict_cost"} <= set(e)
        assert revs[2]["evict_cost"]["seconds"] > 0
        # totals include every revision's eviction work
        totals = rep["totals"]["warm_refit_cost"]
        assert totals["seconds"] == pytest.approx(
            sum(e["warm"]["cost"]["seconds"] + e["append_cost"]["seconds"]
                + e["evict_cost"]["seconds"] for e in revs[1:])
        )

    def test_windowed_replay(self):
        A, b, batches = _lasso_data()
        rep = replay_schedule(A, b, batches, task="lasso", lam=0.5,
                              max_rows=A.shape[0], mu=2, s=8, max_iter=48,
                              tol=None)
        assert rep["max_rows"] == A.shape[0]
        for e, (B, _) in zip(rep["revisions"][1:], batches, strict=True):
            assert e["rows_added"] == B.shape[0]
            assert e["rows_removed"] == B.shape[0]  # window keeps m fixed
            assert e["rows_total"] == A.shape[0]

    def test_replay_events_on_real_ranks(self):
        A, b, batches = _lasso_data()
        for backend in ("thread", "process"):
            rep = replay_schedule(
                A, b, [batches[0], ("evict_oldest", 10)], task="lasso",
                lam=0.5, mu=2, s=8, max_iter=48, tol=None,
                backend=backend, ranks=2,
            )
            assert rep["revisions"][2]["rows_removed"] == 10

    def test_svm_relabel_event(self):
        A, b, batches = _svm_data()
        rep = replay_schedule(
            A, b, [batches[0], ("relabel_oldest", 4)], task="svm",
            loss="l2", lam=0.5, s=8, max_iter=96, tol=None,
            record_every=48,
        )
        assert rep["revisions"][2]["labels_changed"] == 4

    def test_noop_events_emit_no_entry(self):
        """Empty mutations are engine no-ops; the replay must not emit a
        duplicate revision entry (which would double-count its cost)."""
        A, b, batches = _lasso_data()
        B, y = batches[0]
        rep = replay_schedule(
            A, b,
            [batches[0], ("evict", []), ("labels", [], []),
             ("append", B[:0], y[:0])],
            task="lasso", lam=0.5, mu=2, s=8, max_iter=48, tol=None,
        )
        assert [e["rev"] for e in rep["revisions"]] == [0, 1]
        assert rep["totals"]["warm_refit_cost"]["seconds"] == pytest.approx(
            rep["revisions"][1]["warm"]["cost"]["seconds"]
            + rep["revisions"][1]["append_cost"]["seconds"]
            + rep["revisions"][1]["evict_cost"]["seconds"]
        )

    def test_unknown_event_rejected(self):
        A, b, batches = _lasso_data()
        with pytest.raises(SolverError, match="event"):
            replay_schedule(A, b, [("merge", 3)], task="lasso")
        with pytest.raises(SolverError, match="event"):
            replay_schedule(A, b, [(1, 2, 3)], task="lasso")
