"""Sweeps overlap their Gram reductions: the schedule contract.

Every engine that runs a sequence of solves (``lasso_path``,
``svm_path``, ``StreamingSweep`` and through it ``replay_schedule`` and
the serve tenants) runs each SA solve on ``SWEEP_SCHEDULE``, the async
ring at ``tau = 1``, by default, resolved per solve: a solve stopped by
``tol``, or whose largest post would not fit the nonblocking slot, runs
the pipelined ring (``Schedule(ring=True)``). Pinned here:

* **one schedule value** — no entry point above the SA solvers takes
  ``pipeline``, ``async_`` or ``tau``; each takes one ``schedule``;
* **same answers, less waiting** — on 2 thread ranks the default run
  equals its ``Schedule()`` run bit for bit in every point's ``x``
  (and ``alpha``), the recorded metrics, the iteration counts and the
  ``converged`` flags; messages and words are equal, and the modelled
  ``comm_seconds`` falls by exactly the ``comm_seconds_hidden`` the
  ledger credits. Flops are equal too, except that a solve stopped by
  ``tol`` has sampled and packed the next outer step while its last
  reduction was in flight, work the blocking schedule never starts;
* **a fixed budget runs the async ring** — without ``tol`` the default
  path equals blocking to rounding, with the same records and
  messages; its words are blocking's plus each post's cross Gram and its
  flops blocking's plus the cross Grams' and the corrections', exactly;
* **the reductions really are posted** — under a ``CollectiveTracer``
  the default path posts every Gram reduction nonblocking, leaving only
  the ``lambda_max`` Allreduce and two record syncs per point blocking;
* **the recorded schedule is the one that ran** — a classical solver
  runs blocking without error, ``--async`` takes precedence over a
  sweep's default ``--pipeline`` without the mutual-exclusion error,
  and ``PathResult.extras``, the replay report and the serve report say
  ``pipeline: false`` for both;
* **one rank has nothing to overlap** — a sweep on a communicator that
  models one rank (every entry point's default ``virtual_p=1``, and so
  the CV estimators) runs blocking, equal to ``Schedule()`` in every
  modelled cost, and records ``pipeline: false``;
* **single solves keep their checks** — ``fit_lasso(solver="bcd",
  schedule=Schedule(ring=True))`` still raises;
* **the CLI** — ``lasso-path``, ``stream`` and ``serve`` take
  ``--pipeline/--no-pipeline``, on by default, print the same
  objectives either way and name the schedule that ran; ``lasso`` and
  ``svm`` keep ``--pipeline`` off and reject it with ``--async`` or a
  classical solver;
* **forked ranks** (``-m slow``) — on 2 process ranks the default
  ``lasso_path`` runs the ring and equals ``Schedule()`` bit for bit.
"""

import inspect
import json

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro import (
    SALassoCV,
    SASVMClassifierCV,
    Schedule,
    StreamingSweep,
    SweepContext,
    fit_lasso,
    lasso_path,
    svm_path,
)
from repro._api import SOLVERS, check_solver
from repro.cli import build_parser, main
from repro.datasets import make_classification, make_sparse_regression, registry
from repro.errors import SolverError
from repro.experiments.runner import run_lasso, run_svm
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.linalg.partition import Partition1D
from repro.machine.spec import CRAY_XC30
from repro.mpi.thread_backend import spmd_run
from repro.mpi.tracing import attach_tracer
from repro.mpi.virtual_backend import VirtualComm
from repro.prox.penalties import L1Penalty
from repro.serve import TenantSpec, TraceEvent, serve_trace
from repro.solvers import lasso as lasso_solvers
from repro.solvers import svm as svm_solvers
from repro.solvers.lasso.common import make_sampler
from repro.solvers.outer import SWEEP_SCHEDULE, run_sa
from repro.streaming import replay_schedule

SEED = 3
RANKS = 2


@pytest.fixture(scope="module")
def regression():
    A, b, _ = make_sparse_regression(120, 40, density=0.2, seed=SEED)
    return A, b


@pytest.fixture(scope="module")
def classification():
    return make_classification(120, 40, density=0.2, seed=SEED, margin=0.2)


def _same_run(ring, blocking):
    """One solve of the default sweep against the same blocking solve."""
    assert np.array_equal(ring.x, blocking.x)
    if "alpha" in blocking.extras:
        assert np.array_equal(ring.extras["alpha"], blocking.extras["alpha"])
    assert ring.history.iterations == blocking.history.iterations
    assert ring.history.metric == blocking.history.metric
    assert ring.iterations == blocking.iterations
    assert ring.converged == blocking.converged
    rc, bc = ring.cost, blocking.cost
    assert (rc.messages, rc.words) == (bc.messages, bc.words)
    assert rc.comm_seconds + rc.comm_seconds_hidden == pytest.approx(
        bc.comm_seconds, rel=1e-12)
    assert bc.comm_seconds_hidden == 0.0
    if blocking.converged:
        # the prefetch of the step after the converged record
        assert rc.flops > bc.flops
    else:
        assert rc.flops == pytest.approx(bc.flops, rel=1e-12)


def _same_sweep(ring_results, blocking_results):
    assert len(ring_results) == len(blocking_results)
    for ring, blocking in zip(ring_results, blocking_results, strict=True):
        _same_run(ring, blocking)
    # the ring hid some of the reductions' modelled transit
    assert sum(r.cost.comm_seconds_hidden for r in ring_results) > 0.0


KNOBS = {"pipeline", "async_", "tau"}


class TestOneScheduleValue:
    def test_no_entry_point_above_the_sa_solvers_takes_the_knobs(self):
        # every public callable but the value itself and the error type
        entries = [getattr(repro, name) for name in repro.__all__]
        entries = [fn for fn in entries if callable(fn)
                   and fn not in (Schedule, repro.ReproError)]
        entries += [run_lasso, run_svm, SweepContext.solve]
        for fn in entries:
            params = set(inspect.signature(fn).parameters)
            assert not params & KNOBS, (fn.__name__, params & KNOBS)
        takes = {fn.__name__ for fn in entries
                 if "schedule" in inspect.signature(fn).parameters}
        assert takes == {
            "fit_lasso", "fit_svm", "run_lasso", "run_svm", "lasso_path",
            "svm_path", "solve", "StreamingSweep", "replay_schedule",
            "SALasso", "SASVMClassifier",
        }
        assert "schedule" not in inspect.signature(SALassoCV).parameters
        assert "schedule" not in inspect.signature(SASVMClassifierCV).parameters

    def test_the_sa_solvers_keep_the_knobs(self):
        for fn in (lasso_solvers.sa_bcd, lasso_solvers.sa_acc_bcd,
                   svm_solvers.sa_dcd, run_sa):
            params = set(inspect.signature(fn).parameters)
            assert KNOBS <= params and "schedule" not in params, fn.__name__


class TestSweepSchedule:
    @pytest.mark.parametrize("solver,pipeline,async_,cost_size,want", [
        ("sa-accbcd", True, False, 2, (True, False)),
        ("sa-svm", True, False, 64, (True, False)),
        ("sa-bcd", False, False, 2, (False, False)),
        ("bcd", True, False, 2, (False, False)),
        ("svm", True, False, 2, (False, False)),
        ("sa-accbcd", True, True, 2, (False, True)),
        ("sa-svm", False, True, 2, (False, True)),
        # one rank: nothing to overlap, whatever the ring
        ("sa-accbcd", True, False, 1, (False, False)),
        ("sa-svm", True, False, 1, (False, False)),
        ("sa-bcd", True, True, 1, (False, False)),
    ])
    def test_resolution(self, solver, pipeline, async_, cost_size, want):
        # the flags as a sweep command reads them, --async winning
        task = "svm" if solver in SOLVERS["svm"] else "lasso"
        ran = Schedule.from_flags(pipeline, async_, 1).for_sweep(
            check_solver(solver, task), VirtualComm(cost_size), k=8, tail=1,
            tol=None)
        assert (ran.knobs()["pipeline"], ran.is_async) == want


# ---------------------------------------------------------------------------
# same answers, less waiting (2 thread ranks)
# ---------------------------------------------------------------------------
def _lasso_paths(comm, rank, A, b):
    kw = dict(n_lambdas=4, mu=2, s=4, max_iter=48, record_every=4, tol=1e-4,
              seed=SEED)
    ring = lasso_path(A, b, comm=comm, **kw)
    blocking = lasso_path(A, b, comm=comm, schedule=Schedule(), **kw)
    return ring, blocking


def _svm_paths(comm, rank, A, b):
    kw = dict(loss="l1", s=4, max_iter=64, record_every=8, tol=1e-3,
              seed=SEED)
    grid = [0.25, 1.0, 4.0]
    ring = svm_path(A, b, grid, comm=comm, **kw)
    blocking = svm_path(A, b, grid, comm=comm, schedule=Schedule(), **kw)
    return ring, blocking


def _stream(comm, rank, task, A, b, schedule):
    """A warm refit after every kind of mutation: two appends (the second
    overflows the window, an eviction), an explicit eviction and a
    relabel of the oldest rows."""
    m0 = 60
    sweep = StreamingSweep(
        A[:m0], b[:m0], task=task, comm=comm, max_rows=m0 + 10, mu=2, s=4,
        max_iter=48, record_every=4, tol=1e-4, seed=SEED, schedule=schedule,
    )
    results = [sweep.solve(warm_start=False)]
    sweep.append(A[m0:m0 + 8], b[m0:m0 + 8])
    results.append(sweep.solve())
    sweep.append(A[m0 + 8:m0 + 16], b[m0 + 8:m0 + 16])
    results.append(sweep.solve())
    sweep.evict(sweep.surviving_rows()[:3])
    results.append(sweep.solve())
    ids = sweep.surviving_rows()[:4]
    order = sweep.arrival_order()
    pos = np.nonzero(np.isin(order, ids))[0]
    sweep.update_labels(order[pos], -sweep.b[pos])
    results.append(sweep.solve())
    assert [r.rows_removed for r in sweep.revisions] == [0, 0, 6, 3, 0]
    return results, sweep.schedule


class TestSameAnswersLessWaiting:
    def test_lasso_path(self, regression):
        out = spmd_run(_lasso_paths, RANKS, args=regression,
                       machine=CRAY_XC30)
        for ring, blocking in out.values:
            _same_sweep(ring.results, blocking.results)
            assert ring.extras["pipeline"] is True
            assert blocking.extras["pipeline"] is False
        assert any(r.converged for r in out.values[0][0].results)

    def test_svm_path(self, classification):
        out = spmd_run(_svm_paths, RANKS, args=classification,
                       machine=CRAY_XC30)
        for ring, blocking in out.values:
            _same_sweep(ring.results, blocking.results)
            assert ring.extras["pipeline"] is True
            assert blocking.extras["pipeline"] is False

    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_streaming_sweep(self, task, regression, classification):
        A, b = regression if task == "lasso" else classification
        ring = spmd_run(_stream, RANKS, args=(task, A, b, Schedule(ring=True)),
                        machine=CRAY_XC30)
        blocking = spmd_run(_stream, RANKS, args=(task, A, b, Schedule()),
                            machine=CRAY_XC30)
        for (r_res, r_sched), (b_res, b_sched) in zip(
                ring.values, blocking.values, strict=True):
            _same_sweep(r_res, b_res)
            assert r_sched.report() == {"pipeline": True, "async": False, "tau": 0}
            assert b_sched.report() == {"pipeline": False, "async": False, "tau": 0}


# ---------------------------------------------------------------------------
# a fixed budget runs the async ring
# ---------------------------------------------------------------------------
#: a fixed-budget path: 12 outer steps of k = 8 columns (Lasso) or 4
#: rows (SVM) per point, no records but each point's first and last
FIXED = dict(s=4, max_iter=48, record_every=0, tol=None, seed=SEED)


def _fixed_paths(comm, rank, task, A, b):
    if task == "lasso":
        def run(**kw):
            return lasso_path(A, b, n_lambdas=3, mu=2, comm=comm, **FIXED, **kw)
    else:
        def run(**kw):
            return svm_path(A, b, [0.5, 2.0], comm=comm, **FIXED, **kw)
    return run(), run(schedule=Schedule())


def _close(got, want):
    """Equal to rounding: within 1e-10 of ``want``'s largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * max(
        np.max(np.abs(want), initial=0.0), 1e-300)


class TestFixedBudgetRunsTheAsyncRing:
    @pytest.mark.parametrize("task,k", [("lasso", 8), ("svm", 4)])
    def test_same_answers(self, task, k, regression, classification):
        A, b = regression if task == "lasso" else classification
        out = spmd_run(_fixed_paths, RANKS, args=(task, A, b),
                       machine=CRAY_XC30)
        for ring, blocking in out.values:
            assert {key: ring.extras[key] for key in SWEEP_SCHEDULE.report()} == (
                SWEEP_SCHEDULE.report())
            for r, ref in zip(ring.results, blocking.results, strict=True):
                _close(r.x, ref.x)
                if "alpha" in ref.extras:
                    _close(r.extras["alpha"], ref.extras["alpha"])
                _close(r.history.metric, ref.history.metric)
                assert r.history.iterations == ref.history.iterations
                assert r.iterations == ref.iterations == 48
                rc, bc = r.cost, ref.cost
                # every post but the first carries the k x k cross Gram of
                # its block with the one before (one tree round at P = 2)
                cross = 11 * k * k
                assert (rc.messages, rc.words) == (bc.messages, bc.words + cross)
                assert rc.comm_seconds + rc.comm_seconds_hidden + rc.stale_seconds == (
                    pytest.approx(bc.comm_seconds + CRAY_XC30.beta * cross,
                                  rel=1e-12))
                assert rc.max_staleness == 1

    def test_lasso_flops(self, regression):
        """Blocking's flops plus, per post after the first, its cross Gram
        (``2 nnz_j k_{j-1}`` at prefetch) and the correction of its two
        projections (``4 k_j k_{j-1}`` at harvest), spread over the ``P``
        modelled ranks."""
        A, b = regression
        P = 4
        kw = dict(n_lambdas=3, mu=2, virtual_p=P, machine=CRAY_XC30, **FIXED)
        ring = lasso_path(A, b, **kw)
        blocking = lasso_path(A, b, schedule=Schedule(), **kw)
        col_nnz = np.diff(A.tocsc().indptr)
        sampler = make_sampler(A.shape[1], 2, SEED, L1Penalty(1.0))
        blocks = [np.concatenate(sampler.next_blocks(4)) for _ in range(12)]
        flops = sum(2.0 * col_nnz[idx].sum() * prev.size + 4.0 * idx.size * prev.size
                    for prev, idx in zip(blocks, blocks[1:])) / P
        assert ring.extras["async"] is True
        for r, ref in zip(ring.results, blocking.results, strict=True):
            assert r.cost.flops == pytest.approx(ref.cost.flops + flops, rel=1e-12)
            assert r.cost.words == ref.cost.words + 11 * 64 * np.log2(P)


# ---------------------------------------------------------------------------
# pinned resolutions
# ---------------------------------------------------------------------------
class _SmallSlots(VirtualComm):
    """Modelled ranks whose nonblocking slots hold 1,000 words."""

    def payload_fits(self, words, nonblocking=False):
        return not nonblocking or words <= 1000


def _news20_path(comm, tol=None):
    """The schedule path-16's sweep resolves: its news20 stand-in (2,266
    x 8,826 at seed 0), ``sa-accbcd`` at ``mu = 8``, ``s = 16``, 320
    iterations a point."""
    A, b, _ = registry.generate("news20", scale=2e7 / (15935 * 62061),
                                max_side=70000, seed=0)
    ctx = SweepContext(A, b, comm=comm)
    return ctx.resolve(SWEEP_SCHEDULE, "sa-accbcd", s=16, mu=8, tol=tol)


def _rcv1_stream(comm=None, **kw):
    """The schedule stream-window's refits resolve: a 2,000-row window of
    its rcv1 stand-in, ``sa-svm`` (l2) at ``s = 16``, 128 iterations a
    refit, the (m + 1)-word gap tail."""
    spec = registry.get_dataset("rcv1.binary")
    _, n = spec.scaled_dims(0.05, max_side=70000)
    A, b = make_classification(2000, n, density=spec.density, seed=0)
    return StreamingSweep(A, b, comm=comm, task="svm", max_rows=2000,
                          solver="sa-svm", loss="l2", lam=1.0, s=16,
                          max_iter=128, tol=None, record_every=32, seed=0,
                          **kw).schedule


def _on_two_ranks(fn, machine=CRAY_XC30, **kw):
    ran = spmd_run(lambda comm, rank: fn(comm, **kw), RANKS, machine=machine).values
    assert ran[0] == ran[1]
    return ran[0]


#: the pinned resolutions: (case, the schedule it resolves, want); a
#: fixed budget keeps the async ring wherever its post fits, also where
#: its cross Grams outweigh the reduction they ride (path-16's 128
#: columns a step, the 16-row stream at virtual P = 16 and 64)
RESOLUTIONS = [
    ("path-16", lambda: _on_two_ranks(_news20_path), SWEEP_SCHEDULE),
    ("stream-window", lambda: _on_two_ranks(_rcv1_stream), SWEEP_SCHEDULE),
    ("svm-stream-virtual-p16",
     lambda: _rcv1_stream(virtual_p=16, machine=CRAY_XC30), SWEEP_SCHEDULE),
    ("svm-stream-virtual-p64",
     lambda: _rcv1_stream(virtual_p=64, machine=CRAY_XC30), SWEEP_SCHEDULE),
    ("tol-set", lambda: _on_two_ranks(_news20_path, tol=1e-6), Schedule(ring=True)),
    ("one-modelled-rank", lambda: _news20_path(VirtualComm(1, machine=CRAY_XC30)),
     Schedule()),
    ("no-machine", lambda: _on_two_ranks(_news20_path, machine=None), SWEEP_SCHEDULE),
    ("fits-the-slot", lambda: _news20_path(VirtualComm(2, machine=CRAY_XC30)),
     SWEEP_SCHEDULE),
    ("post-too-large-for-the-slot",
     lambda: _news20_path(_SmallSlots(2, machine=CRAY_XC30)), Schedule(ring=True)),
]


@pytest.mark.parametrize("case,resolved,want", RESOLUTIONS,
                         ids=[case for case, _, _ in RESOLUTIONS])
def test_pinned_resolution(case, resolved, want):
    assert resolved() == want


# ---------------------------------------------------------------------------
# the ranks agree
# ---------------------------------------------------------------------------
def _uneven_lasso():
    """120 rows over two shards of unequal stored entries: 40 rows at
    density 0.3 on rank 0, 80 at 0.02 on rank 1."""
    dense, b0, _ = make_sparse_regression(40, 300, density=0.3, seed=1)
    sparse_rows, b1, _ = make_sparse_regression(80, 300, density=0.02, seed=2)
    return (sp.vstack([dense, sparse_rows], format="csr"),
            np.concatenate([b0, b1]), Partition1D((0, 40, 120)))


def _uneven_svm():
    """Block-diagonal shards of 30 and 60 columns, as the uneven-shards
    case of ``test_check_fold.py``'s slot test: rank 1 holds twice the
    stored entries of rank 0."""
    blocks = [make_classification(100, w, density=0.3, seed=k)
              for k, w in enumerate((30, 60))]
    return (sp.block_diag([blk[0] for blk in blocks], format="csr"),
            np.concatenate([blk[1] for blk in blocks]), Partition1D((0, 30, 90)))


def _uneven_sweeps(comm, rank):
    """A fixed-budget path and a stream (through an append that evicts)
    on the uneven shards: the schedules each resolves, and the
    collectives each makes."""
    tracer = attach_tracer(comm)
    A, b, part = _uneven_lasso()
    dist = RowPartitionedMatrix.from_global(A, comm, partition=part)
    path = lasso_path(dist, b, n_lambdas=3, mu=2, s=8, max_iter=64, tol=None,
                      seed=SEED)
    path_keys = tracer.keys()
    tracer.clear()
    A, b, part = _uneven_svm()
    m0 = 160
    dist = ColPartitionedMatrix.from_global(A[:m0], comm, partition=part)
    sweep = StreamingSweep(dist, b[:m0], task="svm", max_rows=m0 + 10, s=32,
                           max_iter=128, tol=None, seed=SEED)
    schedules = [sweep.schedule]
    sweep.solve(warm_start=False)
    sweep.append(A[m0:m0 + 20], b[m0:m0 + 20])
    schedules.append(sweep.schedule)
    sweep.solve()
    assert [r.rows_removed for r in sweep.revisions] == [0, 10]
    return Schedule.from_flags(**{"async_" if k == "async" else k: path.extras[k]
                                  for k in ("pipeline", "async", "tau")}), \
        path_keys, schedules, tracer.keys()


def test_ranks_agree_on_uneven_shards():
    """Every input of the rule is one all ranks hold, so shards of
    unequal stored entries still resolve one schedule and make one
    collective sequence; a rule that read a rank's own shard could put
    the dense rank on the pipelined ring and its peer on the async one."""
    first, second = spmd_run(_uneven_sweeps, RANKS, machine=CRAY_XC30).values
    assert first == second
    path_schedule, path_keys, schedules, stream_keys = first
    assert path_schedule == SWEEP_SCHEDULE
    assert schedules == [SWEEP_SCHEDULE, SWEEP_SCHEDULE]
    assert path_keys.count("Iallreduce:vec") == 3 * 8
    assert stream_keys.count("Iallreduce:vec") == 2 * 4


# ---------------------------------------------------------------------------
# the reductions really are posted
# ---------------------------------------------------------------------------
def _traced_path(comm, rank, A, b, schedule):
    tracer = attach_tracer(comm)
    path = lasso_path(A, b, comm=comm, n_lambdas=4, mu=2, s=4, max_iter=48,
                      tol=None, seed=SEED, schedule=schedule)
    return tracer.keys(), path.iterations


class TestTrace:
    def test_default_path_posts_every_gram_reduction(self, regression):
        ring = spmd_run(_traced_path, RANKS,
                        args=(*regression, Schedule(ring=True)))
        blocking = spmd_run(_traced_path, RANKS, args=(*regression, Schedule()))
        for (keys, iters), (bkeys, _) in zip(ring.values, blocking.values,
                                             strict=True):
            steps = sum(-(-it // 4) for it in iters)
            assert steps == 4 * 12
            assert keys.count("Iallreduce:vec") == steps
            # what stays blocking: lambda_max, then each point's last
            # objective (its first rides the point's first post)
            assert [k for k in keys if not k.startswith("Iallreduce")] == (
                ["Allreduce:vec"] + ["allreduce:scalar"] * 4)
            # the blocking path makes the same reductions, each waited on
            assert "Iallreduce:vec" not in bkeys
            assert bkeys.count("Allreduce:vec") == 1 + steps
            assert len(bkeys) == len(keys)


# ---------------------------------------------------------------------------
# the recorded schedule is the one that ran
# ---------------------------------------------------------------------------
class TestClassicalAndAsync:
    def test_classical_lasso_path_runs_blocking(self, regression):
        A, b = regression
        kw = dict(n_lambdas=3, solver="bcd", mu=2, max_iter=20, tol=None,
                  seed=SEED, virtual_p=4, machine=CRAY_XC30)
        default = lasso_path(A, b, **kw)
        blocking = lasso_path(A, b, schedule=Schedule(), **kw)
        assert default.extras["pipeline"] is False
        for r, ref in zip(default.results, blocking.results, strict=True):
            assert np.array_equal(r.x, ref.x)
            assert r.cost == ref.cost

    def test_classical_svm_path_runs_blocking(self, classification):
        A, b = classification
        path = svm_path(A, b, [0.5, 2.0], solver="svm", max_iter=40,
                        seed=SEED)
        assert path.extras["pipeline"] is False
        assert all(r.cost.comm_seconds_hidden == 0.0 for r in path.results)

    def test_async_takes_precedence(self, regression):
        A, b = regression
        kw = dict(n_lambdas=3, mu=2, s=4, max_iter=24, tol=None, seed=SEED,
                  virtual_p=4, machine=CRAY_XC30)
        # a sweep command's --async over its default --pipeline
        default = lasso_path(A, b, schedule=Schedule.from_flags(True, True, 1),
                             **kw)
        explicit = lasso_path(A, b, schedule=Schedule(ring=True, tau=1), **kw)
        assert default.extras["pipeline"] is False
        assert default.extras["async"] is True
        assert default.extras["tau"] == 1
        for r, ref in zip(default.results, explicit.results, strict=True):
            assert np.array_equal(r.x, ref.x)
            assert r.cost == ref.cost
        assert default.total_cost.max_staleness == 1

    def test_async_stream(self, classification):
        A, b = classification
        kw = dict(task="svm", s=4, max_iter=32, tol=None,
                  schedule=Schedule(ring=True, tau=2))
        # one modelled rank: the async ring has nothing to overlap either
        sweep = StreamingSweep(A[:80], b[:80], **kw)
        assert sweep.schedule == Schedule()
        sweep.solve()
        sweep.append(A[80:90], b[80:90])
        assert sweep.solve().cost.max_staleness == 0
        sweep = StreamingSweep(A[:80], b[:80], virtual_p=4, **kw)
        assert sweep.schedule == Schedule(ring=True, tau=2)
        assert sweep.schedule.report() == {"pipeline": False, "async": True,
                                           "tau": 2}
        sweep.solve()
        sweep.append(A[80:90], b[80:90])
        assert sweep.solve().cost.max_staleness == 2

    def test_replay_report_records_schedule(self, regression):
        A, b = regression
        events = [(A[80:88], b[80:88]), ("evict_oldest", 4)]
        kw = dict(mu=2, s=4, max_iter=24, tol=None, seed=SEED, virtual_p=4,
                  machine=CRAY_XC30)
        ring = replay_schedule(A[:80], b[:80], events,
                               schedule=Schedule(ring=True), **kw)
        default = replay_schedule(A[:80], b[:80], events, **kw)
        blocking = replay_schedule(A[:80], b[:80], events,
                                   schedule=Schedule(), **kw)
        classical = replay_schedule(A[:80], b[:80], events, solver="bcd",
                                    **kw)
        assert (ring["pipeline"], ring["async"], ring["tau"]) == (True, False, 0)
        # without tol the default is the async ring at tau = 1
        assert (default["pipeline"], default["async"], default["tau"]) == (
            False, True, 1)
        assert blocking["pipeline"] is False and classical["pipeline"] is False
        for e, d, ref in zip(ring["revisions"], default["revisions"],
                             blocking["revisions"], strict=True):
            assert e["warm"]["final_metric"] == ref["warm"]["final_metric"]
            assert e["warm"]["iterations"] == ref["warm"]["iterations"]
            _close(d["warm"]["final_metric"], ref["warm"]["final_metric"])
            assert d["warm"]["iterations"] == ref["warm"]["iterations"]

    def test_serve_report_records_schedule(self):
        rng = np.random.default_rng(SEED)
        specs = []
        for name, solver in (("sa", "sa-bcd"), ("classical", "bcd"),
                             ("async", "sa-accbcd")):
            knobs = dict(solver=solver, mu=2, s=4, max_iter=24, tol=None)
            if name == "async":
                knobs.update(schedule=Schedule(ring=True, tau=1))
            specs.append(TenantSpec(
                name=name, A=rng.standard_normal((30, 8)),
                b=rng.standard_normal(30), m0=20, knobs=knobs))
        trace = [TraceEvent(0.0, s.name, rows=2) for s in specs]
        rep = serve_trace(specs, trace, virtual_p=4)
        sched = {t["name"]: (t["pipeline"], t["async"]) for t in rep["tenants"]}
        # the SA tenant's fixed budget runs the default, the async ring
        assert sched == {"sa": (False, True), "classical": (False, False),
                         "async": (False, True)}
        assert rep["totals"]["outcomes"]["completed"] == 3
        # at the default virtual_p=1 no SA tenant has anything to overlap
        rep = serve_trace(specs, trace)
        sched = {t["name"]: (t["pipeline"], t["async"]) for t in rep["tenants"]}
        assert sched == {"sa": (False, False), "classical": (False, False),
                         "async": (False, False)}

    def test_single_solve_keeps_its_checks(self, regression):
        A, b = regression
        with pytest.raises(SolverError, match="pipelined ring needs an SA"):
            fit_lasso(A, b, 0.1, solver="bcd", schedule=Schedule(ring=True))


# ---------------------------------------------------------------------------
# one rank has nothing to overlap
# ---------------------------------------------------------------------------
def _same_costs(results, reference):
    for r, ref in zip(results, reference, strict=True):
        assert np.array_equal(r.x, ref.x)
        assert r.history.metric == ref.history.metric
        assert r.cost == ref.cost
        assert r.cost.comm_seconds_hidden == 0.0


class TestOneRank:
    def test_paths_run_blocking(self, regression, classification):
        kw = dict(mu=2, s=4, max_iter=48, record_every=4, tol=1e-4, seed=SEED,
                  machine=CRAY_XC30)
        default = lasso_path(*regression, n_lambdas=4, **kw)
        blocking = lasso_path(*regression, n_lambdas=4, schedule=Schedule(),
                              **kw)
        assert default.extras["pipeline"] is False
        _same_costs(default.results, blocking.results)
        kw = dict(s=4, max_iter=64, record_every=8, tol=1e-3, seed=SEED,
                  machine=CRAY_XC30)
        default = svm_path(*classification, [0.5, 2.0], **kw)
        blocking = svm_path(*classification, [0.5, 2.0], schedule=Schedule(),
                            **kw)
        assert default.extras["pipeline"] is False
        _same_costs(default.results, blocking.results)

    def test_stream_runs_blocking(self, regression):
        A, b = regression
        kw = dict(mu=2, s=4, max_iter=48, record_every=4, tol=1e-4, seed=SEED)
        default = StreamingSweep(A[:80], b[:80], **kw)
        blocking = StreamingSweep(A[:80], b[:80], schedule=Schedule(), **kw)
        assert default.schedule == Schedule()
        results = []
        for sweep in (default, blocking):
            first = sweep.solve()
            sweep.append(A[80:90], b[80:90])
            results.append([first, sweep.solve()])
        _same_costs(*results)
        # a wider modelled world has reductions to overlap
        assert StreamingSweep(A[:80], b[:80], virtual_p=4,
                              **kw).schedule == Schedule(ring=True)

    def test_cv_estimators_equal_blocking(self, regression, classification):
        # the CV estimators take no schedule: their paths run on one
        # virtual rank, where the sweep rule runs every solve blocking
        blocking = Schedule().report()
        kw = dict(n_lambdas=4, cv=3, mu=2, s=4, max_iter=48, tol=1e-4,
                  seed=SEED)
        lasso = SALassoCV(**kw).fit(*regression)
        kw = dict(n_lambdas=3, cv=3, s=4, max_iter=64, tol=1e-3, seed=SEED)
        svm = SASVMClassifierCV(**kw).fit(*classification)
        for est in (lasso, svm):
            assert {k: est.path_.extras[k] for k in blocking} == blocking
            assert all(r.cost.comm_seconds_hidden == 0.0
                       for r in est.path_.results)


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------
def _table_rows(out: str, drop_last: bool) -> list:
    """The cells of a printed table's numeric rows, without the
    modelled-time column when ``drop_last``."""
    rows = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if cells[0][:1].isdigit() and len(cells) > 3:
            rows.append(cells[:-1] if drop_last else cells)
    return rows


class TestCli:
    @pytest.mark.parametrize("cmd", ["lasso-path", "stream", "serve"])
    def test_sweep_commands_default_to_the_ring(self, cmd):
        parse = build_parser().parse_args
        assert parse([cmd, "--dataset", "covtype"]).pipeline is True
        assert parse([cmd, "--dataset", "covtype", "--no-pipeline"]).pipeline is False

    @pytest.mark.parametrize("cmd", ["lasso", "svm"])
    def test_single_solve_commands_stay_blocking(self, cmd):
        parse = build_parser().parse_args
        assert parse([cmd, "--dataset", "covtype"]).pipeline is False
        assert parse([cmd, "--dataset", "covtype", "--pipeline"]).pipeline is True
        with pytest.raises(SystemExit):
            parse([cmd, "--dataset", "covtype", "--no-pipeline"])

    def test_lasso_path_no_pipeline_prints_the_same_objectives(self, capsys):
        argv = ["lasso-path", "--dataset", "news20", "--cells", "6000",
                "--n-lambdas", "4", "--mu", "2", "--s", "4", "--max-iter",
                "40", "--p", "4"]
        outs = []
        for extra in ([], ["--no-pipeline"]):
            assert main(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        ring, blocking = outs
        assert _table_rows(ring, True) == _table_rows(blocking, True)
        assert len(_table_rows(ring, True)) == 4
        assert "schedule: pipelined ring" in ring
        assert "schedule: blocking" in blocking
        hidden = [float(o.split(" messages, ")[1].split(" ms of communication")[0])
                  for o in outs]
        assert hidden[0] > 0.0 and hidden[1] == 0.0
        # one modelled rank: the default runs blocking too
        assert main(argv[:-2]) == 0
        one_rank = capsys.readouterr().out
        assert "schedule: blocking" in one_rank
        assert _table_rows(one_rank, False) == _table_rows(blocking, True)

    def test_stream_no_pipeline_prints_the_same_metrics(self, tmp_path,
                                                        capsys):
        argv = ["stream", "--dataset", "covtype", "--cells", "6000",
                "--schedule", "20,-10,~5", "--mu", "2", "--s", "4",
                "--max-iter", "40", "--p", "4"]
        outs, reports = [], []
        for i, extra in enumerate(([], ["--no-pipeline"])):
            save = tmp_path / f"r{i}.json"
            assert main(argv + extra + ["--save", str(save)]) == 0
            outs.append(capsys.readouterr().out)
            reports.append(json.loads(save.read_text()))
        assert _table_rows(outs[0], True) == _table_rows(outs[1], True)
        assert len(_table_rows(outs[0], True)) == 4
        assert reports[0]["pipeline"] is True
        assert reports[1]["pipeline"] is False
        assert "schedule: pipelined ring" in outs[0]
        assert "schedule: blocking" in outs[1]
        ring, blocking = (r["totals"]["warm_refit_cost"] for r in reports)
        assert ring["comm_seconds"] < blocking["comm_seconds"]
        assert ring["comm_seconds"] + ring["comm_seconds_hidden"] == (
            pytest.approx(blocking["comm_seconds"], rel=1e-12))

    @pytest.mark.parametrize("flags", [
        ["--pipeline", "--async"], ["--solver", "bcd", "--pipeline"],
        ["--async", "--tau", "-1"],
    ], ids=["pipeline-and-async", "classical-ring", "negative-tau"])
    def test_single_solve_rejects_a_ring_it_cannot_run(self, flags, capsys):
        argv = ["lasso", "--dataset", "covtype", "--cells", "3000",
                "--max-iter", "8"]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_prints_the_async_ring(self, capsys):
        # --async wins over the sweep's default --pipeline
        # (on a fixed budget: a sweep stopped by tol keeps the pipelined
        # ring)
        argv = ["lasso-path", "--dataset", "news20", "--cells", "6000",
                "--n-lambdas", "2", "--mu", "2", "--s", "4", "--max-iter",
                "16", "--p", "4", "--async", "--tau", "2", "--tol", "none"]
        assert main(argv) == 0
        assert "schedule: async ring (tau=2)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# forked ranks
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_process_path_equals_blocking(regression):
    kw = dict(n_lambdas=4, mu=2, s=4, max_iter=48, record_every=4, tol=1e-4,
              seed=SEED, machine=CRAY_XC30, backend="process", ranks=RANKS)
    ring = lasso_path(*regression, **kw)
    blocking = lasso_path(*regression, schedule=Schedule(), **kw)
    assert ring.extras["pipeline"] is True
    assert blocking.extras["pipeline"] is False
    _same_sweep(ring.results, blocking.results)
    for r, ref in zip(ring.results, blocking.results, strict=True):
        assert r.x.tobytes() == ref.x.tobytes()
        assert np.asarray(r.history.metric).tobytes() == (
            np.asarray(ref.history.metric).tobytes())
