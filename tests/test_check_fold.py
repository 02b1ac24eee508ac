"""Convergence checks ride the Gram reductions of the SA solvers.

A record — an objective (Lasso) or duality gap (SVM) stored in
``history`` and tested against ``tol`` — falls at iteration 0 and at
each outer-step boundary that crosses a multiple of ``record_every``
(and at ``max_iter``). Each rank's partials of it ride the next Gram
reduction as a tail: ``[||r_local||^2]`` for Lasso, ``[A_p x_p,
||x_p||^2]`` (m + 1 words) for SVM; iteration 0's rides the first one
unpriced. A solve therefore makes one collective per outer step plus
one closing exchange for the records no reduction carries (Lasso: one
allreduce of their words, a scalar one for the final iterate's alone;
SVM: one Allgather of their stacked partials that also gathers the
primal), whatever ``record_every`` and ``tau`` are. Only the async
schedule's last ``tau`` outer steps, which no later reduction follows,
add records to that exchange.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro import StreamingSweep, SweepContext, lasso_path
from repro.analyze.schedule import outer_chunks
from repro.datasets import make_classification, make_sparse_regression
from repro.experiments.theory import accbcd_costs, svm_dcd_costs
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.linalg.partition import Partition1D, block_partition
from repro.machine.spec import CRAY_XC30
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.mpi.tracing import attach_tracer
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.lasso import acc_bcd, bcd, sa_acc_bcd, sa_bcd
from repro.solvers.objectives import lasso_objective
from repro.solvers.svm import dcd, sa_dcd

SCALAR, GRAM, POST = "allreduce:scalar", "Allreduce:vec", "Iallreduce:vec"
GATHER, WORDS = "Allgather:vec", "allreduce:vec"
LAM, H, S, TAU = 0.5, 22, 4, 2
RECORD_EVERY = (0, 1, 3, 10)
FAMILIES = {"sa-bcd": (sa_bcd, bcd), "sa-accbcd": (sa_acc_bcd, acc_bcd)}
MODES = {"blocking": {}, "pipeline": {"pipeline": True},
         "async": {"async_": True, "tau": TAU}}


@pytest.fixture(scope="module")
def problem():
    A, b, _ = make_sparse_regression(40, 24, density=0.3, seed=0)
    return A, b


def _traced(solver, A, b, mode, record_every, backend):
    """``(trace keys, result)`` of one tol=None solve (rank 0 on threads)."""
    kw = dict(mu=2, s=S, max_iter=H, seed=0, tol=None,
              record_every=record_every, **MODES[mode])
    if backend == "virtual":
        comm = VirtualComm(4, machine=CRAY_XC30)
        tracer = attach_tracer(comm)
        res = solver(A, b, LAM, comm=comm, **kw)
        return tracer.keys(), res

    def run_rank(comm, rank):
        tracer = attach_tracer(comm)
        res = solver(A, b, LAM, comm=comm, **kw)
        return tracer.keys(), res

    out = spmd_run(run_rank, 2, nb_depth=TAU + 2).values
    assert out[0][0] == out[1][0]  # the SPMD contract
    return out[0]


@pytest.mark.parametrize("backend", ["virtual", "thread"])
@pytest.mark.parametrize("mode", ["blocking", "pipeline"])
@pytest.mark.parametrize("family", FAMILIES)
def test_one_collective_per_outer_step(problem, family, mode, backend):
    A, b = problem
    sa, classical = FAMILIES[family]
    reduction = GRAM if mode == "blocking" else POST
    steps = len(outer_chunks(H, S))
    reference = classical(A, b, LAM, mu=2, max_iter=H, seed=0, record_every=1)
    xs = []
    for every in RECORD_EVERY:
        keys, res = _traced(sa, A, b, mode, every, backend)
        assert keys == [reduction] * steps + [SCALAR], every
        xs.append(res.x)
        # every SA record describes the iterate the classical run
        # records at the same iteration
        at = [reference.history.iterations.index(it) for it in res.history.iterations]
        np.testing.assert_allclose(
            res.history.metric, np.take(reference.history.metric, at), rtol=1e-10
        )
    for x in xs[1:]:
        assert np.array_equal(x, xs[0])


@pytest.mark.parametrize("backend", ["virtual", "thread"])
@pytest.mark.parametrize("family", FAMILIES)
def test_async_syncs_only_uncarried_records(problem, family, backend):
    A, b = problem
    sa, _ = FAMILIES[family]
    chunks = outer_chunks(H, S)
    boundaries = np.cumsum(chunks).tolist()
    xs = []
    for every in RECORD_EVERY:
        keys, res = _traced(sa, A, b, "async", every, backend)
        # records at the start of the last tau outer steps: no reduction
        # is posted after them, so their words join the final record's in
        # the one closing allreduce
        eager = [it for it in res.history.iterations
                 if it in boundaries[-TAU - 1:-1]]
        assert keys == [POST] * len(chunks) + [WORDS if eager else SCALAR], every
        if every == 1:
            assert eager == boundaries[-TAU - 1:-1]
        xs.append(res.x)
    assert np.any(xs[0])
    for x in xs[1:]:
        assert np.array_equal(x, xs[0])


# -- the shifted stopping point ---------------------------------------------

#: (solver, tol) pairs that converge well inside the budget on ``tol_problem``
CONVERGING = {"sa-bcd": (sa_bcd, 1e-6), "sa-accbcd": (sa_acc_bcd, 1e-4)}


@pytest.fixture(scope="module")
def tol_problem():
    A, b, _ = make_sparse_regression(120, 40, density=0.3, seed=3)
    return A, b


def _meets_tol(prev: float, value: float, tol: float) -> bool:
    """:class:`repro.solvers.base.Terminator`'s objective rule."""
    return abs(prev - value) / max(abs(prev), 1e-300) <= tol


@pytest.mark.parametrize("mode", ["blocking", "pipeline"])
@pytest.mark.parametrize("family", CONVERGING)
def test_converged_solve_returns_its_record(tol_problem, family, mode):
    A, b = tol_problem
    solver, tol = CONVERGING[family]
    kw = dict(mu=2, s=8, max_iter=3000, seed=0, tol=tol, record_every=3)
    res = solver(A, b, LAM, **kw, **MODES[mode])
    h = res.history
    assert res.converged and res.iterations < 3000
    assert res.iterations == h.iterations[-1]
    want = lasso_objective(A, b, res.x, LAM)
    assert abs(res.final_metric - want) <= 1e-12 * abs(want)
    assert _meets_tol(h.metric[-2], h.metric[-1], tol)
    assert not any(_meets_tol(p, v, tol) for p, v in zip(h.metric[:-2], h.metric[1:-1]))
    assert all(it % 8 == 0 or it == 3000 for it in h.iterations)
    if mode == "pipeline":
        blocking = solver(A, b, LAM, **kw)
        assert np.array_equal(res.x, blocking.x)
        assert h.iterations == blocking.history.iterations


def test_async_stops_within_tau_steps_of_its_record(tol_problem):
    """The ring at tau >= 1 learns its converged record tau outer steps
    late, and returns to the iterate pinned there: blocking's stop, to
    rounding, with the steps it ran past it still charged."""
    A, b = tol_problem
    tol, s = 1e-6, 8
    kw = dict(mu=2, s=s, max_iter=3000, seed=0, tol=tol, record_every=3)
    res = sa_bcd(A, b, LAM, async_=True, tau=TAU, comm=VirtualComm(4), **kw)
    blocking = sa_bcd(A, b, LAM, comm=VirtualComm(4), **kw)
    h = res.history
    assert res.converged and res.iterations < 3000
    first = next(i for i in range(1, len(h))
                 if _meets_tol(h.metric[i - 1], h.metric[i], tol))
    assert first == len(h) - 1  # nothing is recorded past it
    assert res.iterations == h.iterations[-1] == blocking.iterations
    assert h.iterations == blocking.history.iterations
    np.testing.assert_allclose(h.metric, blocking.history.metric, rtol=1e-10)
    np.testing.assert_allclose(res.x, blocking.x, rtol=0, atol=1e-10 * np.abs(blocking.x).max())
    want = lasso_objective(A, b, res.x, LAM)
    assert abs(res.final_metric - want) <= 1e-12 * abs(want)
    # the tau steps past the record, and the 2 tau reductions posted
    # while it was in flight (2 tree rounds each at P = 4), stay charged
    assert res.cost.flops > blocking.cost.flops
    assert res.cost.messages == blocking.cost.messages + 2 * TAU * 2


# -- resume -------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_resume_from_recorded_checkpoint_adds_no_row(problem, family):
    # the run ends at its checkpoint: the final boundary's record is taken
    # before the checkpoint, so the history already ends at its iteration
    A, b = problem
    sa, _ = FAMILIES[family]
    kw = dict(mu=2, s=4, seed=5, tol=None, record_every=4)
    sink = []
    sa(A, b, LAM, max_iter=8, checkpoint_every=8, checkpoint_sink=sink.append, **kw)
    (ck,) = sink
    assert ck["iteration"] == 8 and ck["history"]["iterations"][-1] == 8
    full = sa(A, b, LAM, max_iter=16, **kw)
    resumed = sa(A, b, LAM, max_iter=16, resume_from=ck, **kw)
    assert resumed.history.iterations == full.history.iterations == [0, 4, 8, 12, 16]
    np.testing.assert_allclose(resumed.history.metric, full.history.metric, rtol=1e-9)
    np.testing.assert_allclose(resumed.x, full.x, atol=1e-9)


@pytest.mark.parametrize("record_every", [4, 0])
@pytest.mark.parametrize("family", FAMILIES)
def test_resume_completes_the_pending_record(problem, family, record_every):
    # a checkpoint at iteration 8 of 16 is taken while 8's record rides
    # the next reduction; record_every=0 has no record to complete
    A, b = problem
    sa, _ = FAMILIES[family]
    kw = dict(mu=2, s=4, max_iter=16, seed=5, tol=None, record_every=record_every)
    sink = []
    full = sa(A, b, LAM, checkpoint_every=8, checkpoint_sink=sink.append, **kw)
    ck = sink[0]
    assert ck["iteration"] == 8 and ck["history"]["iterations"][-1] < 8
    resumed = sa(A, b, LAM, resume_from=ck, **kw)
    assert resumed.history.iterations == full.history.iterations
    np.testing.assert_allclose(resumed.history.metric, full.history.metric, rtol=1e-9)
    np.testing.assert_allclose(resumed.x, full.x, atol=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_async_checkpoint_holds_the_records_in_flight(problem, family):
    # at iteration 8 the records of 4 and 8 both ride reductions still in
    # flight: the checkpoint is delivered once 4's lands, 8's stays pending
    A, b = problem
    sa, _ = FAMILIES[family]
    kw = dict(mu=2, s=4, max_iter=24, seed=5, tol=None, record_every=4,
              async_=True, tau=TAU)
    sink = []
    full = sa(A, b, LAM, checkpoint_every=8, checkpoint_sink=sink.append, **kw)
    assert [ck["iteration"] for ck in sink] == [8, 16, 24]
    for ck in sink[:2]:
        it = ck["iteration"]
        assert ck["history"]["iterations"] == list(range(0, it, 4))
        assert ck["history"]["metric"] == full.history.metric[: it // 4]
        # the ring restarts on resume, so only the rows up to the
        # checkpoint are the interrupted run's
        resumed = sa(A, b, LAM, resume_from=ck, **kw)
        assert resumed.history.iterations == full.history.iterations
        np.testing.assert_allclose(
            resumed.history.metric[: it // 4 + 1], full.history.metric[: it // 4 + 1],
            rtol=1e-9,
        )


# -- real process ranks ---------------------------------------------------------


def test_process_ranks_sync_once_per_outer_step():
    """2 forked ranks at 1 ms transit. Each column lives on one rank's
    rows, so every partial sum is exact and the iterates equal the
    single-rank run's bit for bit."""
    blocks = [make_sparse_regression(100, 32, density=0.2, seed=k) for k in (0, 1)]
    A = sp.block_diag([blk[0] for blk in blocks], format="csr")
    b = np.concatenate([blk[1] for blk in blocks])
    kw = dict(mu=8, s=16, max_iter=64, seed=0, tol=None, record_every=10)
    reference = sa_acc_bcd(A, b, LAM, comm=VirtualComm(1), **kw)

    def work(comm, rank):
        tracer = attach_tracer(comm)
        dist = RowPartitionedMatrix.from_global(
            A, comm, partition=block_partition(A.shape[0], comm.size)
        )
        res = sa_acc_bcd(dist, b, LAM, **kw)
        return tracer.keys(), res.x, res.history.iterations

    out = process_spmd_run(work, 2, latency=1e-3)
    keys, x, recorded = out.values[0]
    steps = len(outer_chunks(64, 16))
    assert keys == [GRAM] * steps + [SCALAR]
    assert recorded == [0, 16, 32, 48, 64]
    for _, xr, _ in out.values:
        assert np.array_equal(xr, reference.x)


# -- SA-SVM: the duality gap rides as an (m + 1)-word tail --------------------



@pytest.fixture(scope="module")
def svm_problem():
    return make_classification(40, 24, density=0.4, label_noise=0.1, seed=1)


def _traced_svm(A, b, mode, record_every, backend, **kw):
    """``(trace keys, result)`` of one sa_dcd solve (rank 0 on threads)."""
    kw = dict(loss="l2", s=S, max_iter=H, seed=0, record_every=record_every,
              **MODES[mode], **kw)
    if backend == "virtual":
        comm = VirtualComm(4, machine=CRAY_XC30)
        tracer = attach_tracer(comm)
        res = sa_dcd(A, b, comm=comm, **kw)
        return tracer.keys(), res

    def run_rank(comm, rank):
        tracer = attach_tracer(comm)
        res = sa_dcd(A, b, comm=comm, **kw)
        return tracer.keys(), res

    out = spmd_run(run_rank, 2, nb_depth=TAU + 2).values
    assert out[0][0] == out[1][0]  # the SPMD contract
    return out[0]


def _dense_gap(A, b, alpha, lam=1.0):
    """The SVM-L2 duality gap at ``alpha``, in dense numpy."""
    A = A.toarray()
    x = A.T @ (b * alpha)
    hinge = np.maximum(1.0 - b * (A @ x), 0.0)
    primal = 0.5 * x @ x + lam * hinge @ hinge
    dual = alpha.sum() - 0.5 * (x @ x + 0.5 / lam * alpha @ alpha)
    return primal - dual


@pytest.mark.parametrize("backend", ["virtual", "thread"])
@pytest.mark.parametrize("mode", ["blocking", "pipeline"])
def test_svm_one_reduction_per_outer_step(svm_problem, mode, backend):
    A, b = svm_problem
    reduction = GRAM if mode == "blocking" else POST
    steps = len(outer_chunks(H, S))
    reference = dcd(A, b, loss="l2", max_iter=H, seed=0, record_every=1)
    alphas = []
    for every in RECORD_EVERY:
        keys, res = _traced_svm(A, b, mode, every, backend)
        assert keys == [reduction] * steps + [GATHER], every
        alphas.append(res.extras["alpha"])
        # every SA record describes the iterate dcd records at the same
        # iteration
        at = [reference.history.iterations.index(it) for it in res.history.iterations]
        np.testing.assert_allclose(
            res.history.metric, np.take(reference.history.metric, at), rtol=1e-9
        )
    for alpha in alphas[1:]:
        assert np.array_equal(alpha, alphas[0])


@pytest.mark.parametrize("backend", ["virtual", "thread"])
def test_svm_async_syncs_only_uncarried_records(svm_problem, backend):
    A, b = svm_problem
    chunks = outer_chunks(H, S)
    boundaries = np.cumsum(chunks).tolist()
    alphas = []
    for every in RECORD_EVERY:
        keys, res = _traced_svm(A, b, "async", every, backend)
        eager = [it for it in res.history.iterations
                 if it in boundaries[-TAU - 1:-1]]
        # the uncarried records' partials ride one Allgather, whose
        # primal is the result's
        assert keys == [POST] * len(chunks) + [GATHER], every
        if every == 1:
            assert eager == boundaries[-TAU - 1:-1]
        alphas.append(res.extras["alpha"])
    assert np.any(alphas[0])
    for alpha in alphas[1:]:
        assert np.array_equal(alpha, alphas[0])


@pytest.mark.parametrize("mode", ["blocking", "pipeline"])
def test_svm_converged_solve_returns_its_record(svm_problem, mode):
    A, b = svm_problem
    tol = 0.1
    kw = dict(loss="l2", s=8, max_iter=3000, seed=0, tol=tol, record_every=3)
    res = sa_dcd(A, b, **kw, **MODES[mode])
    h = res.history
    assert res.converged and res.iterations < 3000
    assert res.iterations == h.iterations[-1]
    want = _dense_gap(A, b, res.extras["alpha"])
    assert abs(res.final_metric - want) <= 1e-9 * abs(want)
    assert h.metric[-1] <= tol < min(h.metric[:-1])
    assert all(it % 8 == 0 for it in h.iterations)
    if mode == "pipeline":
        blocking = sa_dcd(A, b, **kw)
        assert np.array_equal(res.extras["alpha"], blocking.extras["alpha"])
        assert h.iterations == blocking.history.iterations


def test_svm_async_stops_within_tau_steps_of_its_record(svm_problem):
    A, b = svm_problem
    tol, s = 0.1, 8
    res = sa_dcd(A, b, loss="l2", s=s, max_iter=3000, seed=0, tol=tol,
                 record_every=3, async_=True, tau=TAU)
    h = res.history
    assert res.converged and res.iterations < 3000
    first = next(i for i, gap in enumerate(h.metric) if gap <= tol)
    assert first >= len(h) - 2  # nothing is recorded past it but alpha's row
    assert 0 <= res.iterations - h.iterations[first] <= TAU * s
    assert h.iterations[-1] == res.iterations
    assert all(it % s == 0 for it in h.iterations)
    want = _dense_gap(A, b, res.extras["alpha"])
    assert abs(res.final_metric - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("mode", ["blocking", "pipeline"])
def test_svm_resume_completes_the_pending_record(svm_problem, mode):
    # a checkpoint at iteration 8 of 16 is taken while 8's record rides
    # the next reduction; the resumed run takes it again at its start
    A, b = svm_problem
    kw = dict(loss="l2", s=4, max_iter=16, seed=5, record_every=4, **MODES[mode])
    sink = []
    full = sa_dcd(A, b, checkpoint_every=8, checkpoint_sink=sink.append, **kw)
    ck = sink[0]
    assert ck["iteration"] == 8 and ck["history"]["iterations"] == [0, 4]
    resumed = sa_dcd(A, b, resume_from=ck, **kw)
    assert resumed.history.iterations == full.history.iterations == [0, 4, 8, 12, 16]
    np.testing.assert_allclose(resumed.history.metric, full.history.metric, rtol=1e-9)
    np.testing.assert_allclose(resumed.extras["alpha"], full.extras["alpha"], atol=1e-12)


def test_svm_process_ranks_sync_once_per_outer_step():
    """2 forked ranks at 1 ms transit. Each row's non-zeros live on one
    rank's columns, so every Gram and ``A x`` partial sum is exact and
    alpha equals the single-rank run's bit for bit."""
    blocks = [make_classification(30, 20, density=0.3, seed=k) for k in (0, 1)]
    A = sp.block_diag([blk[0] for blk in blocks], format="csr")
    b = np.concatenate([blk[1] for blk in blocks])
    kw = dict(loss="l2", s=16, max_iter=64, seed=0, record_every=10)
    reference = sa_dcd(A, b, comm=VirtualComm(1), **kw)

    def work(comm, rank):
        tracer = attach_tracer(comm)
        dist = ColPartitionedMatrix.from_global(
            A, comm, partition=block_partition(A.shape[1], comm.size)
        )
        res = sa_dcd(dist, b, **kw)
        return tracer.keys(), res.extras["alpha"], res.history

    out = process_spmd_run(work, 2, latency=1e-3)
    keys, alpha, history = out.values[0]
    steps = len(outer_chunks(64, 16))
    assert keys == [GRAM] * steps + [GATHER]
    assert history.iterations == [0, 16, 32, 48, 64]
    np.testing.assert_allclose(history.metric, reference.history.metric, rtol=1e-12)
    for _, ar, _ in out.values:
        assert np.array_equal(ar, reference.extras["alpha"])


# -- sweeps: one collective per outer step plus one closing exchange -----------


def test_stream_refit_makes_its_posts_and_one_closing_exchange():
    """A warm SA-SVM refit on 2 thread ranks, on the default ring: 8 posts
    (the first carries the iteration-0 gap, three more carry the gaps at
    32, 64 and 96) and the final gap's one Allgather, which also gathers
    the primal."""
    A, b = make_classification(120, 40, density=0.3, label_noise=0.1, seed=2)
    window = 80

    def run_rank(comm, rank):
        sweep = StreamingSweep(A[:window], b[:window], comm=comm, task="svm",
                               max_rows=window, solver="sa-svm", loss="l2", lam=1.0,
                               s=16, max_iter=128, tol=None, record_every=32, seed=0)
        tracer = attach_tracer(comm)
        refits = []
        for k in range(3):
            tracer.clear()
            res = sweep.solve(warm_start=k > 0)
            refits.append((tracer.keys(), res.history.iterations))
            sweep.append(A[window + 4 * k:window + 4 * k + 4],
                         b[window + 4 * k:window + 4 * k + 4])
        return refits

    out = spmd_run(run_rank, 2).values
    assert out[0] == out[1]
    for keys, recorded in out[0]:
        assert keys == [POST] * 8 + [GATHER]
        assert recorded == [0, 32, 64, 96, 128]


def test_path_point_makes_its_posts_and_one_closing_allreduce():
    A, b, _ = make_sparse_regression(80, 60, density=0.2, seed=4)
    ctx = SweepContext(A, b, comm=VirtualComm(4, machine=CRAY_XC30))
    tracer = attach_tracer(ctx.comm)
    for lam in (0.5, 0.2):
        tracer.clear()
        lasso_path(A, b, [lam], mu=2, s=16, max_iter=320, tol=None,
                   record_every=10, context=ctx)
        # a fixed budget runs the async ring: no post follows the record
        # at the last outer step's start (304), so its words join the
        # final record's in the closing allreduce
        assert tracer.keys() == [POST] * 20 + [WORDS]


# -- pricing: the iteration-0 tail rides unpriced, later tails priced ----------


@pytest.mark.parametrize("mode", ["blocking", "pipeline"])
def test_first_tail_unpriced_later_tails_priced(mode):
    """At ``record_every=0`` the ledger's words are Table I's bandwidth,
    as before the iteration-0 record rode the first reduction; each later
    carried record adds its tail once per ``log2 P`` tree round."""
    P, rounds = 256, math.log2(256)
    A, b, _ = make_sparse_regression(60, 40, density=0.4, seed=3)
    H, mu, s = 64, 2, 8
    words = {}
    for every in (0, 8):
        comm = VirtualComm(P, machine=CRAY_XC30)
        sa_acc_bcd(A, b, 0.9, mu=mu, s=s, max_iter=H, seed=0, comm=comm,
                   record_every=every, **MODES[mode])
        words[every] = comm.ledger.words
    assert words[0] == pytest.approx(
        accbcd_costs(H=H, mu=mu, f=0.4, m=60, n=40, P=P, s=s).bandwidth)
    # records at 8, ..., 56 ride a reduction; 64's is the final one
    assert words[8] - words[0] == 7 * 1 * rounds

    As, bs = make_classification(50, 30, density=0.5, seed=1)
    H, s = 60, 12
    for every in (0, 12):
        comm = VirtualComm(P, machine=CRAY_XC30)
        sa_dcd(As, bs, loss="l1", s=s, max_iter=H, seed=0, comm=comm,
               record_every=every, **MODES[mode])
        words[every] = comm.ledger.words
    assert words[0] == pytest.approx(
        svm_dcd_costs(H=H, f=0.5, m=50, n=30, P=P, s=s).bandwidth)
    # gaps at 12, ..., 48 ride a reduction, m + 1 words each
    assert words[12] - words[0] == 4 * 51 * rounds


# two forked ranks' column shards, their blocking deposit (slab_bytes),
# whether a blocking reduction carries the gap tail, the closing exchange
SLOTS = {
    "even-shards": ((20, 20), 1 << 22, True, [GATHER]),
    "uneven-shards-small-deposit": ((30, 60), 3000, False, [GRAM, GATHER]),
}


@pytest.mark.parametrize("mode", ["blocking", "pipeline"])
@pytest.mark.parametrize("case", SLOTS)
def test_svm_tails_larger_than_the_slot(case, mode):
    """2 forked ranks whose 256-double ring slot holds a Gram post but
    not the (m + 1)-word gap tail beside it: the ring sums the
    iteration-0 tail in its own Allreduce before the first post. Pickled,
    the 152-word Gram plus the 201-word tail needs 3,848 bytes: the
    default deposit holds it, so the blocking tail rides, and a
    3,000-byte one does not. The closing payload needs 2,872 bytes beside
    a 30-column shard and 3,112 beside a 60-column one, so on those
    shards it fits the small deposit on one rank only: every rank
    decides on the largest shard and falls back to an Allreduce plus an
    Allgather. Alpha and the primal are the single-rank run's bit for
    bit."""
    widths, slab, rides, closing = SLOTS[case]
    blocks = [make_classification(100, w, density=0.3, seed=k)
              for k, w in enumerate(widths)]
    A = sp.block_diag([blk[0] for blk in blocks], format="csr")
    b = np.concatenate([blk[1] for blk in blocks])
    kw = dict(loss="l2", s=16, max_iter=64, seed=0, record_every=0, **MODES[mode])
    reference = sa_dcd(A, b, comm=VirtualComm(1), **kw)
    partition = Partition1D((0, widths[0], sum(widths)))

    def work(comm, rank):
        tracer = attach_tracer(comm)
        dist = ColPartitionedMatrix.from_global(A, comm, partition=partition)
        res = sa_dcd(dist, b, **kw)
        return tracer.keys(), res.extras["alpha"], res.x, res.history.metric

    out = process_spmd_run(work, 2, slab_bytes=slab, nb_doubles=256)
    steps = len(outer_chunks(64, 16))
    reduction = GRAM if mode == "blocking" else POST
    first = [reduction] if rides and mode == "blocking" else [GRAM, reduction]
    for keys, alpha, x, metric in out.values:
        assert keys == first + [reduction] * (steps - 1) + closing
        assert np.array_equal(alpha, reference.extras["alpha"])
        assert np.array_equal(x, reference.x)
        np.testing.assert_allclose(metric, reference.history.metric, rtol=1e-12)
