"""The async ring: the SA solvers' exactness contract at every depth.

On the async ring (``Schedule(ring=True, tau=tau)``, the SA solvers'
``async_=True``) each inner loop runs while the next ``tau`` reductions
are in transit, so a reduction is harvested up to ``tau`` outer steps
after it was posted. Each post also carries the cross Grams of its block
with the blocks of the steps that run before its harvest, and the
harvest brings its projections up to date through them, so what is
pinned here is:

* **exactness** — every SA solver (``sa_bcd``, ``sa_acc_bcd``,
  ``sa_dcd`` l1/l2), every inner loop (fused ``mu > 1``, scalar ``mu =
  1``, ``fast=False``) and every backend reproduces the blocking run's
  iterate and final metric within 1e-10 relative, for ``tau`` in [1, 8]
  (a hypothesis drive over the problem shape, ``mu`` and ``s``, plus
  the cases on which the stale async ring used to diverge);
* **tau = 0 degenerates exactly** — the SA solvers' ``async_=True,
  tau=0`` runs the same op order as their ``pipeline=True``, hence
  bit-identical iterates and an identical cost snapshot;
* **checkpoints keep working** — a run killed mid-async resumes to the
  uninterrupted run's answer, to rounding;
* **the ledger stays honest** — messages equal blocking's; words equal
  blocking's plus the cross Grams' (``sum_posts k_j * sum_lags
  k_{j-i}`` per tree round); flops add the cross Grams' and the
  corrections'; ``comm_seconds + comm_seconds_hidden + stale_seconds``
  is the blocking price of those messages, and ``max_staleness``
  matches ``tau``;
* **the sweep default fits the backends' default ring** — the ring at
  ``tau = 1`` runs on worlds of two nonblocking slots, and a post too
  large for a process slot fails with the error naming ``nb_doubles``;
* **the NB slot ring is safe out of order** — harvesting in-flight
  requests in any order within the ring window is well-defined, and a
  post that would reuse the slot of the rank's own unharvested request
  fails with a typed :class:`~repro.errors.NbRingDepthError` instead of
  deadlocking (regression: the guard must track *which* requests are
  open, not just how many);
* **a solve that raises inside the ring drains what it posted** — the
  communicator's next solve runs as on a fresh one instead of failing
  with :class:`~repro.errors.NbRingDepthError` (regression: the ring
  harvested its in-flight reductions only on a normal exit).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import StreamingSweep, lasso_path
from repro._api import fit_lasso, fit_svm
from repro.datasets import make_classification, make_sparse_regression
from repro.errors import CommError, NbRingDepthError, SolverError
from repro.faults import FaultPlan, FaultyComm, InjectedFailure
from repro.machine.spec import CRAY_XC30
from repro.mpi.ops import SUM
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.mpi.virtual_backend import VirtualComm
from repro.prox.penalties import L1Penalty
from repro.solvers.lasso import sa_acc_bcd, sa_bcd
from repro.solvers.lasso.common import make_sampler
from repro.solvers.objectives import lambda_max
from repro.solvers.outer import SWEEP_SCHEDULE, Schedule
from repro.solvers.svm import sa_dcd

SEED = 5

#: how close the async ring's answers are to blocking's: the same
#: iterates up to the rounding of a re-associated sum
RTOL = 1e-10

TAUS = (1, 2, 4)
BACKENDS = ("virtual", "thread", "process")
#: (mode name, schedule) — the full contract matrix
MODES = (
    ("blocking", Schedule()),
    ("pipelined", Schedule(ring=True)),
    ("async-tau1", Schedule(ring=True, tau=1)),
    ("async-tau2", Schedule(ring=True, tau=2)),
    ("async-tau4", Schedule(ring=True, tau=4)),
)


def _close(got, want, rtol=RTOL):
    """``got`` within ``rtol`` of ``want``, relative to ``want``'s largest
    entry (1 for a metric smaller than that: a duality gap near 0)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0 if want.ndim == 0 else 0.0)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= rtol * scale, (
        got, want)


@pytest.fixture(scope="module")
def lasso_problem():
    A, b, _ = make_sparse_regression(200, 60, density=0.2, seed=1)
    return A, b, 0.2 * lambda_max(A, b)


@pytest.fixture(scope="module")
def svm_problem():
    return make_classification(120, 40, density=0.3, seed=5, margin=0.2)


def _lasso_kwargs(solver):
    return dict(solver=solver, mu=2, s=4, max_iter=400, tol=None, seed=SEED,
                record_every=0)


def _svm_kwargs():
    return dict(solver="sa-svm", loss="l2", lam=1.0, s=8, max_iter=4000,
                tol=None, seed=SEED, record_every=0)


@pytest.fixture(scope="module")
def lasso_refs(lasso_problem):
    """Synchronous (blocking, virtual) reference solve per solver."""
    A, b, lam = lasso_problem
    return {
        solver: fit_lasso(A, b, lam, **_lasso_kwargs(solver))
        for solver in ("sa-bcd", "sa-accbcd")
    }


@pytest.fixture(scope="module")
def svm_ref(svm_problem):
    X, y = svm_problem
    return fit_svm(X, y, **_svm_kwargs())


class TestConvergenceContract:
    """Every SA solver x backend x {blocking, pipelined, async tau in
    {1,2,4}} reproduces the synchronous reference to rounding."""

    @pytest.mark.parametrize("mode,schedule", MODES, ids=[m for m, _ in MODES])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("solver", ["sa-bcd", "sa-accbcd"])
    def test_lasso(self, lasso_problem, lasso_refs, solver, backend, mode,
                   schedule):
        A, b, lam = lasso_problem
        res = fit_lasso(A, b, lam, backend=backend, ranks=2,
                        schedule=schedule, **_lasso_kwargs(solver))
        ref = lasso_refs[solver]
        _close(res.x, ref.x)
        _close(res.final_metric, ref.final_metric)
        assert res.cost.max_staleness == schedule.tau

    @pytest.mark.parametrize("mode,schedule", MODES, ids=[m for m, _ in MODES])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_svm(self, svm_problem, svm_ref, backend, mode, schedule):
        X, y = svm_problem
        res = fit_svm(X, y, backend=backend, ranks=2, schedule=schedule,
                      **_svm_kwargs())
        _close(res.extras["alpha"], svm_ref.extras["alpha"])
        _close(res.final_metric, svm_ref.final_metric)
        assert res.cost.max_staleness == schedule.tau

    def test_async_extra_budget_beats_reference(self, svm_problem, svm_ref):
        """With 3x the budget the async ring makes blocking's progress."""
        X, y = svm_problem
        kw = _svm_kwargs()
        kw["max_iter"] *= 3
        res = fit_svm(X, y, schedule=Schedule(ring=True, tau=2), **kw)
        assert res.final_metric < svm_ref.final_metric
        _close(res.final_metric, fit_svm(X, y, **kw).final_metric)


class TestTauZeroDegeneratesToPipelined:
    """The SA solvers' ``async_=True, tau=0`` reproduces their
    ``pipeline=True`` op order exactly: bit-identical iterates AND an
    identical cost snapshot, for every SA solver. (Above the solvers the
    two are one value, ``Schedule(ring=True)``.)"""

    @pytest.mark.parametrize("solver", ["sa-bcd", "sa-accbcd"])
    def test_lasso(self, lasso_problem, solver):
        A, b, lam = lasso_problem
        kw = _lasso_kwargs(solver)
        kw["max_iter"] = 120
        fn = {"sa-bcd": sa_bcd, "sa-accbcd": sa_acc_bcd}[kw.pop("solver")]

        def run(**mode):
            return fn(A, b, lam, comm=VirtualComm(64, machine=CRAY_XC30),
                      **mode, **kw)

        piped, tau0 = run(pipeline=True), run(async_=True, tau=0)
        assert np.array_equal(piped.x, tau0.x)
        assert piped.cost == tau0.cost
        assert tau0.cost.max_staleness == 0
        assert tau0.cost.stale_seconds == 0.0

    def test_svm(self, svm_problem):
        X, y = svm_problem
        kw = _svm_kwargs()
        kw["max_iter"] = 800
        del kw["solver"]

        def run(**mode):
            return sa_dcd(X, y, comm=VirtualComm(64, machine=CRAY_XC30),
                          **mode, **kw)

        piped, tau0 = run(pipeline=True), run(async_=True, tau=0)
        assert np.array_equal(piped.x, tau0.x)
        assert piped.cost == tau0.cost


# ---------------------------------------------------------------------------
# exactness, driven over the problem, the loop and the depth
# ---------------------------------------------------------------------------

FAMILIES = ("sa-bcd", "sa-accbcd", "sa-dcd-l1", "sa-dcd-l2")


def _solve(family, A, b, comm, schedule, *, mu, s, fast, max_iter, seed):
    knobs = dict(s=s, max_iter=max_iter, seed=seed, comm=comm, fast=fast,
                 record_every=s, tol=None, **schedule.knobs())
    if family.startswith("sa-dcd"):
        return sa_dcd(A, b, loss=family[-2:], lam=1.0, **knobs)
    solver = sa_bcd if family == "sa-bcd" else sa_acc_bcd
    return solver(A, b, 0.1 * lambda_max(A, b), mu=mu, **knobs)


def _answer(res):
    return res.extras["alpha"] if "alpha" in res.extras else res.x


def _exact_case(family, m, n, density, mu, s, tau, fast, seed):
    """``(problem, knobs)`` of one drawn case: ``tau + 3`` outer steps,
    the last one short."""
    if family.startswith("sa-dcd"):
        A, b = make_classification(m, n, density=density, seed=seed)
    else:
        A, b, _ = make_sparse_regression(m, n, density=density, seed=seed)
    knobs = dict(mu=min(mu, n), s=s, fast=fast, seed=seed,
                 max_iter=s * (tau + 2) + s // 2)
    return (A, b), knobs


def _compare(comm_of, family, problem, knobs, tau):
    blocking = _solve(family, *problem, comm_of(), Schedule(), **knobs)
    ring = _solve(family, *problem, comm_of(), Schedule(ring=True, tau=tau),
                  **knobs)
    _close(_answer(ring), _answer(blocking))
    _close(ring.final_metric, blocking.final_metric)
    assert ring.history.iterations == blocking.history.iterations
    _close(ring.history.metric, blocking.history.metric)
    return ring, blocking


CASES = dict(
    family=st.sampled_from(FAMILIES), m=st.integers(8, 90),
    n=st.integers(4, 60), density=st.floats(0.05, 0.6), mu=st.integers(1, 8),
    s=st.integers(4, 64), tau=st.integers(1, 8), fast=st.booleans(),
    seed=st.integers(0, 2**16),
)


class TestExactness:
    """The async ring equals blocking within 1e-10 relative on every
    drawn problem, solver, inner loop, ``mu``, ``s`` and ``tau``."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**CASES)
    def test_virtual(self, family, m, n, density, mu, s, tau, fast, seed):
        problem, knobs = _exact_case(family, m, n, density, mu, s, tau, fast, seed)
        ring, _ = _compare(lambda: VirtualComm(4), family, problem, knobs, tau)
        assert ring.cost.max_staleness == tau

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**CASES)
    def test_thread(self, family, m, n, density, mu, s, tau, fast, seed):
        problem, knobs = _exact_case(family, m, n, density, mu, s, tau, fast, seed)

        def job(comm, rank):
            ring, blocking = _compare(lambda: comm, family, problem, knobs, tau)
            return _answer(ring)

        out = spmd_run(job, 2, nb_depth=Schedule(ring=True, tau=tau).depth)
        np.testing.assert_array_equal(*out.values)  # every rank alike

    #: the cases on which the stale async ring diverged (ROADMAP item 4)
    ROADMAP = [("sa-bcd", 8, 16, 1024), ("sa-accbcd", 8, 16, 1024),
               ("sa-dcd-l2", 1, 16, 512)]

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("family,mu,s,max_iter", ROADMAP)
    def test_roadmap_cases(self, family, mu, s, max_iter, tau):
        if family.startswith("sa-dcd"):
            problem = make_classification(400, 300, density=0.05, seed=0)
        else:
            problem = make_sparse_regression(600, 300, density=0.05, seed=0)[:2]
        knobs = dict(mu=mu, s=s, fast=True, seed=0, max_iter=max_iter)

        def job(comm, rank):
            return _answer(_compare(lambda: comm, family, problem, knobs, tau)[0])

        spmd_run(job, 2, nb_depth=tau + 1)

    @pytest.mark.slow
    @pytest.mark.parametrize("tau", [1, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_process(self, family, tau):
        problem, knobs = _exact_case(family, 80, 50, 0.2, 4, 8, tau, True, 7)

        def job(comm, rank):
            return _answer(_compare(lambda: comm, family, problem, knobs, tau)[0])

        out = process_spmd_run(job, 2, nb_depth=tau + 1)
        np.testing.assert_array_equal(*out.values)


class TestSweepDefaultFitsDepthTwo:
    """The sweeps' default ring (tau = 1) keeps two reductions in flight:
    it runs on the backends' default two-slot ring and matches blocking."""

    @staticmethod
    def _sweeps(comm, rank):
        A, b, _ = make_sparse_regression(90, 30, density=0.2, seed=2)
        kw = dict(n_lambdas=3, mu=2, s=4, max_iter=40, tol=None, seed=SEED,
                  comm=comm)
        ring, blocking = (lasso_path(A, b, schedule=sch, **kw)
                          for sch in (SWEEP_SCHEDULE, Schedule()))
        X, y = make_classification(90, 30, density=0.2, seed=2)
        streams = [StreamingSweep(X[:60], y[:60], task="svm", s=4, max_iter=32,
                                  tol=None, seed=SEED, comm=comm, schedule=sch)
                   for sch in (SWEEP_SCHEDULE, Schedule())]
        alphas = []
        for sweep in streams:
            sweep.solve(warm_start=False)
            sweep.append(X[60:70], y[60:70])
            alphas.append(sweep.solve().extras["alpha"])
        points = [(r.x, ref.x, r.cost.max_staleness)
                  for r, ref in zip(ring.results, blocking.results, strict=True)]
        return ring.extras["tau"], points, streams[0].schedule, alphas

    @pytest.mark.parametrize("runner", [spmd_run, process_spmd_run],
                             ids=["thread", "process"])
    def test_sweeps(self, runner):
        assert SWEEP_SCHEDULE.depth == 2
        out = runner(self._sweeps, 2, nb_depth=2)
        for tau, points, schedule, (ring, blocking) in out.values:
            assert schedule == SWEEP_SCHEDULE and tau == 1
            for x, ref, staleness in points:
                _close(x, ref)
                assert staleness == 1
            _close(ring, blocking)


class TestPayloadBound:
    """A post whose payload (Gram, projections, cross Grams and tail)
    outgrows a process rank's nonblocking slot fails with the error that
    names the knob."""

    @staticmethod
    def _solve(comm, rank):
        A, b, _ = make_sparse_regression(60, 40, density=0.3, seed=1)
        sa_bcd(A, b, 0.1, mu=4, s=4, max_iter=48, tau=1, async_=True,
               record_every=0, comm=comm)

    def test_nb_doubles(self):
        # k = 16: a 136-word Gram, 16 projections and a 256-word cross Gram
        with pytest.raises(CommError, match="nb_doubles"):
            process_spmd_run(self._solve, 2, nb_doubles=300, timeout=60.0)


class _CrashingSink:
    def __init__(self, crash_at: int):
        self.crash_at = crash_at
        self.payloads = []

    def __call__(self, payload):
        self.payloads.append(payload)
        if payload["iteration"] >= self.crash_at:
            raise InjectedFailure(
                f"simulated crash at iteration {payload['iteration']}"
            )


class TestAsyncCheckpointResume:
    """A run killed mid-async resumes to the uninterrupted run's answer
    to rounding: after resume the ring restarts with fresh warmup posts,
    whose cross Grams bring them up to date as the uninterrupted run's
    did, so the two differ only in how sums associate."""

    @pytest.mark.parametrize("solver", ["sa-bcd", "sa-accbcd"])
    def test_lasso(self, lasso_problem, solver):
        A, b, lam = lasso_problem
        kw = _lasso_kwargs(solver)
        kw.update(schedule=Schedule(ring=True, tau=2))
        full = fit_lasso(A, b, lam, **kw)
        sink = _CrashingSink(crash_at=100)
        with pytest.raises(InjectedFailure):
            fit_lasso(A, b, lam, checkpoint_every=20, checkpoint_sink=sink,
                      **kw)
        assert sink.payloads, "no checkpoint was emitted before the crash"
        resumed = fit_lasso(A, b, lam, resume_from=sink.payloads[-1], **kw)
        _close(resumed.x, full.x)
        _close(resumed.final_metric, full.final_metric)
        assert resumed.iterations == full.iterations

    def test_svm(self, svm_problem):
        X, y = svm_problem
        kw = _svm_kwargs()
        kw.update(schedule=Schedule(ring=True, tau=2))
        full = fit_svm(X, y, **kw)
        sink = _CrashingSink(crash_at=800)
        with pytest.raises(InjectedFailure):
            fit_svm(X, y, checkpoint_every=200, checkpoint_sink=sink, **kw)
        assert sink.payloads
        resumed = fit_svm(X, y, resume_from=sink.payloads[-1], **kw)
        _close(resumed.extras["alpha"], full.extras["alpha"])
        _close(resumed.final_metric, full.final_metric)

    def test_async_checkpoint_resumes_blocking(self, lasso_problem):
        """An async checkpoint is a plain solver checkpoint: it resumes
        the synchronous path too, to the same answer."""
        A, b, lam = lasso_problem
        kw = _lasso_kwargs("sa-bcd")
        ref = fit_lasso(A, b, lam, **kw)
        sink = _CrashingSink(crash_at=100)
        with pytest.raises(InjectedFailure):
            fit_lasso(A, b, lam, schedule=Schedule(ring=True, tau=2),
                      checkpoint_every=20, checkpoint_sink=sink, **kw)
        resumed = fit_lasso(A, b, lam, resume_from=sink.payloads[-1], **kw)
        _close(resumed.x, ref.x)
        _close(resumed.final_metric, ref.final_metric)


class TestLedgerInvariants:
    """Staleness hides time, never traffic: the three-way split
    reconstructs the blocking price of what the ring sent, and every
    counter is charged in full, the cross Grams included."""

    P, MU, S, H = 64, 2, 4, 200

    def _run(self, lasso_problem, schedule=Schedule()):
        A, b, lam = lasso_problem
        kw = _lasso_kwargs("sa-bcd")
        kw["max_iter"] = self.H
        return fit_lasso(A, b, lam, virtual_p=self.P, machine=CRAY_XC30,
                         schedule=schedule, **kw)

    def _cross(self, lasso_problem, tau):
        """``(words, flops)`` the ring adds: post ``j`` carries the cross
        Grams of its ``k_j`` columns with the ``k_{j-i}`` of each of the
        ``min(j, tau)`` blocks before it, ``2 nnz_j k_{j-i}`` flops each
        at prefetch, and its harvest corrects the projections with a
        ``2 k_j k_{j-i}`` GEMV per cross Gram; words are charged per tree
        round and flops across the ``P`` ranks the model spreads them
        over."""
        A, b, lam = lasso_problem
        col_nnz = np.diff(A.tocsc().indptr)
        sampler = make_sampler(A.shape[1], self.MU, SEED, L1Penalty(lam))
        blocks = [np.concatenate(sampler.next_blocks(self.S))
                  for _ in range(self.H // self.S)]
        words = flops = 0.0
        for j, idx in enumerate(blocks):
            for prev in blocks[max(j - tau, 0):j]:
                words += idx.size * prev.size
                flops += 2.0 * col_nnz[idx].sum() * prev.size
                flops += 2.0 * idx.size * prev.size
        return words * np.log2(self.P), flops / self.P

    @pytest.mark.parametrize("tau", TAUS)
    def test_three_way_reconstruction(self, lasso_problem, tau):
        blocking = self._run(lasso_problem).cost
        anc = self._run(lasso_problem, Schedule(ring=True, tau=tau)).cost
        words, flops = self._cross(lasso_problem, tau)
        # traffic is never discounted by staleness: blocking's messages,
        # and its words plus the cross Grams' (sum_posts k_j * sum_lags
        # k_{j-i} per round); flops add the cross Grams and corrections
        assert anc.messages == blocking.messages
        assert anc.words == blocking.words + words
        assert anc.flops == pytest.approx(blocking.flops + flops, rel=1e-12)
        assert blocking.comm_seconds_hidden == 0.0
        assert blocking.stale_seconds == 0.0
        assert anc.comm_seconds_hidden > 0.0
        assert anc.stale_seconds > 0.0
        # the blocking price of the async messages
        recon = (anc.comm_seconds + anc.comm_seconds_hidden
                 + anc.stale_seconds)
        assert recon == pytest.approx(
            blocking.comm_seconds + CRAY_XC30.beta * words, rel=1e-12)
        assert anc.max_staleness == tau

    def test_pipelined_keeps_two_way_split(self, lasso_problem):
        """The pipelined ring never touches the stale counters."""
        piped = self._run(lasso_problem, Schedule(ring=True)).cost
        blocking = self._run(lasso_problem).cost
        assert piped.stale_seconds == 0.0
        assert piped.max_staleness == 0
        recon = piped.comm_seconds + piped.comm_seconds_hidden
        assert recon == pytest.approx(blocking.comm_seconds, rel=1e-12)

    def test_stale_seconds_serializes_and_survives_paths(self, lasso_problem):
        A, b, lam = lasso_problem
        path = lasso_path(A, b, [lam, 0.5 * lam], solver="sa-bcd", mu=2,
                          s=4, max_iter=80, tol=None, seed=SEED,
                          schedule=Schedule(ring=True, tau=2), virtual_p=64,
                          machine=CRAY_XC30)
        total = path.total_cost
        assert total.max_staleness == 2
        assert total.stale_seconds > 0.0
        assert path.extras["async"] is True and path.extras["tau"] == 2


class TestValidation:
    def test_async_and_pipeline_are_mutually_exclusive(self, lasso_problem):
        # only the SA solvers still take the two knobs
        A, b, lam = lasso_problem
        with pytest.raises(SolverError, match="mutually exclusive"):
            sa_bcd(A, b, lam, mu=2, s=4, max_iter=8, pipeline=True,
                   async_=True)

    def test_negative_tau_rejected(self, lasso_problem):
        A, b, lam = lasso_problem
        with pytest.raises(SolverError, match="tau"):
            sa_bcd(A, b, lam, mu=2, s=4, max_iter=8, async_=True, tau=-1)
        with pytest.raises(SolverError, match="tau"):
            fit_lasso(A, b, lam, solver="sa-bcd", mu=2, s=4, max_iter=8,
                      schedule=Schedule(ring=True, tau=-1))

    def test_async_needs_sa_solver(self, lasso_problem):
        A, b, lam = lasso_problem
        with pytest.raises(SolverError, match="SA solver"):
            fit_lasso(A, b, lam, solver="bcd", mu=2, max_iter=8,
                      schedule=Schedule(ring=True, tau=1))


class TestNbRingDepthRegression:
    """Out-of-order harvest within the ring window is well-defined; a
    post that would reuse the slot of the rank's own unharvested
    request raises the typed error instead of deadlocking."""

    @staticmethod
    def _out_of_order(comm, rank):
        depth = comm.nb_ring_depth
        reqs = [comm.Iallreduce(np.full(3, float(rank + k + 1)), op=SUM)
                for k in range(depth)]
        # harvest newest-first: fully reversed order within the window
        return [reqs[k].wait().copy() for k in reversed(range(depth))]

    @staticmethod
    def _expected_sums(size, depth):
        return [np.full(3, sum(r + k + 1 for r in range(size)))
                for k in reversed(range(depth))]

    @pytest.mark.parametrize("runner", [spmd_run, process_spmd_run],
                             ids=["thread", "process"])
    def test_out_of_order_harvest_within_window(self, runner):
        out = runner(self._out_of_order, 2, nb_depth=4)
        expected = self._expected_sums(2, 4)
        for vals in out.values:
            for got, want in zip(vals, expected, strict=True):
                assert np.array_equal(got, want)

    @staticmethod
    def _slot_conflict(comm, rank, wrap):
        """depth=3: 0,1 posted; 1,2 harvested out of order; post 3 must
        fail typed — request 0 still holds slot 0 (the old count-based
        guard deadlocked here: only one request is open)."""
        if wrap:
            comm = FaultyComm(comm, FaultPlan())
        reqs = {}
        reqs[0] = comm.Iallreduce(np.ones(2), op=SUM)
        reqs[1] = comm.Iallreduce(np.ones(2), op=SUM)
        reqs[1].wait()
        reqs[2] = comm.Iallreduce(np.ones(2), op=SUM)
        reqs[2].wait()
        try:
            comm.Iallreduce(np.ones(2), op=SUM)
        except NbRingDepthError as exc:
            info = (exc.depth, exc.outstanding)
        else:
            info = None
        reqs[0].wait()  # leave the world clean for the peers
        return info

    #: bare rank communicators, and the same ones inside a FaultyComm (an
    #: empty plan): the guard lives on the communicator bound to the
    #: world, so a wrapper that calls its hook directly is guarded too
    RANKS = [
        pytest.param(spmd_run, False, id="thread"),
        pytest.param(process_spmd_run, False, id="process"),
        pytest.param(spmd_run, True, id="thread-faulty"),
        pytest.param(process_spmd_run, True, id="process-faulty"),
    ]

    @pytest.mark.parametrize("runner, wrap", RANKS)
    def test_post_into_held_slot_raises_typed(self, runner, wrap):
        out = runner(self._slot_conflict, 2, args=(wrap,), nb_depth=3)
        for info in out.values:
            assert info == (3, 1)

    @staticmethod
    def _ring_full(comm, rank, wrap):
        # FaultyComm does not forward nb_ring_depth: read the world's
        depth = comm.nb_ring_depth
        if wrap:
            comm = FaultyComm(comm, FaultPlan())
        reqs = [comm.Iallreduce(np.ones(2), op=SUM) for _ in range(depth)]
        try:
            comm.Iallreduce(np.ones(2), op=SUM)
        except NbRingDepthError as exc:
            info = (exc.depth, exc.outstanding)
        else:
            info = None
        for r in reqs:
            r.wait()
        return info

    @pytest.mark.parametrize("runner, wrap", RANKS)
    def test_full_ring_raises_typed(self, runner, wrap):
        out = runner(self._ring_full, 2, args=(wrap,), nb_depth=2)
        for info in out.values:
            assert info == (2, 2)


def _overflow_lasso(A, b, comm, tau):
    return sa_acc_bcd(A, b, 0.1, mu=2, s=4, max_iter=64, async_=True,
                      tau=tau, record_every=0, comm=comm)


def _overflow_svm(A, b, comm, tau):
    return sa_dcd(A, b, loss="l1", lam=1.0, s=4, max_iter=64, async_=True,
                  tau=tau, record_every=0, comm=comm)


def _fail_then_solve(comm, rank, solve, A, b, tau):
    """A solve whose reduced Gram overflows float64 (it raises at the
    first harvest, with ``tau`` reductions still in flight), then the
    real problem on the same communicator."""
    try:
        solve(A * 1e200, b, comm, tau)
    except SolverError as exc:
        raised = "overflowed" in str(exc)
    else:
        raised = False
    comm.reset()
    return raised, solve(A, b, comm, tau)


def _solve_fresh(comm, rank, solve, A, b, tau):
    return True, solve(A, b, comm, tau)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestRingDrainsOnError:
    """A solve that raises inside the ring harvests every reduction it
    posted and re-raises, so a serve tenant's fault does not fail the
    next tenant's refit on the same communicator. (Folding overflowed
    partial Grams warns about inf - inf before the guard raises.)"""

    @staticmethod
    def _check(runner, solve, A, b, tau):
        got = runner(_fail_then_solve, 2, args=(solve, A, b, tau), nb_depth=4)
        want = runner(_solve_fresh, 2, args=(solve, A, b, tau), nb_depth=4)
        for (raised, res), (_, ref) in zip(got.values, want.values,
                                           strict=True):
            assert raised
            assert np.array_equal(res.x, ref.x)
            assert res.history == ref.history
            assert res.iterations == ref.iterations
            assert res.converged == ref.converged
            assert res.cost == ref.cost

    @pytest.mark.parametrize("tau", [0, 2])
    @pytest.mark.parametrize("solve", [_overflow_lasso, _overflow_svm],
                             ids=["sa-accbcd", "sa-svm"])
    def test_thread(self, solve, tau):
        self._check(spmd_run, solve, *self._problem(solve), tau)

    @pytest.mark.slow
    @pytest.mark.parametrize("tau", [0, 2])
    @pytest.mark.parametrize("solve", [_overflow_lasso, _overflow_svm],
                             ids=["sa-accbcd", "sa-svm"])
    def test_process(self, solve, tau):
        self._check(process_spmd_run, solve, *self._problem(solve), tau)

    @staticmethod
    def _problem(solve):
        if solve is _overflow_lasso:
            A, b, _ = make_sparse_regression(200, 60, density=0.1, seed=0)
            return A, b
        return make_classification(200, 60, density=0.1, seed=0)
