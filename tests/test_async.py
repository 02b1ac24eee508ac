"""Asynchronous bounded-staleness SA solvers: the convergence contract.

The async mode's contract is deliberately *weaker* than the pipelined
mode's bit-parity: with ``async_=True`` a rank steps on Gram/residual
reductions that are up to ``tau`` outer steps stale, so the iterates
diverge from the synchronous path — what is guaranteed (and pinned
here) is:

* **convergence to tolerance** — every SA solver, on every backend, for
  ``tau`` in {1, 2, 4}, reaches the synchronous reference's objective
  within the documented tolerance (``LASSO_RTOL`` relative objective
  error; ``SVM_GAP_FACTOR`` duality-gap factor at an equal iteration
  budget);
* **tau = 0 degenerates exactly** — same op order as ``pipeline=True``,
  hence bit-identical iterates and an identical cost snapshot;
* **checkpoints keep working** — a run killed mid-async resumes to an
  objective within the same convergence tolerance (the staleness
  schedule differs after resume, so bit-parity is explicitly *not*
  promised);
* **the ledger stays honest** — ``comm_seconds + comm_seconds_hidden +
  stale_seconds`` reconstructs the blocking run's communication bill
  exactly, with messages/words/flops charged in full (staleness hides
  time, never traffic), and ``max_staleness`` matching ``tau``;
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

from repro._api import fit_lasso, fit_svm
from repro.datasets import make_classification, make_sparse_regression
from repro.errors import NbRingDepthError, SolverError
from repro.faults import InjectedFailure
from repro.machine.spec import CRAY_XC30
from repro.mpi.ops import SUM
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.path import lasso_path
from repro.solvers.lasso import sa_acc_bcd
from repro.solvers.objectives import lambda_max
from repro.solvers.svm import sa_dcd

SEED = 5

#: documented convergence tolerance: async final objective within this
#: relative error of the synchronous reference (same iteration budget)
LASSO_RTOL = 1e-2
#: documented convergence tolerance: async final duality gap within this
#: factor of the synchronous reference's gap (same iteration budget)
SVM_GAP_FACTOR = 3.0

TAUS = (1, 2, 4)
BACKENDS = ("virtual", "thread", "process")
#: (mode name, extra fit kwargs) — the full contract matrix
MODES = (
    ("blocking", {}),
    ("pipelined", {"pipeline": True}),
    ("async-tau1", {"async_": True, "tau": 1}),
    ("async-tau2", {"async_": True, "tau": 2}),
    ("async-tau4", {"async_": True, "tau": 4}),
)


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
    """Synchronous (blocking, virtual) reference objective per solver."""
    A, b, lam = lasso_problem
    return {
        solver: fit_lasso(A, b, lam, **_lasso_kwargs(solver)).final_metric
        for solver in ("sa-bcd", "sa-accbcd")
    }


@pytest.fixture(scope="module")
def svm_ref(svm_problem):
    X, y = svm_problem
    return fit_svm(X, y, **_svm_kwargs()).final_metric


class TestConvergenceContract:
    """Every SA solver x backend x {blocking, pipelined, async tau in
    {1,2,4}} reaches the synchronous objective within tolerance."""

    @pytest.mark.parametrize("mode,extra", MODES, ids=[m for m, _ in MODES])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("solver", ["sa-bcd", "sa-accbcd"])
    def test_lasso(self, lasso_problem, lasso_refs, solver, backend, mode,
                   extra):
        A, b, lam = lasso_problem
        res = fit_lasso(A, b, lam, backend=backend, ranks=2,
                        **_lasso_kwargs(solver), **extra)
        ref = lasso_refs[solver]
        rel = abs(res.final_metric - ref) / abs(ref)
        assert rel <= LASSO_RTOL, (
            f"{solver}/{backend}/{mode}: objective {res.final_metric} is"
            f" {rel:.3g} relative from the synchronous reference {ref}"
            f" (documented tolerance {LASSO_RTOL})"
        )
        if extra.get("async_"):
            assert res.cost.max_staleness == extra["tau"]
        else:
            assert res.cost.max_staleness == 0

    @pytest.mark.parametrize("mode,extra", MODES, ids=[m for m, _ in MODES])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_svm(self, svm_problem, svm_ref, backend, mode, extra):
        X, y = svm_problem
        res = fit_svm(X, y, backend=backend, ranks=2, **_svm_kwargs(),
                      **extra)
        assert res.final_metric <= SVM_GAP_FACTOR * svm_ref, (
            f"sa-svm/{backend}/{mode}: duality gap {res.final_metric}"
            f" exceeds {SVM_GAP_FACTOR}x the synchronous reference"
            f" {svm_ref}"
        )
        if extra.get("async_"):
            assert res.cost.max_staleness == extra["tau"]

    def test_async_extra_budget_beats_reference(self, svm_problem, svm_ref):
        """With 3x the budget, stale steps still make real progress."""
        X, y = svm_problem
        kw = _svm_kwargs()
        kw["max_iter"] *= 3
        res = fit_svm(X, y, async_=True, tau=2, **kw)
        assert res.final_metric < svm_ref


class TestTauZeroDegeneratesToPipelined:
    """tau=0 reproduces the pipelined op order exactly: bit-identical
    iterates AND an identical cost snapshot, for every SA solver."""

    @pytest.mark.parametrize("solver", ["sa-bcd", "sa-accbcd"])
    def test_lasso(self, lasso_problem, solver):
        A, b, lam = lasso_problem
        kw = _lasso_kwargs(solver)
        kw["max_iter"] = 120
        piped = fit_lasso(A, b, lam, pipeline=True, virtual_p=64,
                          machine=CRAY_XC30, **kw)
        tau0 = fit_lasso(A, b, lam, async_=True, tau=0, virtual_p=64,
                         machine=CRAY_XC30, **kw)
        assert np.array_equal(piped.x, tau0.x)
        assert piped.cost == tau0.cost
        assert tau0.cost.max_staleness == 0
        assert tau0.cost.stale_seconds == 0.0

    def test_svm(self, svm_problem):
        X, y = svm_problem
        kw = _svm_kwargs()
        kw["max_iter"] = 800
        piped = fit_svm(X, y, pipeline=True, virtual_p=64,
                        machine=CRAY_XC30, **kw)
        tau0 = fit_svm(X, y, async_=True, tau=0, virtual_p=64,
                       machine=CRAY_XC30, **kw)
        assert np.array_equal(piped.x, tau0.x)
        assert piped.cost == tau0.cost


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
    """A run killed mid-async resumes to the same *objective* within the
    documented tolerance. Bit-parity is explicitly not promised: after
    resume the in-flight ring restarts fresh, so the staleness schedule
    differs from the uninterrupted run's."""

    @pytest.mark.parametrize("solver", ["sa-bcd", "sa-accbcd"])
    def test_lasso(self, lasso_problem, solver):
        A, b, lam = lasso_problem
        kw = _lasso_kwargs(solver)
        kw.update(async_=True, tau=2)
        full = fit_lasso(A, b, lam, **kw)
        sink = _CrashingSink(crash_at=100)
        with pytest.raises(InjectedFailure):
            fit_lasso(A, b, lam, checkpoint_every=20, checkpoint_sink=sink,
                      **kw)
        assert sink.payloads, "no checkpoint was emitted before the crash"
        resumed = fit_lasso(A, b, lam, resume_from=sink.payloads[-1], **kw)
        rel = abs(resumed.final_metric - full.final_metric) / abs(
            full.final_metric)
        assert rel <= LASSO_RTOL
        assert resumed.iterations == full.iterations

    def test_svm(self, svm_problem):
        X, y = svm_problem
        kw = _svm_kwargs()
        kw.update(async_=True, tau=2)
        full = fit_svm(X, y, **kw)
        sink = _CrashingSink(crash_at=800)
        with pytest.raises(InjectedFailure):
            fit_svm(X, y, checkpoint_every=200, checkpoint_sink=sink, **kw)
        assert sink.payloads
        resumed = fit_svm(X, y, resume_from=sink.payloads[-1], **kw)
        assert resumed.final_metric <= SVM_GAP_FACTOR * max(
            full.final_metric, 1e-12)

    def test_async_checkpoint_resumes_blocking(self, lasso_problem):
        """An async checkpoint is a plain solver checkpoint: it resumes
        the synchronous path too (the weaker contract still applies)."""
        A, b, lam = lasso_problem
        kw = _lasso_kwargs("sa-bcd")
        ref = fit_lasso(A, b, lam, **kw)
        sink = _CrashingSink(crash_at=100)
        with pytest.raises(InjectedFailure):
            fit_lasso(A, b, lam, async_=True, tau=2, checkpoint_every=20,
                      checkpoint_sink=sink, **kw)
        resumed = fit_lasso(A, b, lam, resume_from=sink.payloads[-1], **kw)
        rel = abs(resumed.final_metric - ref.final_metric) / abs(
            ref.final_metric)
        assert rel <= LASSO_RTOL


class TestLedgerInvariants:
    """Staleness hides time, never traffic: the three-way split
    reconstructs the blocking bill and every counter is charged in
    full."""

    def _run(self, lasso_problem, **extra):
        A, b, lam = lasso_problem
        kw = _lasso_kwargs("sa-bcd")
        kw["max_iter"] = 200
        return fit_lasso(A, b, lam, virtual_p=64, machine=CRAY_XC30,
                         **kw, **extra)

    @pytest.mark.parametrize("tau", TAUS)
    def test_three_way_reconstruction(self, lasso_problem, tau):
        blocking = self._run(lasso_problem).cost
        anc = self._run(lasso_problem, async_=True, tau=tau).cost
        # traffic is never discounted by staleness; flop counts are
        # data-dependent (the stale iterate path differs) but stay full
        assert anc.messages == blocking.messages
        assert anc.words == blocking.words
        assert anc.flops == pytest.approx(blocking.flops, rel=0.01)
        assert blocking.comm_seconds_hidden == 0.0
        assert blocking.stale_seconds == 0.0
        assert anc.comm_seconds_hidden > 0.0
        assert anc.stale_seconds > 0.0
        recon = (anc.comm_seconds + anc.comm_seconds_hidden
                 + anc.stale_seconds)
        assert recon == pytest.approx(blocking.comm_seconds, rel=1e-12)
        assert anc.max_staleness == tau

    def test_pipelined_keeps_two_way_split(self, lasso_problem):
        """pipeline=True never touches the stale counters."""
        piped = self._run(lasso_problem, pipeline=True).cost
        blocking = self._run(lasso_problem).cost
        assert piped.stale_seconds == 0.0
        assert piped.max_staleness == 0
        recon = piped.comm_seconds + piped.comm_seconds_hidden
        assert recon == pytest.approx(blocking.comm_seconds, rel=1e-12)

    def test_stale_seconds_serializes_and_survives_paths(self, lasso_problem):
        A, b, lam = lasso_problem
        path = lasso_path(A, b, [lam, 0.5 * lam], solver="sa-bcd", mu=2,
                          s=4, max_iter=80, tol=None, seed=SEED,
                          async_=True, tau=2, virtual_p=64,
                          machine=CRAY_XC30)
        total = path.total_cost
        assert total.max_staleness == 2
        assert total.stale_seconds > 0.0
        assert path.extras["async"] is True and path.extras["tau"] == 2


class TestValidation:
    def test_async_and_pipeline_are_mutually_exclusive(self, lasso_problem):
        A, b, lam = lasso_problem
        with pytest.raises(SolverError, match="mutually exclusive"):
            fit_lasso(A, b, lam, solver="sa-bcd", mu=2, s=4, max_iter=8,
                      pipeline=True, async_=True)

    def test_negative_tau_rejected(self, lasso_problem):
        A, b, lam = lasso_problem
        with pytest.raises(SolverError, match="tau"):
            fit_lasso(A, b, lam, solver="sa-bcd", mu=2, s=4, max_iter=8,
                      async_=True, tau=-1)

    def test_async_needs_sa_solver(self, lasso_problem):
        A, b, lam = lasso_problem
        with pytest.raises(SolverError, match="SA solver"):
            fit_lasso(A, b, lam, solver="bcd", mu=2, max_iter=8,
                      async_=True)


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
    def _slot_conflict(comm, rank):
        """depth=3: 0,1 posted; 1,2 harvested out of order; post 3 must
        fail typed — request 0 still holds slot 0 (the old count-based
        guard deadlocked here: only one request is open)."""
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

    @pytest.mark.parametrize("runner", [spmd_run, process_spmd_run],
                             ids=["thread", "process"])
    def test_post_into_held_slot_raises_typed(self, runner):
        out = runner(self._slot_conflict, 2, nb_depth=3)
        for info in out.values:
            assert info == (3, 1)

    @staticmethod
    def _ring_full(comm, rank):
        depth = comm.nb_ring_depth
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

    @pytest.mark.parametrize("runner", [spmd_run, process_spmd_run],
                             ids=["thread", "process"])
    def test_full_ring_raises_typed(self, runner):
        out = runner(self._ring_full, 2, nb_depth=2)
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
