"""The state every solver family shares (``repro.solvers.base.FamilyState``).

Non-finite inputs are rejected at entry rather than blamed on the solver,
a resumed classical solve records the iterate it returns, and the
schedule checks and ring depth exist once (``repro.solvers.outer``, on
its :class:`~repro.solvers.outer.Schedule` value).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import make_classification, make_sparse_regression
from repro.errors import SolverError
from repro.machine.spec import CRAY_XC30
from repro.mpi.thread_backend import NB_RING_DEPTH
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.lasso import acc_bcd, bcd, sa_acc_bcd, sa_bcd
from repro.solvers.outer import Schedule
from repro.solvers.svm import sa_dcd

HISTORY_COLUMNS = ("iterations", "metric", "seconds", "comm_seconds", "flops")


@pytest.fixture(scope="module")
def lasso_problem():
    A, b, _ = make_sparse_regression(40, 20, density=0.3, seed=0)
    return A, b


class TestNonFiniteInputs:
    @pytest.mark.parametrize("solver", [bcd, sa_bcd, acc_bcd, sa_acc_bcd],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("record_every", [0, 1])
    def test_x0_with_a_nan_is_rejected(self, lasso_problem, solver, record_every):
        A, b = lasso_problem
        x0 = np.zeros(A.shape[1])
        x0[3] = np.nan
        with pytest.raises(SolverError, match="x0 contains non-finite"):
            solver(A, b, 2.0, mu=2, max_iter=16, x0=x0, record_every=record_every)

    def test_sparse_inf_is_rejected_by_a_lasso_solve(self, lasso_problem):
        A, b = lasso_problem
        A = sp.csr_matrix(A, copy=True)
        A.data[0] = np.inf
        with pytest.raises(SolverError, match="A contains non-finite"):
            sa_bcd(A, b, 2.0, mu=2, max_iter=16)

    def test_sparse_nan_is_rejected_by_an_svm_solve(self):
        A, b = make_classification(30, 16, density=0.5, seed=1)
        A = sp.csr_matrix(A, copy=True)
        A.data[0] = np.nan
        with pytest.raises(SolverError, match="A contains non-finite"):
            sa_dcd(A, b, max_iter=16)


@pytest.mark.parametrize("solver", [bcd, acc_bcd], ids=lambda fn: fn.__name__)
def test_resume_at_max_iter_records_the_returned_iterate(lasso_problem, solver):
    A, b = lasso_problem
    kw = dict(mu=2, seed=3, record_every=3)
    payloads = []
    solver(A, b, 0.5, max_iter=64, checkpoint_every=32,
           checkpoint_sink=payloads.append, **kw)
    ck = next(p for p in payloads if p["iteration"] == 32)
    resumed = solver(A, b, 0.5, max_iter=32, resume_from=ck, **kw)
    whole = solver(A, b, 0.5, max_iter=32, **kw)
    assert resumed.history.iterations[-1] == 32
    for col in HISTORY_COLUMNS:
        assert getattr(resumed.history, col) == getattr(whole.history, col), col
    assert resumed.final_metric == whole.final_metric
    np.testing.assert_array_equal(resumed.x, whole.x)


#: the ring each knob of the SA solvers names
RINGS = {"pipeline": Schedule(ring=True), "async_": Schedule(ring=True, tau=1)}


class TestScheduleChecks:
    def test_ring_depth(self):
        # tau + 1 reductions in flight, never below the backends' default
        assert Schedule().depth == NB_RING_DEPTH
        assert Schedule(ring=True).depth == NB_RING_DEPTH
        assert Schedule(ring=True, tau=1).depth == NB_RING_DEPTH == 2
        assert Schedule(ring=True, tau=3).depth == 3 + 1

    @pytest.mark.parametrize("knob", ["pipeline", "async_"])
    def test_classical_solver_takes_neither_knob(self, knob):
        with pytest.raises(SolverError, match="ring.* needs an SA solver"):
            RINGS[knob].check("bcd", sa=False, s=0)
        assert RINGS[knob].knobs()[knob] is True

    def test_s_is_checked_for_sa_solvers_only(self):
        Schedule().check("bcd", sa=False, s=0)
        with pytest.raises(SolverError, match="s must be >= 1"):
            Schedule().check("sa-bcd", sa=True, s=0)
        with pytest.raises(SolverError, match="s must be >= 1"):
            sa_bcd(*make_sparse_regression(8, 4, seed=0)[:2], 0.1, s=0)


class TestScheduleValue:
    """Blocking, the pipelined ring and the async ring at tau >= 1 are
    the only values; each round-trips through its flags."""

    @pytest.mark.parametrize("schedule", [
        Schedule(), Schedule(ring=True), Schedule(ring=True, tau=2),
    ], ids=str)
    def test_flags_round_trip(self, schedule):
        assert Schedule.from_flags(**schedule.flags()) == schedule
        report = schedule.report()
        assert Schedule.from_flags(report["pipeline"], report["async"],
                                   report["tau"]) == schedule

    def test_async_wins_and_tau_zero_is_the_pipelined_ring(self):
        assert Schedule.from_flags(True, True, 2) == Schedule(ring=True, tau=2)
        assert Schedule.from_flags(False, True, 0) == Schedule(ring=True)
        # tau is read only with async_ on
        assert Schedule.from_flags(True, False, 5) == Schedule(ring=True)

    @pytest.mark.parametrize("kw", [
        dict(tau=1), dict(ring=True, tau=-1), dict(ring=True, tau=1.0),
        dict(ring=True, tau=True),
    ], ids=["tau-without-ring", "negative", "float", "bool"])
    def test_no_other_value(self, kw):
        with pytest.raises(SolverError, match="tau"):
            Schedule(**kw)
        with pytest.raises(SolverError, match="tau must be >= 0"):
            Schedule.from_flags(False, False, -1)

    def test_sweeps_resolve_the_pipelined_ring_only(self):
        # one modelled rank has nothing to overlap, whatever the ring
        ring, stale = Schedule(ring=True), Schedule(ring=True, tau=2)

        def ran(schedule, sa, p):
            return schedule.for_sweep(sa, VirtualComm(p), k=8, tail=1, tol=None)

        assert ran(ring, True, 2) == ring
        assert ran(ring, True, 1) == Schedule()
        assert ran(ring, False, 2) == Schedule()
        assert ran(stale, True, 2) == stale
        assert ran(stale, True, 1) == Schedule()
        assert ran(stale, False, 2) == Schedule()

    def test_sweeps_keep_the_async_ring_where_it_pays(self):
        async_ = Schedule(ring=True, tau=1)
        cray = VirtualComm(2, machine=CRAY_XC30)

        def ran(comm, k, tail=1, tol=None):
            return async_.for_sweep(True, comm, k=k, tail=tail, tol=tol)

        # a tol stop would run tau outer steps past its converged record
        assert ran(cray, 8) == async_
        assert ran(cray, 8, tol=1e-6) == Schedule(ring=True)
        # a fixed budget keeps the ring whatever its cross Grams cost:
        # at k = 21 and 128 their k^2 words outweigh the reduction they
        # ride (alpha + beta * (k (k + 1) / 2 + k) on the Cray), but each
        # inner loop runs while they are in transit
        assert ran(cray, 21) == async_
        assert ran(cray, 128) == async_
        # the largest post: a full k x k Gram, two projections, the cross
        # Gram and the tail, 16 + 8 + 16 + 1 words at k = 4
        assert ran(_Slots(41), 4) == async_
        assert ran(_Slots(40), 4) == Schedule(ring=True)
        # without a machine the cross Grams cost nothing
        assert ran(VirtualComm(2), 64) == async_


class _Slots:
    """Two modelled ranks whose nonblocking slots hold ``words``."""

    cost_size, machine = 2, None

    def __init__(self, words):
        self.words = words

    def payload_fits(self, words, nonblocking=False):
        return words <= self.words
