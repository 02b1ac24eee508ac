"""Deterministic fault injection + collective deadlines, all backends.

Pins the fault-tolerance layer's contracts:

* :meth:`FaultPlan.random` is a pure function of its seed, and the same
  plan injects the same faults on the virtual, thread, and process
  backends (collective ordinals are backend-independent).
* ``transient`` faults are recovered by the bounded retry loop with the
  recovery visible in the ledger's ``retries`` counter — and a recovered
  run is *bit-identical* to the fault-free one.
* ``delay`` faults that exceed the active deadline raise
  :class:`CommTimeoutError` deterministically (tag + stalled ranks named,
  ``timeouts`` counter charged) with no wall-clock involved.
* ``crash`` raises :class:`InjectedFailure`; ``die`` on the process
  backend kills the rank for real and survivors (and the parent) get
  :class:`RankDiedError` naming the dead rank, with no orphan processes.
* Real (wall-clock) deadline misses on the thread and process backends
  name the ranks that failed to arrive.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro._api import fit_lasso
from repro.errors import (
    CommAborted,
    CommTimeoutError,
    RankDiedError,
    TransientCommError,
)
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultyComm,
    InjectedFailure,
    RetryPolicy,
)
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.mpi.virtual_backend import VirtualComm


def _collective_mix(comm, rank):
    """A small deterministic program over the public collective API."""
    out = []
    out.append(comm.allreduce(float(rank + 1)))
    out.append(np.asarray(comm.Allreduce(np.arange(4.0) + rank)).tolist())
    out.append(comm.allgather(rank * 10))
    out.append(comm.bcast({"root": "payload"} if rank == 0 else None))
    req = comm.Iallreduce(np.full(3, float(rank)))
    out.append(np.asarray(req.wait()).tolist())
    return out


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(7, size=3, n_collectives=40, rate=0.2,
                             kinds=FAULT_KINDS[:2], delay=0.5)
        b = FaultPlan.random(7, size=3, n_collectives=40, rate=0.2,
                             kinds=FAULT_KINDS[:2], delay=0.5)
        assert a.events == b.events
        assert len(a.events) > 0

    def test_random_differs_across_seeds(self):
        a = FaultPlan.random(1, size=3, n_collectives=60, rate=0.2)
        b = FaultPlan.random(2, size=3, n_collectives=60, rate=0.2)
        assert a.events != b.events

    def test_straggle_covers_a_window(self):
        plan = FaultPlan([FaultEvent(0, 5, "straggle", count=3, delay=0.1)])
        assert plan.lookup(0, 4) is None
        for k in (5, 6, 7):
            assert plan.lookup(0, k) is not None
        assert plan.lookup(0, 8) is None

    @pytest.mark.parametrize("bad", [
        dict(rank=0, ordinal=0, kind="nope"),
        dict(rank=-1, ordinal=0, kind="crash"),
        dict(rank=0, ordinal=-2, kind="crash"),
        dict(rank=0, ordinal=0, kind="transient", count=0),
        dict(rank=0, ordinal=0, kind="delay", delay=-1.0),
    ])
    def test_event_validation(self, bad):
        from repro.errors import CommError
        with pytest.raises(CommError):
            FaultEvent(**bad)


class TestVirtualInjection:
    def test_transient_recovered_and_counted(self):
        plan = FaultPlan([FaultEvent(0, 0, "transient", count=2)])
        comm = FaultyComm(VirtualComm(), plan)
        assert comm.allreduce(3.0) == 3.0
        assert comm.ledger.retries == 2
        assert comm.ledger.timeouts == 0

    def test_transient_exhausts_bounded_retry(self):
        plan = FaultPlan([FaultEvent(0, 0, "transient", count=5)])
        comm = FaultyComm(VirtualComm(), plan, retry=RetryPolicy(max_retries=2))
        with pytest.raises(TransientCommError):
            comm.allreduce(1.0)
        assert comm.ledger.retries == 2

    def test_crash_raises_injected_failure(self):
        plan = FaultPlan([FaultEvent(0, 1, "crash")])
        comm = FaultyComm(VirtualComm(), plan)
        comm.allreduce(1.0)  # ordinal 0: clean
        with pytest.raises(InjectedFailure):
            comm.allreduce(1.0)

    def test_delay_beyond_deadline_times_out_deterministically(self):
        plan = FaultPlan([FaultEvent(0, 0, "delay", delay=60.0)])
        comm = FaultyComm(VirtualComm(timeout=0.5), plan)
        start = time.monotonic()
        with pytest.raises(CommTimeoutError) as exc:
            comm.allgather("x")
        assert time.monotonic() - start < 5.0  # no wall-clock sleep
        assert exc.value.stalled == (0,)
        assert exc.value.tag
        assert comm.ledger.timeouts == 1

    def test_delay_within_deadline_proceeds(self):
        plan = FaultPlan([FaultEvent(0, 0, "delay", delay=0.01)])
        comm = FaultyComm(VirtualComm(timeout=10.0), plan)
        assert comm.allreduce(2.0) == 2.0
        assert comm.ledger.timeouts == 0

    def test_faulty_solver_run_matches_fault_free(self, dense_regression):
        A, b, _ = dense_regression
        # the solve makes 7 collectives: six Gram reductions (the first
        # carries the iteration-0 objective) and the final objective
        planned = (0, 3, 6)
        plan = FaultPlan([FaultEvent(0, k, "transient", count=1)
                          for k in planned])
        clean = fit_lasso(A, b, 0.3, solver="sa-bcd", mu=2, s=4,
                          max_iter=24, tol=None, seed=1)
        comm = FaultyComm(VirtualComm(), plan)
        faulty = fit_lasso(A, b, 0.3, solver="sa-bcd", mu=2, s=4,
                           max_iter=24, tol=None, seed=1, comm=comm)
        assert np.array_equal(clean.x, faulty.x)
        assert all(k < comm.ordinal for k in planned)  # every fault fired
        # retries on ledger-paused diagnostic collectives are (by design)
        # not accounted, so only a lower bound is portable here
        assert faulty.cost.retries >= 1
        assert clean.cost.retries == 0


class TestRealBackends:
    @pytest.mark.parametrize("runner,size", [(spmd_run, 3)])
    def test_transient_plan_bitwise_recovery_thread(self, runner, size):
        plan = FaultPlan([FaultEvent(1, 0, "transient", count=2),
                          FaultEvent(2, 3, "transient", count=1)])
        clean = runner(lambda comm, rank: _collective_mix(comm, rank), size)
        faulty = runner(
            lambda comm, rank: _collective_mix(FaultyComm(comm, plan), rank),
            size,
        )
        assert faulty.values == clean.values
        assert faulty.ledgers[1].retries == 2
        assert faulty.ledgers[2].retries == 1
        assert faulty.ledgers[0].retries == 0

    @pytest.mark.slow
    def test_transient_plan_bitwise_recovery_process(self):
        plan = FaultPlan([FaultEvent(1, 0, "transient", count=2)])
        clean = process_spmd_run(
            lambda comm, rank: _collective_mix(comm, rank), 3)
        faulty = process_spmd_run(
            lambda comm, rank: _collective_mix(FaultyComm(comm, plan), rank),
            3,
        )
        assert faulty.values == clean.values
        assert faulty.ledgers[1].retries == 2

    def test_same_plan_same_results_across_backends(self):
        plan = FaultPlan([FaultEvent(0, 2, "transient", count=1),
                          FaultEvent(1, 1, "delay", delay=0.0)])

        def work(comm, rank):
            return _collective_mix(FaultyComm(comm, plan), rank)

        threaded = spmd_run(work, 2)
        forked = process_spmd_run(work, 2)
        assert threaded.values == forked.values

    def test_thread_deadline_names_stalled_ranks(self):
        def work(comm, rank):
            if rank == 1:
                time.sleep(1.0)
            comm.allreduce(1.0, timeout=0.2)

        with pytest.raises(CommTimeoutError) as exc:
            spmd_run(work, 2)
        assert 1 in exc.value.stalled

    def test_injected_die_kills_rank_survivors_get_rank_died(self):
        plan = FaultPlan([FaultEvent(1, 1, "die")])

        def work(comm, rank):
            fc = FaultyComm(comm, plan)
            fc.allreduce(1.0)  # ordinal 0: everyone arrives
            fc.allreduce(2.0)  # ordinal 1: rank 1 dies for real
            return rank

        with pytest.raises(RankDiedError) as exc:
            process_spmd_run(work, 3)
        assert 1 in exc.value.dead_ranks
        # no orphans: every forked rank is reaped by the time we return
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    @pytest.mark.slow
    def test_process_deadline_names_stalled_ranks(self):
        def work(comm, rank):
            if rank == 0:
                time.sleep(1.5)
            comm.allreduce(1.0, timeout=0.3)

        with pytest.raises(CommTimeoutError) as exc:
            process_spmd_run(work, 2)
        assert 0 in exc.value.stalled


def _wait_until_peer_raises(comm, rank, log):
    """Rank 1 raises at once; rank 0's Iallreduce wait must wake with
    CommAborted, which it writes to ``log`` (its message would otherwise
    be lost behind the peer's error) before re-raising."""
    if rank == 1:
        raise ValueError("peer failure")
    req = comm.Iallreduce(np.ones(2))
    try:
        req.wait()
    except CommAborted as exc:
        log.write_text(f"{type(exc).__name__}: {exc}")
        raise


def _wait_past_deadline(comm, rank):
    """Rank 1 never posts (it parks on a barrier until the abort); rank
    0's Iallreduce wait misses its deadline."""
    if rank == 1:
        comm.barrier()
        return None
    return comm.Iallreduce(np.ones(2)).wait(timeout=0.2)


class TestNonblockingProtocol:
    """Both real backends run one abort and deadline protocol, so their
    nonblocking errors name the same rank, tag and stalled ranks."""

    RUNNERS = [pytest.param(spmd_run, id="thread"),
               pytest.param(process_spmd_run, id="process")]

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_peer_raise_wakes_iallreduce_waiter(self, runner, tmp_path):
        log = tmp_path / "waiter.txt"
        with pytest.raises(ValueError, match="peer failure"):
            runner(_wait_until_peer_raises, 2, args=(log,), timeout=30.0)
        assert log.read_text() == (
            "CommAborted: rank 0: collective 'Iallreduce' aborted by a peer"
            " failure"
        )

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_wait_deadline_names_rank_and_stalled(self, runner):
        with pytest.raises(CommTimeoutError) as exc:
            runner(_wait_past_deadline, 2, timeout=30.0)
        assert exc.value.stalled == (1,)
        assert exc.value.tag == "Iallreduce"
        assert str(exc.value) == (
            "rank 0: nonblocking collective 'Iallreduce' timed out after"
            " 0.2s (no deposit from ranks [1])"
        )
