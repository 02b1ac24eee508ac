"""Supervised rank recovery: worker pool, checkpoint replay, e2e solves.

Three layers, all on the process backend (the only one whose ranks can
die independently):

* **supervisor unit tests** — the recovery loop respawns dead ranks up
  to ``max_recoveries`` and then raises the original
  :class:`~repro.errors.RankDiedError`; ``recover="raise"`` (the
  default) keeps the PR-6 detect-and-abort behaviour untouched.
* **checkpoint replay** — a rank death mid-run resumes from the latest
  collected checkpoint (``replayed_iterations`` counts what was saved),
  and the recovered value equals the fault-free one.
* **end-to-end solver matrix** — every SA solver family (lasso plain /
  accelerated, SVM dual CD), blocking and pipelined, survives an
  injected ``die`` under ``recover="checkpoint"`` and matches the
  fault-free solve, with the recovery counters on the result's cost
  snapshot and no orphaned worker processes left behind.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.errors import CommError, RankDiedError
from repro.faults import FaultEvent, FaultPlan, FaultyComm
from repro.machine.spec import CRAY_XC30
from repro.mpi.process_backend import WorkerPool, process_spmd_run
from repro.solvers.lasso import sa_acc_bcd, sa_bcd
from repro.solvers.svm import sa_dcd

SIZE = 2
N_ITER = 10


def _assert_no_orphans(timeout: float = 10.0) -> None:
    """Every forked rank must be reaped once the run returns."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        kids = [p for p in multiprocessing.active_children()
                if p.name.startswith("spmd-proc")]
        if not kids:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned SPMD workers: {kids}")


def _accumulating_work(die_at=None):
    """A resumable 10-step allreduce accumulation.

    Checkpoints every step through the recovery context; ``die_at``
    hard-kills rank 1 at that step on the first attempt only, so the
    replayed attempt must pick up from the last shipped checkpoint.
    """

    def work(comm, rank):
        ctx = comm.recovery
        start, acc = 0, 0.0
        if ctx is not None and ctx.resume is not None:
            start = int(ctx.resume["iteration"]) + 1
            acc = float(ctx.resume["acc"])
        for i in range(start, N_ITER):
            if (die_at is not None and rank == 1 and i == die_at
                    and ctx is not None and ctx.recoveries == 0):
                os._exit(13)
            acc += comm.allreduce(float(rank + 1) * (i + 1))
            if ctx is not None:
                ctx.save({"iteration": i, "acc": acc})
        return acc

    return work


def _pid_job(comm, rank, k):
    """A module-level job: it pickles by reference, so it can reach
    workers already parked in a live pool."""
    return os.getpid(), comm.allreduce(float(rank + 1)) * k


class TestSupervisor:
    """The recovery loop itself: caps, raise-mode preservation, reuse."""

    def test_raise_mode_preserved_on_death(self):
        """recover="raise" (the default) keeps detect-and-abort: a dead
        rank surfaces as RankDiedError, exactly as before this PR."""
        with pytest.raises(RankDiedError):
            process_spmd_run(_accumulating_work(die_at=4), SIZE)
        _assert_no_orphans()

    def test_checkpoint_mode_recovers_and_matches(self):
        oracle = process_spmd_run(_accumulating_work(), SIZE)
        res = process_spmd_run(
            _accumulating_work(die_at=4), SIZE,
            recover="checkpoint", max_recoveries=2,
        )
        assert res.values == oracle.values
        for led in res.ledgers:
            assert led.recoveries == 1
            assert led.respawns >= 1
            assert led.replayed_iterations > 0
        for led in oracle.ledgers:
            assert led.recoveries == 0
            assert led.respawns == 0
            assert led.replayed_iterations == 0
        _assert_no_orphans()

    def test_exhausted_recoveries_raise_original_error(self):
        """A rank that dies on every attempt exhausts the cap and the
        original RankDiedError comes out, not a recovery artifact."""

        def always_dies(comm, rank):
            if rank == 1:
                os._exit(13)
            return comm.allreduce(1.0)

        with pytest.raises(RankDiedError):
            process_spmd_run(always_dies, SIZE,
                             recover="checkpoint", max_recoveries=1)
        _assert_no_orphans()

    def test_cap_is_per_run_not_per_death(self):
        """Two deaths on separate attempts fit under max_recoveries=2."""

        def dies_twice(comm, rank):
            ctx = comm.recovery
            if rank == 1 and ctx is not None and ctx.recoveries < 2:
                os._exit(13)
            return comm.allreduce(float(rank))

        res = process_spmd_run(dies_twice, SIZE,
                               recover="checkpoint", max_recoveries=2)
        assert res.values == [1.0] * SIZE
        assert all(led.recoveries == 2 for led in res.ledgers)
        _assert_no_orphans()

    def test_bad_recover_value_rejected(self):
        with pytest.raises(CommError):
            process_spmd_run(_accumulating_work(), SIZE, recover="retry")

    def test_injected_die_via_faultplan_recovers(self):
        """The faults-module ``die`` kind (os._exit inside a collective)
        drives the same supervisor path as a raw exit."""
        def make_work(plan):
            def work(comm, rank):
                ctx = comm.recovery
                wcomm = comm
                if plan is not None and ctx.recoveries == 0:
                    wcomm = FaultyComm(comm, plan)
                total = 0.0
                for i in range(6):
                    total += wcomm.allreduce(float(rank + i))
                return total

            return work

        plan = FaultPlan([FaultEvent(1, 3, "die")])
        oracle = process_spmd_run(make_work(None), SIZE)
        res = process_spmd_run(make_work(plan), SIZE, recover="checkpoint")
        assert res.values == oracle.values
        assert all(led.recoveries == 1 for led in res.ledgers)
        _assert_no_orphans()


class TestWorkerPool:
    """The persistent pool: job reuse, respawn, clean shutdown."""

    def test_sequential_jobs_reuse_workers(self):
        def job(k):
            def work(comm, rank):
                return comm.allreduce(float(rank + 1)) * k

            return work

        with WorkerPool(SIZE, machine=None, cost_size=SIZE) as pool:
            for k in (1, 2, 3):
                res = pool.run(job(k))
                assert res.values == [3.0 * k] * SIZE
        _assert_no_orphans()

    def test_picklable_job_reuses_parked_workers(self):
        """A job that pickles crosses the job pipe: the same workers run it."""
        with WorkerPool(SIZE, machine=None, cost_size=SIZE) as pool:
            first = pool.run(_pid_job, args=(1,))
            second = pool.run(_pid_job, args=(2,))
        assert [v[1] for v in first.values] == [3.0] * SIZE
        assert [v[1] for v in second.values] == [6.0] * SIZE
        assert [v[0] for v in second.values] == [v[0] for v in first.values]
        _assert_no_orphans()

    def test_closure_job_on_live_pool_forks_fresh(self):
        """A closure does not pickle: the pool retires its parked workers
        and forks fresh ones, which inherit the job."""
        def work(comm, rank):
            return os.getpid(), comm.allreduce(float(rank + 1))

        with WorkerPool(SIZE, machine=None, cost_size=SIZE) as pool:
            first = pool.run(_pid_job, args=(1,))
            second = pool.run(work)
        assert [v[1] for v in second.values] == [v[1] for v in first.values]
        assert not {v[0] for v in second.values} & {v[0] for v in first.values}
        _assert_no_orphans()

    def test_pool_survives_recovery_then_runs_next_job(self):
        """A recovered job leaves the pool healthy for the next one."""
        with WorkerPool(SIZE, machine=None, cost_size=SIZE) as pool:
            res = pool.run(_accumulating_work(die_at=3),
                           recover="checkpoint", max_recoveries=2)
            clean = pool.run(_accumulating_work())
            assert res.values == clean.values
            assert all(led.recoveries == 0 for led in clean.ledgers)
        _assert_no_orphans()

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(SIZE, machine=None, cost_size=SIZE)
        pool.run(lambda comm, rank: comm.allreduce(1.0))
        pool.shutdown()
        pool.shutdown()
        _assert_no_orphans()


def _lasso_problem():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((24, 12))
    b = rng.standard_normal(24)
    return A, b


def _svm_problem():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((24, 8))
    b = np.where(rng.random(24) < 0.5, -1.0, 1.0)
    return A, b


def _solver_work(family, pipeline, plan):
    """One SA solve with recovery-context checkpointing, optionally
    fault-injected on the first attempt only."""

    def work(comm, rank):
        ctx = comm.recovery
        if ctx is not None and ctx.active:
            ck_every = 4
            ck_sink = ctx.save
            ck_resume = ctx.resume
        else:
            ck_every, ck_sink, ck_resume = 0, None, None
        wcomm = comm
        if plan is not None and (ctx is None or ctx.recoveries == 0):
            wcomm = FaultyComm(comm, plan)
        kwargs = dict(
            s=4, max_iter=24, seed=0, comm=wcomm, record_every=4,
            pipeline=pipeline, checkpoint_every=ck_every,
            checkpoint_sink=ck_sink, resume_from=ck_resume,
        )
        if family == "sa-bcd":
            A, b = _lasso_problem()
            res = sa_bcd(A, b, 0.05, mu=2, **kwargs)
        elif family == "sa-accbcd":
            A, b = _lasso_problem()
            res = sa_acc_bcd(A, b, 0.05, mu=2, **kwargs)
        else:
            A, b = _svm_problem()
            res = sa_dcd(A, b, loss="l2", lam=1.0, **kwargs)
        return {"x": np.asarray(res.x), "metric": float(res.final_metric),
                "cost": res.cost}

    return work


#: rank 1 dies entering its collective #5, mid-solve for every family
#: and schedule: a Lasso solve makes 8 (the iteration-0 objective, six
#: Gram reductions, the final objective), after checkpoints at 4..16
MID_SOLVE_DEATH = FaultEvent(1, 5, "die")


class TestSolverRecoveryMatrix:
    """Acceptance matrix: each SA solver family x blocking/pipelined
    completes under an injected mid-solve rank death with
    recover="checkpoint", matches the fault-free solve to 1e-9, carries
    recoveries > 0 on its cost snapshot, and leaves no orphans."""

    FAMILIES = ("sa-bcd", "sa-accbcd", "sa-svm")

    @pytest.mark.parametrize("pipeline", (False, True),
                             ids=("blocking", "pipelined"))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_die_recover_matches_fault_free(self, family, pipeline):
        plan = FaultPlan([MID_SOLVE_DEATH])
        oracle = process_spmd_run(
            _solver_work(family, pipeline, None), SIZE, machine=CRAY_XC30,
        )
        res = process_spmd_run(
            _solver_work(family, pipeline, plan), SIZE, machine=CRAY_XC30,
            recover="checkpoint", max_recoveries=2,
        )
        for r in range(SIZE):
            want, got = oracle.values[r], res.values[r]
            assert np.max(np.abs(got["x"] - want["x"])) <= 1e-9
            assert abs(got["metric"] - want["metric"]) <= 1e-9
            assert got["cost"].recoveries >= 1
            assert got["cost"].respawns >= 1
            assert want["cost"].recoveries == 0
        _assert_no_orphans()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_raise_mode_unchanged(self, family):
        """The same injected death under the default recover="raise"
        still raises RankDiedError — opting out is bit-for-bit PR-6."""
        plan = FaultPlan([MID_SOLVE_DEATH])
        with pytest.raises(RankDiedError):
            process_spmd_run(
                _solver_work(family, False, plan), SIZE, machine=CRAY_XC30,
            )
        _assert_no_orphans()
