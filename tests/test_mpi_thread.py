"""Tests for the thread-SPMD backend: collectives, determinism, failures.

The backend-agnostic contract lives in ``spmd_collective_suite`` (shared
with the process backend); thread-specific behaviour is tested below.
"""

import time

import numpy as np
import pytest

from repro.errors import CommAborted
from repro.mpi.thread_backend import ThreadComm, ThreadContext, spmd_run
from spmd_collective_suite import (
    BufferCollectivesSuite,
    CostPlumbingSuite,
    FailureModesSuite,
    NonblockingSuite,
    ObjectCollectivesSuite,
)


class TestObjectCollectives(ObjectCollectivesSuite):
    run = staticmethod(spmd_run)


class TestBufferCollectives(BufferCollectivesSuite):
    run = staticmethod(spmd_run)


class TestNonblocking(NonblockingSuite):
    run = staticmethod(spmd_run)


class TestFailureModes(FailureModesSuite):
    run = staticmethod(spmd_run)


class TestCostPlumbing(CostPlumbingSuite):
    run = staticmethod(spmd_run)


class TestThreadSpecific:
    def test_nonblocking_result_is_private_per_rank(self):
        # the background folder folds once; each rank must get its own
        # array (mutating one rank's result may not leak to peers)
        def fn(comm, r):
            res = comm.Iallreduce(np.ones(4)).wait()
            res += r  # would corrupt peers if the result were shared
            comm.barrier()
            return res

        out = spmd_run(fn, 3)
        for r, v in enumerate(out.values):
            assert np.array_equal(v, np.full(4, 3.0 + r))

    def test_latency_emulation_blocking_critical_path(self):
        def fn(comm, r):
            for _ in range(5):
                comm.Allreduce(np.ones(2))

        t0 = time.perf_counter()
        spmd_run(fn, 2, latency=0.01)
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.05  # 5 collectives x 10 ms on the critical path

    def test_latency_emulation_nonblocking_overlappable(self):
        # computation between post and wait runs while the folder thread
        # sleeps the transit, so the wait after it is short; a blocking
        # Allreduce after the same computation still pays the whole
        # transit (the exchange sleeps it). Timed inside each rank, so
        # thread start and join on a loaded host do not count.
        transit = 0.1

        def compute():
            # "compute" past the transit window that, like the NumPy
            # kernels ranks run, lets other threads take the GIL: two
            # ranks spinning in pure Python would time CPython's GIL
            # hand-off to the folder thread instead
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.12:
                time.sleep(0)

        def fn(comm, r):
            req = comm.Iallreduce(np.ones(2))
            compute()
            t0 = time.perf_counter()
            req.wait()
            nonblocking = time.perf_counter() - t0
            compute()
            t0 = time.perf_counter()
            comm.Allreduce(np.ones(2))
            return nonblocking, time.perf_counter() - t0

        out = spmd_run(fn, 2, latency=transit)
        for nonblocking, blocking in out.values:
            assert nonblocking < transit / 2
            assert blocking >= transit

    def test_abort_wakes_nonblocking_waiters(self):
        def fn(comm, r):
            if r == 1:
                raise ValueError("boom")
            # rank 0 posts and waits forever unless the abort wakes it
            req = comm.Iallreduce(np.ones(2))
            return req.wait()

        with pytest.raises(ValueError, match="boom"):
            spmd_run(fn, 2, timeout=10.0)

    def test_context_close_stops_folder(self):
        ctx = ThreadContext(1)
        comm = ThreadComm(ctx, 0)
        comm.Iallreduce(np.ones(2)).wait()
        folder = ctx._folder
        assert folder is not None and folder.is_alive()
        ctx.close()
        folder.join(2.0)
        assert not folder.is_alive()

    def test_hung_rank_times_out(self):
        def fn(comm, r):
            if r == 0:
                comm.barrier()  # rank 1 never joins
            return r

        with pytest.raises(CommAborted):
            spmd_run(fn, 2, timeout=0.5)
