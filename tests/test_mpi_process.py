"""Tests for the process-SPMD backend (forked ranks over shared memory).

Runs the identical backend-agnostic collective contract suite as the
thread backend (``spmd_collective_suite``), plus process-specific
behaviour: slab capacity limits, shared-memory deposits and tags,
GIL-free parallelism plumbing, ledger round-trips, and solver parity
against sequential runs.
"""

import multiprocessing as mp
import os
import pickle
import time

import numpy as np
import pytest

from repro.errors import CommAborted, CommError
from repro.machine.spec import CRAY_XC30
from repro.mpi.ops import SUM
from repro.mpi.process_backend import ProcessComm, ProcessWorld, process_spmd_run
from repro.solvers.lasso import sa_acc_bcd
from repro.solvers.svm import sa_dcd
from spmd_collective_suite import (
    BufferCollectivesSuite,
    CostPlumbingSuite,
    FailureModesSuite,
    NonblockingSuite,
    ObjectCollectivesSuite,
)


class TestObjectCollectives(ObjectCollectivesSuite):
    run = staticmethod(process_spmd_run)


class TestBufferCollectives(BufferCollectivesSuite):
    run = staticmethod(process_spmd_run)


class TestNonblocking(NonblockingSuite):
    run = staticmethod(process_spmd_run)


class TestFailureModes(FailureModesSuite):
    run = staticmethod(process_spmd_run)


class TestCostPlumbing(CostPlumbingSuite):
    run = staticmethod(process_spmd_run)


class TestProcessSpecific:
    def test_world_rejects_bad_size(self):
        with pytest.raises(CommError):
            ProcessWorld(0)

    def test_rejected_nonblocking_dtype_keeps_the_ring_aligned(self):
        """A non-float64 Iallreduce is refused before it deposits, so it
        must not use up a ring sequence number: the third post after it
        would otherwise wait on a slot that never recycles."""

        def fn(comm, r):
            with pytest.raises(CommError, match="float64"):
                comm.Iallreduce(np.ones(2, dtype=np.int64))
            return [comm.Iallreduce(np.ones(2), timeout=10.0).wait().tolist()
                    for _ in range(3)]

        out = process_spmd_run(fn, 2, timeout=30.0)
        assert out.values == [[[2.0, 2.0]] * 3] * 2

    def test_oversized_blocking_payload_rejected(self):
        def fn(comm, r):
            return comm.allreduce(np.zeros(1000))

        # the error must name both the payload size and the knob
        with pytest.raises(CommError, match=r"slab_bytes=1024"):
            process_spmd_run(fn, 2, slab_bytes=1024)

    # -- shared-memory deposits, on an in-process one-rank world ----------
    @staticmethod
    def _tag_slot(tags, rank: int = 0) -> bytes:
        """Rank ``rank``'s raw tag slot: 128 bytes, NUL-padded."""
        return bytes(tags[rank * 128:(rank + 1) * 128])

    def test_payload_filling_the_slab_round_trips_bitwise(self):
        arr = np.random.default_rng(0).standard_normal(4096)
        arr[:3] = [np.nan, -0.0, np.inf]
        size = len(pickle.dumps(arr, protocol=pickle.HIGHEST_PROTOCOL))
        with ProcessWorld(1, slab_bytes=size) as world:
            (out,) = world.exchange(0, "allgather", arr)
            assert world._obj_len[0] == size
        assert out.tobytes() == arr.tobytes()

    def test_shorter_tag_inherits_no_suffix(self):
        with ProcessWorld(1) as world:
            world.exchange(0, "allreduce-with-a-long-tag", 1.0)
            world.exchange(0, "bcast", 2.0)
            assert self._tag_slot(world._tags) == b"bcast".ljust(128, b"\0")
            slot = world._nb_ring[0]
            for seq, tag in ((0, "Iallreduce-with-a-long-tag"), (world.nb_depth, "Ib")):
                world.nb_post(0, seq, tag, np.ones(4), SUM).wait()
                assert self._tag_slot(slot.tags) == tag.encode().ljust(128, b"\0")

    @pytest.mark.parametrize("tag", ["t" * 100 + "u" * 100, "é" * 100],
                             ids=["ascii", "utf8"])
    def test_long_tag_truncated_to_127_bytes(self, tag):
        # byte-level truncation keeps one NUL, even mid-character
        want = tag.encode()[:127] + b"\0"
        with ProcessWorld(1) as world:
            world.exchange(0, tag, 1.0)
            assert self._tag_slot(world._tags) == want
            world.nb_post(0, 0, tag, np.ones(4), SUM).wait()
            assert self._tag_slot(world._nb_ring[0].tags) == want

    def test_reset_for_reuse_clears_lengths_and_tags(self):
        with ProcessWorld(1) as world:
            world.exchange(0, "allgather", np.arange(8.0))
            for seq in range(world.nb_depth):
                world.nb_post(0, seq, "Iallreduce", np.ones(4), SUM).wait()
            # a posted, never harvested deposit leaves its length behind
            world.nb_post(0, world.nb_depth, "Iallreduce", np.ones(4), SUM)
            world.reset_for_reuse()
            assert world._obj_len[0] == 0
            assert self._tag_slot(world._tags) == bytes(128)
            for slot in world._nb_ring:
                assert slot.lengths[0] == 0
                assert self._tag_slot(slot.tags) == bytes(128)

    def test_blocking_deposit_is_one_buffer_copy(self):
        """A 3.2 MB exchange must cost a few pickle passes, not a Python
        loop over its bytes; the ratio to ``pickle.dumps`` of the same
        array cancels host speed."""
        arr = np.random.default_rng(0).standard_normal(400_000)
        exchange_s, dumps_s = [], []
        with ProcessWorld(1) as world:
            for _ in range(5):
                t0 = time.perf_counter()
                world.exchange(0, "allgather", arr)
                exchange_s.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                pickle.dumps(arr, protocol=pickle.HIGHEST_PROTOCOL)
                dumps_s.append(time.perf_counter() - t0)
        assert np.median(exchange_s) < 15 * np.median(dumps_s)

    def test_oversized_payload_wakes_parked_peers(self):
        """Only one rank overflowing must not leave the others parked on
        the barrier until the timeout/terminate path fires."""

        def fn(comm, r):
            payload = np.zeros(1000) if r == 0 else 1.0
            return comm.allreduce(payload)

        t0 = time.monotonic()
        with pytest.raises(CommError, match="slab capacity"):
            process_spmd_run(fn, 2, slab_bytes=1024, timeout=60.0)
        assert time.monotonic() - t0 < 30.0  # deterministic, not the timeout

    def test_oversized_nonblocking_payload_rejected(self):
        def fn(comm, r):
            return comm.Iallreduce(np.zeros(64)).wait()

        with pytest.raises(CommError, match=r"nb_doubles=16"):
            process_spmd_run(fn, 2, nb_doubles=16)

    def test_nonblocking_folds_into_the_out_buffer(self):
        """A harvest folds the ranks' payloads straight into the request's
        ``out``: the result is that buffer, bit for bit ``Op.fold`` of the
        payloads in rank order."""
        def fn(comm, r):
            rng = np.random.default_rng(7)
            parts = [rng.standard_normal(4096) * 10.0 ** rng.integers(-8, 8, 4096)
                     for _ in range(comm.size)]
            out = np.empty(4096)
            got = comm.Iallreduce(parts[r], out=out).wait()
            bare = comm.Iallreduce(parts[r]).wait()
            return got is out, got.tobytes(), bare.tobytes(), SUM.fold(parts).tobytes()

        for is_out, got, bare, want in process_spmd_run(fn, 3).values:
            assert is_out
            assert got == bare == want

    def test_nonfloat_nonblocking_payload_rejected(self):
        def fn(comm, r):
            return comm.Iallreduce(np.arange(4)).wait()  # int64

        with pytest.raises(CommError, match="float64"):
            process_spmd_run(fn, 2)

    def test_ledgers_pickle_back_with_by_collective(self):
        def fn(comm, r):
            comm.Allreduce(np.ones(8))
            comm.bcast(1)
            comm.account_flops(50.0, "blas3")

        res = process_spmd_run(fn, 2, machine=CRAY_XC30)
        led = res.ledgers[0]
        assert set(led.by_collective) == {"allreduce", "bcast"}
        assert led.by_kind["blas3"] == pytest.approx(50.0)
        # reconstructed defaultdicts still work in the parent
        led.by_collective["new"][0] += 1
        assert led.by_collective["new"][0] == 1

    def test_each_rank_holds_only_its_shard(self, small_regression):
        A, b, _ = small_regression

        def fn(comm, rank):
            from repro.linalg.distmatrix import RowPartitionedMatrix

            M = RowPartitionedMatrix.from_global(A, comm)
            return M.local.shape[0]

        res = process_spmd_run(fn, 3)
        assert sum(res.values) == A.shape[0]
        assert all(v < A.shape[0] for v in res.values)

    @pytest.mark.slow
    def test_sa_acc_bcd_matches_sequential(self, small_regression):
        A, b, _ = small_regression
        seq = sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=48, seed=1,
                         record_every=0).x

        def fn(comm, rank):
            return sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=48, seed=1,
                              comm=comm, record_every=0).x

        res = process_spmd_run(fn, 4)
        for xv in res.values:
            assert np.allclose(xv, seq, atol=1e-10)

    @pytest.mark.slow
    def test_sa_dcd_matches_sequential(self, small_classification):
        A, b = small_classification
        seq = sa_dcd(A, b, loss="l2", s=16, max_iter=96, seed=5,
                     record_every=0)

        def fn(comm, rank):
            res = sa_dcd(A, b, loss="l2", s=16, max_iter=96, seed=5,
                         comm=comm, record_every=0)
            return res.x, res.extras["alpha"]

        out = process_spmd_run(fn, 3)
        for xv, av in out.values:
            assert np.allclose(xv, seq.x, atol=1e-10)
            assert np.allclose(av, seq.extras["alpha"], atol=1e-10)

    @pytest.mark.slow
    def test_message_counts_match_virtual(self, small_regression):
        """Process-P and virtual-P modes must charge identical comm costs."""
        A, b, _ = small_regression
        P, H = 4, 32

        def fn(comm, rank):
            sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=H, seed=0, comm=comm,
                       record_every=0)

        proc = process_spmd_run(fn, P, machine=CRAY_XC30)

        from repro.mpi.virtual_backend import VirtualComm

        vc = VirtualComm(P, machine=CRAY_XC30)
        sa_acc_bcd(A, b, 0.9, mu=2, s=8, max_iter=H, seed=0, comm=vc,
                   record_every=0)
        assert proc.ledgers[0].messages == vc.ledger.messages
        assert proc.ledgers[0].words == pytest.approx(vc.ledger.words)


class TestShutdownTeardown:
    """Exception-safe teardown: a failing rank must wake blocked peers
    deterministically and leave no live children — never relying on the
    join-timeout/terminate path."""

    @staticmethod
    def _no_live_spmd_children(grace: float = 5.0) -> bool:
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if not any(p.name.startswith("spmd-proc")
                       for p in mp.active_children()):
                return True
            time.sleep(0.05)
        return False

    def test_raising_rank_wakes_parked_peer(self):
        def fn(comm, r):
            if r == 0:
                raise ValueError("boom mid-collective")
            for _ in range(1000):
                comm.allreduce(1.0)  # parks on a barrier rank 0 never joins
            return True

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="boom"):
            process_spmd_run(fn, 2, timeout=60.0)
        assert time.monotonic() - t0 < 30.0  # woken, not timed out
        assert self._no_live_spmd_children()

    def test_killed_rank_wakes_parked_peer(self):
        """A child dying without reporting (crash/kill) can never let the
        world complete; the parent must abort it promptly."""

        def fn(comm, r):
            if r == 0:
                os._exit(3)  # dies mid-flight, reports nothing
            comm.allreduce(1.0)
            return True

        t0 = time.monotonic()
        with pytest.raises(CommAborted):
            process_spmd_run(fn, 2, timeout=60.0)
        assert time.monotonic() - t0 < 30.0
        assert self._no_live_spmd_children()

    def test_world_context_manager_shutdown(self):
        with ProcessWorld(2) as world:
            assert not world.is_aborted()
        assert world.is_aborted()
        # post-shutdown collectives fail fast instead of blocking
        comm = ProcessComm(world, 0)
        with pytest.raises(CommAborted):
            comm.allreduce(1.0)

    def test_shutdown_is_idempotent(self):
        world = ProcessWorld(2)
        world.shutdown()
        world.shutdown()
        assert world.is_aborted()
