"""Communicator API.

The interface intentionally mirrors :mod:`mpi4py` conventions (see the
mpi4py tutorial): lower-case methods communicate generic Python objects;
Upper-case methods communicate NumPy buffers. Three backends implement it:

* :class:`~repro.mpi.thread_backend.ThreadComm` — P real ranks as threads
  (validates the distributed algorithm: partitioned data, partial sums);
* :class:`~repro.mpi.process_backend.ProcessComm` — P real ranks as
  forked processes over shared memory (honest wall-clock overlap);
* :class:`~repro.mpi.virtual_backend.VirtualComm` — one actual rank
  standing in for ``virtual_size`` ranks, used for cost-model experiments
  at the paper's scales (P up to 12,288).

The two real-rank backends run one rank protocol, written once here:
:class:`RankWorld` holds what every rank of a world shares (the size and
ring-depth checks, the blocking exchange, the barrier with its deadline,
the abort and the error it maps to) and :class:`WorldComm` binds one rank
to it (the nonblocking ring's sequence numbers and its depth guard). Each
world adds only its storage: Python lists and a fold thread, or
shared-memory slabs.

Every collective charges its modelled cost (tree Allreduce:
``ceil(log2 P) * (alpha + beta*w)``, the model behind the paper's
Table I) to the attached :class:`~repro.machine.ledger.CostLedger`.
The *cost* communicator size may exceed the *actual* size (virtual mode);
``comm.size`` is always the actual number of SPMD participants so that
data partitioning stays correct.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    CommAborted,
    CommError,
    CommTimeoutError,
    NbRingDepthError,
    RankDiedError,
    RankMismatchError,
)
from repro.machine.collectives import CollectiveModel
from repro.machine.ledger import CostLedger
from repro.machine.spec import MachineSpec
from repro.mpi.ops import SUM, Op

__all__ = ["Comm", "CommRequest", "RankWorld", "WorldComm"]

_WORD_BYTES = 8.0


class CommRequest:
    """Handle for an in-flight nonblocking collective (mpi4py style).

    Returned by :meth:`Comm.Iallreduce`. :meth:`wait` blocks until the
    reduction has completed on every rank and returns the reduced array;
    :meth:`test` is the nonblocking probe. The ledger charge is *honest
    about overlap*: computation charged to this rank's ledger between the
    post and the completion counts as overlapped, and only the
    unoverlapped remainder of the modelled collective latency is charged
    to ``comm_seconds`` (the hidden part accumulates in
    ``comm_seconds_hidden``). Messages and words are charged in full —
    overlap hides time, not traffic.
    """

    __slots__ = ("_comm", "_handle", "_name", "_cost", "_compute_at_post",
                 "_out", "_result", "_done", "_fresh_boundary",
                 "_stale_steps")

    def __init__(self, comm: "Comm", handle, name: str, cost, out=None) -> None:
        self._comm = comm
        self._handle = handle
        self._name = name
        self._cost = cost
        self._compute_at_post = comm.ledger.compute_seconds
        self._out = out
        self._result = None
        self._done = False
        self._fresh_boundary = None
        self._stale_steps = 0

    @property
    def stale_steps(self) -> int:
        """Harvest points this request has outlived (0 = fresh)."""
        return self._stale_steps

    def bump_staleness(self, steps: int = 1) -> None:
        """Mark that a synchronous consumer would have harvested by now.

        Called by the async bounded-staleness drivers once per harvest
        point this request survives: the first call freezes the *fresh*
        overlap window (compute since the post that a pipelined consumer
        would also have hidden); all compute charged after it counts as
        *stale* overlap, landing in ``stale_seconds`` at completion. The
        call count is this request's observed staleness, recorded as the
        ledger's ``max_staleness`` watermark. Never called by blocking or
        pipelined paths, which therefore keep the two-way
        charged/hidden split bit for bit.
        """
        if self._done:
            return
        if self._fresh_boundary is None:
            self._fresh_boundary = self._comm.ledger.compute_seconds
        self._stale_steps += int(steps)

    def _finalize(self, result) -> Any:
        ledger = self._comm.ledger
        if self._fresh_boundary is None:
            overlap = ledger.compute_seconds - self._compute_at_post
            stale = 0.0
        else:
            overlap = self._fresh_boundary - self._compute_at_post
            stale = ledger.compute_seconds - self._fresh_boundary
        ledger.add_collective(self._name, self._cost, overlap, stale)
        if self._stale_steps:
            ledger.note_staleness(self._stale_steps)
        if self._out is not None and result is not self._out:
            np.copyto(self._out, result)
            result = self._out
        self._result = result
        self._done = True
        return result

    @property
    def completed(self) -> bool:
        """True once the collective has completed (after wait/test)."""
        return self._done

    def test(self) -> bool:
        """Probe for completion without blocking.

        Returns True once the reduction is complete; the first True also
        performs the ledger charge, so a poll loop's compute between post
        and completion is counted as overlap exactly once.
        """
        if self._done:
            return True
        result = self._handle.test()
        if result is None:
            return False
        self._finalize(result)
        return True

    def wait(self, timeout: float | None = None) -> Any:
        """Block until complete; returns the reduced array (idempotent).

        ``timeout`` (seconds) bounds the wait; ``None`` falls back to the
        communicator's default deadline. A missed deadline raises
        :class:`~repro.errors.CommTimeoutError` naming the collective's
        tag (and aborts the world so peers fail fast).
        """
        if not self._done:
            if timeout is None:
                timeout = self._comm.timeout
            try:
                self._finalize(self._handle.wait(timeout))
            except CommTimeoutError:
                self._comm.ledger.add_timeout()
                raise
        return self._result


class _EagerHandle:
    """Backend handle for collectives completed at post time.

    Used by backends without true asynchrony (one actual participant, or
    no progress engine): the reduction runs eagerly inside the post and
    the overlap accounting alone models the hidden latency.
    """

    __slots__ = ("_result",)

    def __init__(self, result) -> None:
        self._result = result

    def wait(self, timeout=None):
        return self._result

    def test(self):
        return self._result


def _words_of(obj: Any) -> float:
    """Payload size in 8-byte words for cost accounting."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes / _WORD_BYTES
    if isinstance(obj, (int, float, complex, np.generic)):
        return 1.0
    if isinstance(obj, (tuple, list)):
        return float(sum(_words_of(x) for x in obj)) if obj else 0.0
    if obj is None:
        return 0.0
    # generic object: coarse pickle-size proxy
    return 8.0


class Comm(ABC):
    """Abstract communicator. See module docstring."""

    def __init__(
        self,
        rank: int,
        size: int,
        cost_size: int | None = None,
        machine: MachineSpec | None = None,
        ledger: CostLedger | None = None,
        timeout: float | None = None,
    ) -> None:
        if size < 1:
            raise CommError(f"size must be >= 1, got {size}")
        if not (0 <= rank < size):
            raise CommError(f"rank {rank} out of range for size {size}")
        self._rank = int(rank)
        self._size = int(size)
        self._cost_size = int(cost_size if cost_size is not None else size)
        if self._cost_size < self._size:
            raise CommError("cost_size cannot be smaller than actual size")
        self.machine = machine
        #: optional :class:`~repro.mpi.tracing.CollectiveTracer`; when
        #: attached, every public collective records one event on entry
        #: (nonblocking ones at post time) — the runtime side of the
        #: static collective-schedule verifier
        self.tracer = None
        #: default deadline (wall-clock seconds) for every collective;
        #: ``None`` waits forever (the pre-fault-tolerance behaviour)
        self.timeout = timeout
        #: deadline for the collective currently entering the backend —
        #: set by each public collective, read by backend ``*_impl`` hooks
        self._active_timeout = timeout
        if ledger is None:
            divisor = self._cost_size / self._size
            ledger = CostLedger(machine=machine, flop_divisor=divisor)
        self.ledger = ledger
        # Without a machine spec, collectives are counted (messages/words)
        # at zero modelled time — Table-I style count checks still work.
        from repro.machine.spec import NULL_MACHINE

        self._cost_model = CollectiveModel(
            machine if machine is not None else NULL_MACHINE, self._cost_size
        )

    # -- identity ----------------------------------------------------------
    @property
    def rank(self) -> int:
        """Rank of the calling process (0-based)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of actual SPMD participants."""
        return self._size

    @property
    def cost_size(self) -> int:
        """Number of ranks used for cost modelling (>= size)."""
        return self._cost_size

    @property
    def nb_ring_depth(self) -> int | None:
        """Max in-flight nonblocking collectives per rank, or ``None``
        when unbounded (backends that complete eagerly at post time).
        Real backends override this with their NB slot-ring depth; a rank
        posting past it gets :class:`~repro.errors.NbRingDepthError`."""
        return None

    def payload_fits(self, words: int, nonblocking: bool = False) -> bool:
        """Whether one rank's float64 payload of ``words`` fits a buffer
        collective (blocking, or ``nonblocking``) on this communicator.
        Always true here; a backend with fixed-size slots answers from
        their size, the same on every rank."""
        return True

    def Get_rank(self) -> int:  # noqa: N802 - mpi4py naming
        return self._rank

    def Get_size(self) -> int:  # noqa: N802 - mpi4py naming
        return self._size

    # -- backend primitive ---------------------------------------------------
    @abstractmethod
    def _allgather_impl(self, tag: str, obj: Any) -> list:
        """Exchange one object per rank; returns the rank-ordered list.

        ``tag`` names the collective for SPMD-mismatch detection.
        """

    def _exchange_fold(self, tag: str, obj: Any, fold) -> Any:
        """Exchange and fold the rank-ordered contributions.

        Backends override this to run ``fold`` *inside* their collective
        critical section, which makes it safe for callers to reuse send
        buffers across iterations (the zero-copy packed-collective path:
        once the call returns, no peer still reads this rank's buffer).
        """
        return fold(self._allgather_impl(tag, obj))

    def _set_timeout(self, timeout: float | None) -> None:
        """Arm the deadline for the collective about to enter the backend."""
        self._active_timeout = self.timeout if timeout is None else timeout

    def _trace(self, op: str, payload=None) -> None:
        """Record one schedule event on the attached tracer, if any."""
        if self.tracer is not None:
            self.tracer.record(op, payload)

    # -- cost hooks -----------------------------------------------------------
    def _charge(self, name: str, words: float) -> None:
        pricer = getattr(self._cost_model, name, None)
        if pricer is None:
            pricer = self._cost_model.allreduce
        self.ledger.add_collective(name, pricer(words))

    def account_flops(
        self,
        flops: float,
        kind: str = "blas1",
        working_set_bytes: float | None = None,
    ) -> None:
        """Charge local computation to this rank's ledger."""
        self.ledger.add_flops(flops, kind, working_set_bytes)

    def reset(self) -> None:
        """Zero this rank's cost ledger.

        Reusing one communicator across solves (warm-started sweeps)
        would otherwise silently accumulate every solve's modelled cost
        into one ledger; sweep engines call this between points so each
        :class:`~repro.solvers.base.SolverResult` carries per-point cost.
        """
        self.ledger.reset()

    # -- object collectives (lower-case, mpi4py style) -------------------------
    def barrier(self, timeout: float | None = None) -> None:
        """Synchronise all ranks."""
        self._set_timeout(timeout)
        self._trace("barrier")
        self._allgather_impl("barrier", None)
        self._charge("barrier", 0.0)

    def bcast(self, obj: Any, root: int = 0, timeout: float | None = None) -> Any:
        """Broadcast ``obj`` from ``root`` to every rank."""
        self._check_root(root)
        self._set_timeout(timeout)
        gathered = self._allgather_impl("bcast", obj if self._rank == root else None)
        result = gathered[root]
        self._trace("bcast", result)
        self._charge("bcast", _words_of(result))
        return result

    def gather(
        self, obj: Any, root: int = 0, timeout: float | None = None
    ) -> list | None:
        """Gather one object per rank on ``root`` (others get None)."""
        self._check_root(root)
        self._set_timeout(timeout)
        self._trace("gather", obj)
        gathered = self._allgather_impl("gather", obj)
        self._charge("reduce", _words_of(obj))
        return gathered if self._rank == root else None

    def allgather(self, obj: Any, timeout: float | None = None) -> list:
        """Gather one object per rank on every rank."""
        self._set_timeout(timeout)
        self._trace("allgather", obj)
        gathered = self._allgather_impl("allgather", obj)
        self._charge("allgather", _words_of(obj))
        return gathered

    def scatter(
        self, objs: Sequence | None, root: int = 0, timeout: float | None = None
    ) -> Any:
        """Scatter ``objs`` (one per rank, provided on root) to all ranks."""
        self._check_root(root)
        self._set_timeout(timeout)
        if self._rank == root:
            if objs is None or len(objs) != self._size:
                raise CommError(
                    f"scatter on root needs exactly {self._size} objects"
                )
            payload = list(objs)
        else:
            payload = None
        gathered = self._allgather_impl("scatter", payload)
        items = gathered[root]
        self._trace("scatter", items[self._rank])
        self._charge("bcast", _words_of(items[self._rank]))
        return items[self._rank]

    def reduce(
        self, obj: Any, op: Op = SUM, root: int = 0, timeout: float | None = None
    ) -> Any:
        """Reduce to ``root`` (others get None). Deterministic rank order."""
        self._check_root(root)
        self._set_timeout(timeout)
        self._trace("reduce", obj)
        gathered = self._allgather_impl("reduce", obj)
        self._charge("reduce", _words_of(obj))
        if self._rank != root:
            return None
        return op.fold(gathered)

    def allreduce(self, obj: Any, op: Op = SUM, timeout: float | None = None) -> Any:
        """Reduce-to-all of generic objects/scalars (deterministic)."""
        self._set_timeout(timeout)
        self._trace("allreduce", obj)
        gathered = self._allgather_impl("allreduce", obj)
        self._charge("allreduce", _words_of(obj))
        return op.fold(gathered)

    # -- buffer collectives (Upper-case, mpi4py style) ---------------------------
    def Allreduce(  # noqa: N802 - mpi4py naming
        self,
        sendbuf: np.ndarray,
        op: Op = SUM,
        out: np.ndarray | None = None,
        timeout: float | None = None,
        words: float | None = None,
    ) -> np.ndarray:
        """Reduce-to-all of a NumPy array.

        This is the workhorse of every solver in the package: partial
        Gram matrices and partial dot products are summed here, exactly
        as in the paper's Fig. 1 step 4.

        With ``out`` the reduction accumulates into the given buffer
        (zero allocations on the steady-state path) and both ``sendbuf``
        and ``out`` may be reused by the caller on the next iteration:
        backends complete the fold before releasing their peers. Without
        ``out`` a fresh array is returned, as before. The arithmetic is
        identical either way (rank-ordered accumulation).

        ``words`` is the message length the ledger prices, in 8-byte
        words (default: the whole buffer). A caller whose buffer carries
        words the model leaves unpriced passes the priced length: an SA
        solve's iteration-0 record tail rides its first Gram reduction
        that way (see :class:`repro.solvers.outer.Checks`).
        """
        arr = np.asarray(sendbuf)
        if out is None:
            fold = op.fold
        else:
            if np.may_share_memory(arr, out):
                # backends fold while peers still read the deposited send
                # buffers; an aliased out would corrupt this rank's
                # contribution mid-reduction
                raise CommError("Allreduce out must not alias sendbuf")

            def fold(gathered, _op=op, _out=out):
                return _op.fold_into(gathered, _out)

        self._set_timeout(timeout)
        self._trace("Allreduce", arr)
        result = self._exchange_fold("Allreduce", arr, fold)
        self._charge("allreduce", arr.nbytes / _WORD_BYTES if words is None else words)
        return result

    def Iallreduce(  # noqa: N802 - mpi4py naming
        self,
        sendbuf: np.ndarray,
        op: Op = SUM,
        out: np.ndarray | None = None,
        timeout: float | None = None,
        words: float | None = None,
    ) -> CommRequest:
        """Nonblocking reduce-to-all; returns a :class:`CommRequest`.

        The SA pipeline's synchronization-hiding primitive: post the
        packed Gram reduction, compute the next outer step's sampled
        block while it is in flight, then ``wait()`` for the result.
        ``sendbuf`` must stay unmodified until the request completes
        (mpi4py contract) — pipelined callers double-buffer it. With
        ``out`` the reduction lands in the given buffer (which must not
        alias ``sendbuf``); without it ``wait()`` returns a fresh array.

        Ledger accounting is honest about overlap: computation charged to
        this rank's ledger between the post and the completion is
        overlapped, and only the unoverlapped remainder of the modelled
        latency is charged (see :class:`CommRequest`). The arithmetic is
        the blocking :meth:`Allreduce`'s bit for bit — every backend
        folds contributions in rank order. ``words`` is priced as in
        :meth:`Allreduce`.
        """
        arr = np.asarray(sendbuf)
        if out is not None and np.may_share_memory(arr, out):
            raise CommError("Iallreduce out must not alias sendbuf")
        self._set_timeout(timeout)
        self._trace("Iallreduce", arr)
        handle = self._iallreduce_impl("Iallreduce", arr, op, out)
        cost = self._cost_model.allreduce(
            arr.nbytes / _WORD_BYTES if words is None else words)
        return CommRequest(self, handle, "Iallreduce", cost, out=out)

    def _iallreduce_impl(self, tag: str, arr: np.ndarray, op: Op, out=None):
        """Backend hook: start an allreduce, return a wait()/test() handle.

        ``out`` is the request's output buffer (or None); a backend may
        fold straight into it, which saves the request the copy.
        Default: complete eagerly through the blocking exchange (modelled
        overlap only). Backends with a progress engine (thread, process)
        override this with a genuinely asynchronous implementation.
        """
        return _EagerHandle(self._exchange_fold(tag, arr, op.fold))

    def Bcast(  # noqa: N802
        self, buf: np.ndarray, root: int = 0, timeout: float | None = None
    ) -> np.ndarray:
        """Broadcast array from root; returns the root's array on all ranks."""
        self._check_root(root)
        self._set_timeout(timeout)
        arr = np.asarray(buf) if self._rank == root else None
        gathered = self._allgather_impl("Bcast", arr)
        out = gathered[root]
        self._trace("Bcast", out)
        self._charge("bcast", out.nbytes / _WORD_BYTES)
        return np.array(out, copy=True) if self._rank != root else out

    def Reduce(  # noqa: N802
        self,
        sendbuf: np.ndarray,
        op: Op = SUM,
        root: int = 0,
        timeout: float | None = None,
    ) -> np.ndarray | None:
        """Reduce arrays to root; None elsewhere."""
        self._check_root(root)
        self._set_timeout(timeout)
        arr = np.asarray(sendbuf)
        self._trace("Reduce", arr)
        gathered = self._allgather_impl("Reduce", arr)
        self._charge("reduce", arr.nbytes / _WORD_BYTES)
        if self._rank != root:
            return None
        return op.fold(gathered)

    def Allgather(  # noqa: N802
        self, sendbuf: np.ndarray, timeout: float | None = None
    ) -> np.ndarray:
        """Concatenate each rank's 1-D array in rank order, on every rank."""
        self._set_timeout(timeout)
        arr = np.asarray(sendbuf)
        self._trace("Allgather", arr)
        gathered = self._allgather_impl("Allgather", arr)
        self._charge("allgather", arr.nbytes / _WORD_BYTES)
        return np.concatenate([np.atleast_1d(g) for g in gathered])

    # -- helpers -----------------------------------------------------------------
    def _check_root(self, root: int) -> None:
        if not (0 <= root < self._size):
            raise CommError(f"root {root} out of range for size {self._size}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        virt = f", cost_size={self._cost_size}" if self._cost_size != self._size else ""
        return f"{type(self).__name__}(rank={self._rank}, size={self._size}{virt})"


class RankWorld:
    """The protocol every rank of one real SPMD world runs.

    A world is the state its ``size`` ranks share: a barrier, per-rank
    barrier-arrival counters (``arrive_gen``), an abort flag, one deposit
    per rank for the blocking exchange and a ring of ``nb_depth``
    nonblocking slots (``_nb_ring``, each with a ``cond``). Subclasses
    create that storage and provide ``_deposit``/``_deposited_tags``/
    ``_gathered``, ``nb_post``, :meth:`is_aborted` and
    :meth:`_set_aborted`; the rules for exchanging through it, waiting
    on it and failing live here once.
    """

    def __init__(self, size: int, latency: float, nb_depth: int) -> None:
        if size < 1:
            raise CommError(f"size must be >= 1, got {size}")
        if int(nb_depth) < 1:
            raise NbRingDepthError(
                f"nb_depth must be >= 1, got {nb_depth}", depth=int(nb_depth)
            )
        self.size = int(size)
        self.latency = float(latency)
        self.nb_depth = int(nb_depth)

    def payload_fits(self, words: int, nonblocking: bool) -> bool:
        """See :meth:`Comm.payload_fits`; unbounded unless the storage
        has fixed-size slots."""
        return True

    def is_aborted(self) -> bool:
        raise NotImplementedError

    def _set_aborted(self) -> None:
        raise NotImplementedError

    def dead_ranks(self) -> list:
        """Ranks recorded as dead (empty if none)."""
        return []

    def _abort_error(self, rank: int, tag: str) -> CommError:
        """The error a rank woken by an abort raises: a recorded death
        makes it :class:`~repro.errors.RankDiedError`, else
        :class:`~repro.errors.CommAborted`."""
        dead = self.dead_ranks()
        if dead:
            return RankDiedError(
                f"rank {rank}: collective {tag!r} aborted because ranks"
                f" {dead} died",
                dead_ranks=tuple(dead),
            )
        return CommAborted(
            f"rank {rank}: collective {tag!r} aborted by a peer failure"
        )

    def abort(self) -> None:
        """Fail peers fast: break the barrier, wake nonblocking waiters.

        Idempotent, callable from any rank (or a process world's parent).
        Barrier waiters get :class:`~threading.BrokenBarrierError` and
        raise :meth:`_abort_error`; nonblocking waiters see the flag on
        their next condition wake-up (<= 50 ms).
        """
        self._set_aborted()
        self.barrier.abort()
        for slot in self._nb_ring:
            with slot.cond:
                slot.cond.notify_all()

    def _barrier_wait(self, rank: int, tag: str, timeout: float | None) -> None:
        """One barrier arrival with an optional deadline.

        A rank whose wait expires aborts the world and raises
        :class:`~repro.errors.CommTimeoutError` naming the tag and the
        ranks whose arrival counter lags its own; peers woken by the broken
        barrier raise :meth:`_abort_error`. (A process world's barrier is
        :mod:`multiprocessing`'s, which raises the same
        :class:`threading.BrokenBarrierError`.)
        """
        self.arrive_gen[rank] += 1
        start = time.monotonic()
        try:
            self.barrier.wait(timeout)
        except threading.BrokenBarrierError as exc:
            if self.dead_ranks():
                raise self._abort_error(rank, tag) from exc
            timed_out = (
                timeout is not None
                and not self.is_aborted()
                and time.monotonic() - start >= timeout
            )
            if timed_out:
                my_gen = int(self.arrive_gen[rank])
                stalled = tuple(
                    r for r in range(self.size)
                    if int(self.arrive_gen[r]) < my_gen
                )
                self.abort()
                raise CommTimeoutError(
                    f"rank {rank}: collective {tag!r} timed out after"
                    f" {timeout}s waiting for ranks {list(stalled)}",
                    tag=tag,
                    stalled=stalled,
                ) from exc
            raise self._abort_error(rank, tag) from exc

    def exchange(
        self, rank: int, tag: str, obj: Any, fold=None, timeout: float | None = None
    ) -> Any:
        """Deposit, synchronise, snapshot (or fold), synchronise.

        With ``fold`` each rank reduces the contributions *between* the
        two barriers — i.e. before any peer can overwrite its deposit for
        the next collective. That is what lets callers reuse their send
        buffers across iterations (zero-copy packed collectives): by the
        time ``exchange`` returns, every rank has finished reading every
        deposit. The emulated transit (``latency``) is slept on the
        critical path, by all ranks concurrently. ``timeout`` bounds each
        barrier wait (see :meth:`_barrier_wait`).
        """
        self._deposit(rank, tag, obj)
        self._barrier_wait(rank, tag, timeout)
        try:
            tags = self._deposited_tags()
            if any(t != tags[0] for t in tags):
                raise RankMismatchError(
                    f"SPMD mismatch: ranks called different collectives {tags}"
                )
            gathered = self._gathered()
            snapshot = fold(gathered) if fold is not None else gathered
            if self.latency:
                time.sleep(self.latency)
        finally:
            # Second barrier: nobody may overwrite a deposit until all have
            # read. On mismatch every rank raises the same error after it.
            self._barrier_wait(rank, tag, timeout)
        return snapshot

    def _slot_wait(
        self,
        slot,
        ready: Callable[[], bool],
        rank: int,
        tag: str,
        timeout: float | None,
        stalled: Callable[[], tuple] | None = None,
    ) -> None:
        """Wait on a ring slot (its ``cond`` held) until ``ready()``.

        An abort raises :meth:`_abort_error`. A missed deadline aborts the
        world and raises :class:`~repro.errors.CommTimeoutError` naming the
        rank: a harvest (``stalled`` given) names the ranks that never
        deposited, a post waits for a free slot.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not ready():
            if self.is_aborted():
                raise self._abort_error(rank, tag)
            if deadline is not None and time.monotonic() >= deadline:
                lagging = () if stalled is None else stalled()
                self.abort()
                waiting = (
                    "waiting for a free ring slot" if stalled is None
                    else f"(no deposit from ranks {list(lagging)})"
                )
                raise CommTimeoutError(
                    f"rank {rank}: nonblocking collective {tag!r} timed out"
                    f" after {timeout}s {waiting}",
                    tag=tag,
                    stalled=lagging,
                )
            slot.cond.wait(0.05)


class WorldComm(Comm):
    """Communicator bound to one rank of a :class:`RankWorld`."""

    def __init__(
        self,
        world: RankWorld,
        rank: int,
        machine: MachineSpec | None = None,
        cost_size: int | None = None,
        ledger: CostLedger | None = None,
        timeout: float | None = None,
    ) -> None:
        super().__init__(
            rank=rank,
            size=world.size,
            cost_size=cost_size,
            machine=machine,
            ledger=ledger,
            timeout=timeout,
        )
        self._world = world
        self._nb_seq = 0
        #: sequence numbers posted but not yet harvested by this rank —
        #: out-of-order harvest means the ring-reuse guard must know
        #: *which* requests are open, not just how many
        self._nb_open: set[int] = set()

    @property
    def nb_ring_depth(self) -> int | None:
        """Depth of the shared nonblocking slot ring (max in flight)."""
        return self._world.nb_depth

    def payload_fits(self, words: int, nonblocking: bool = False) -> bool:
        return self._world.payload_fits(words, nonblocking)

    def _allgather_impl(self, tag: str, obj: Any) -> list:
        return self._exchange_fold(tag, obj, None)

    def _exchange_fold(self, tag: str, obj: Any, fold) -> Any:
        # the world folds between its two barriers, so send buffers are
        # reusable once this returns
        try:
            return self._world.exchange(
                self._rank, tag, obj, fold=fold, timeout=self._active_timeout
            )
        except CommTimeoutError:
            self.ledger.add_timeout()
            raise

    def _iallreduce_impl(self, tag: str, arr: np.ndarray, op: Op, out=None):
        # posting while this rank's own request `seq - depth` (which
        # shares the target ring slot) is unharvested would park forever
        # on that slot: fail typed *before* blocking. Out-of-order
        # harvest can create the conflict with fewer than `depth`
        # requests open, so the guard tracks open sequence numbers.
        depth = self._world.nb_depth
        seq = self._nb_seq
        if seq - depth in self._nb_open:
            raise NbRingDepthError(
                f"rank {self._rank}: posting nonblocking collective {tag!r}"
                f" would reuse the ring slot of its own unharvested request"
                f" #{seq - depth} ({len(self._nb_open)} open on a ring of"
                f" depth {depth}); harvest it first or raise nb_depth",
                depth=depth,
                outstanding=len(self._nb_open),
            )
        handle = self._world.nb_post(
            self._rank, seq, tag, arr, op, timeout=self._active_timeout,
            on_consume=self._nb_open.discard, out=out,
        )
        # only a deposited post takes its sequence number: a payload the
        # world rejects untouched (a process rank's non-float64 array)
        # must not skew this rank's ring against its peers'
        self._nb_seq += 1
        self._nb_open.add(seq)
        return handle
