"""Thread-backed SPMD engine.

Runs ``size`` ranks as Python threads executing the same function (SPMD),
synchronising at collectives through a reusable barrier. NumPy performs
the heavy lifting with the GIL released, so this is genuinely concurrent
for the kernels that matter; more importantly it *faithfully exercises the
distributed code path* — each rank owns only its shard of the matrix and
contributes partial sums, exactly like the paper's MPI ranks.

Determinism: every collective snapshots all contributions after a barrier
and folds them in rank order, so results are identical run-to-run and
identical to what a sequential fold would produce. A second barrier
prevents a fast rank from starting the next collective before everyone
has read the slots.

SPMD-mismatch detection: each collective publishes its tag; if ranks
disagree (a classic SPMD deadlock bug), all ranks raise
:class:`~repro.errors.RankMismatchError` instead of hanging.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import CommAborted, RankMismatchError
from repro.machine.spec import MachineSpec
from repro.mpi.comm import RankWorld, WorldComm

__all__ = ["ThreadComm", "ThreadContext", "spmd_run", "SpmdResult"]

#: default outstanding nonblocking collectives per world (double-buffered:
#: the pipelined solvers keep at most one reduction in flight while packing
#: the next payload into the other buffer, and the async ring at ``tau =
#: 1`` two; deeper rings pass ``nb_depth = tau + 1``)
NB_RING_DEPTH = 2


class _NbSlot:
    """One slot of the nonblocking-collective ring.

    Lifecycle per sequence number: every rank deposits (buffer, tag); the
    last deposit hands the slot to the background fold thread, which
    (after the emulated transit latency) folds the contributions in rank
    order and publishes the result; each rank's wait copies the result
    out and the last consumer recycles the slot for ``seq + ring``.
    """

    __slots__ = ("cond", "seq", "bufs", "tags", "op", "deposited",
                 "consumed", "result", "error", "done")

    def __init__(self, size: int, seq: int) -> None:
        self.cond = threading.Condition()
        self.seq = seq
        self.bufs: list[Any] = [None] * size
        self.tags: list[str | None] = [None] * size
        self.op = None
        self.deposited = 0
        self.consumed = 0
        self.result = None
        self.error: BaseException | None = None
        self.done = False

    def recycle(self, size: int, ring: int = NB_RING_DEPTH) -> None:
        """Reset for the sequence ``ring`` steps later (cond held)."""
        self.seq += ring
        self.bufs = [None] * size
        self.tags = [None] * size
        self.op = None
        self.deposited = 0
        self.consumed = 0
        self.result = None
        self.error = None
        self.done = False


class _ThreadNbHandle:
    """Per-rank handle for one in-flight nonblocking collective."""

    __slots__ = ("_ctx", "_slot", "_seq", "_tag", "_rank", "_result",
                 "_on_consume")

    def __init__(
        self, ctx: "ThreadContext", slot: _NbSlot, seq: int, tag: str,
        rank: int, on_consume=None,
    ) -> None:
        self._ctx = ctx
        self._slot = slot
        self._seq = seq
        self._tag = tag
        self._rank = rank
        self._result = None
        self._on_consume = on_consume

    def _ready_locked(self) -> bool:
        return self._slot.seq == self._seq and self._slot.done

    def _consume_locked(self):
        """Copy the published result and recycle the slot (cond held)."""
        err = self._slot.error
        if err is None:
            self._result = self._slot.result.copy()
        if self._on_consume is not None:
            self._on_consume(self._seq)
            self._on_consume = None
        self._slot.consumed += 1
        if self._slot.consumed == self._ctx.size:
            self._slot.recycle(self._ctx.size, self._ctx.nb_depth)
            self._slot.cond.notify_all()
        if err is not None:
            raise err
        return self._result

    def wait(self, timeout: float | None = None):
        slot = self._slot
        with slot.cond:
            self._ctx._slot_wait(
                slot, self._ready_locked, self._rank, self._tag, timeout,
                stalled=lambda: tuple(
                    r for r in range(self._ctx.size)
                    if slot.seq == self._seq and slot.tags[r] is None
                ),
            )
            return self._consume_locked()

    def test(self):
        with self._slot.cond:
            if self._ctx.is_aborted():
                raise self._ctx._abort_error(self._rank, self._tag)
            if not self._ready_locked():
                return None
            return self._consume_locked()


class ThreadContext(RankWorld):
    """Shared state for one thread-SPMD world.

    ``latency`` emulates the network transit of each collective: blocking
    collectives sleep it on the critical path (between the two barriers,
    all ranks concurrently), nonblocking ones sleep it on the background
    fold thread — which is what lets pipelined callers genuinely hide it
    behind computation. Used by the overlap benchmarks; defaults to 0.
    """

    def __init__(
        self, size: int, latency: float = 0.0, nb_depth: int = NB_RING_DEPTH
    ) -> None:
        super().__init__(size, latency, nb_depth)
        self.barrier = threading.Barrier(size)
        self.slots: list[Any] = [None] * size
        self.tags: list[str | None] = [None] * size
        self._aborted = False
        #: per-rank barrier-arrival counters; a rank that times out names
        #: the peers whose counter lags its own as the stalled ranks
        self.arrive_gen = [0] * size
        self._nb_ring = [_NbSlot(size, seq) for seq in range(self.nb_depth)]
        self._nb_queue: queue.Queue = queue.Queue()
        self._folder: threading.Thread | None = None
        self._folder_lock = threading.Lock()

    def is_aborted(self) -> bool:
        return self._aborted

    def _set_aborted(self) -> None:
        self._aborted = True

    # -- blocking exchange (see RankWorld.exchange) -------------------------
    def _deposit(self, rank: int, tag: str, obj: Any) -> None:
        self.slots[rank] = obj
        self.tags[rank] = tag

    def _deposited_tags(self) -> list:
        return list(self.tags)

    def _gathered(self) -> list:
        return list(self.slots)

    # -- nonblocking collectives -------------------------------------------
    def _ensure_folder(self) -> None:
        """Start the background fold thread on first nonblocking use."""
        with self._folder_lock:
            if self._folder is None:
                self._folder = threading.Thread(
                    target=self._fold_loop, name="spmd-nb-folder", daemon=True
                )
                self._folder.start()

    def _fold_loop(self) -> None:
        """Background progress engine: complete nonblocking collectives.

        Receives fully-deposited slots, sleeps the emulated transit
        latency *off* every rank's critical path, folds the contributions
        in rank order (deterministic, bit-identical to the blocking
        fold), and publishes result-or-error to the waiting ranks.
        """
        while True:
            slot = self._nb_queue.get()
            if slot is None:
                return
            if self.latency:
                time.sleep(self.latency)
            with slot.cond:
                try:
                    expected = slot.tags[0]
                    if any(t != expected for t in slot.tags):
                        raise RankMismatchError(
                            "SPMD mismatch: ranks posted different nonblocking"
                            f" collectives {slot.tags}"
                        )
                    slot.result = slot.op.fold(slot.bufs)
                # repro: lint-ignore[abort-swallow] -- capture, not swallow:
                # the folder thread stores the error and every waiting rank
                # re-raises it from slot.error at harvest time
                except BaseException as exc:  # noqa: BLE001 - republished per rank
                    slot.error = exc
                slot.done = True
                slot.cond.notify_all()

    def nb_post(
        self,
        rank: int,
        seq: int,
        tag: str,
        obj: Any,
        op,
        timeout: float | None = None,
        on_consume=None,
        out=None,
    ) -> _ThreadNbHandle:
        """Deposit one rank's contribution to nonblocking collective ``seq``.

        Returns once the contribution is recorded, blocking only while the
        ring slot still holds the collective ``nb_depth`` sequences
        earlier (each slot recycles when all ranks consumed it).
        ``timeout`` bounds that wait; ``on_consume`` (if given) is called
        with ``seq`` once, when this rank harvests the handle. The caller
        must not modify ``obj`` until the request completes. The fold
        thread folds once for every rank, so ``out`` is not used here:
        each harvest copies the shared result.
        """
        slot = self._nb_ring[seq % self.nb_depth]
        with slot.cond:
            self._slot_wait(slot, lambda: slot.seq == seq, rank, tag, timeout)
            slot.bufs[rank] = obj
            slot.tags[rank] = tag
            if slot.op is None:
                slot.op = op
            slot.deposited += 1
            last = slot.deposited == self.size
        if last:
            self._ensure_folder()
            self._nb_queue.put(slot)
        return _ThreadNbHandle(self, slot, seq, tag, rank, on_consume)

    def close(self) -> None:
        """Stop the background fold thread (idempotent)."""
        with self._folder_lock:
            if self._folder is not None:
                self._nb_queue.put(None)
                self._folder = None


class ThreadComm(WorldComm):
    """Communicator bound to one rank of a :class:`ThreadContext`."""


@dataclass
class SpmdResult:
    """Outcome of an SPMD run: per-rank return values and cost ledgers."""

    values: list
    ledgers: list

    @property
    def root(self) -> Any:
        """Rank 0's return value (conventionally the result)."""
        return self.values[0]


def spmd_run(
    fn: Callable[..., Any],
    size: int,
    args: Sequence = (),
    machine: MachineSpec | None = None,
    cost_size: int | None = None,
    timeout: float | None = 120.0,
    latency: float = 0.0,
    comm_timeout: float | None = None,
    nb_depth: int = NB_RING_DEPTH,
) -> SpmdResult:
    """Run ``fn(comm, rank, *args)`` on ``size`` thread ranks.

    Parameters
    ----------
    fn:
        SPMD function; first two arguments are the communicator and rank.
    size:
        Number of thread ranks (keep modest; this is a simulator).
    machine:
        Optional machine spec for cost modelling.
    cost_size:
        Model costs as if running on this many ranks (>= size).
    timeout:
        Join timeout per thread; a hung rank raises :class:`CommAborted`.
    latency:
        Emulated per-collective transit seconds (overlap studies): paid
        on the critical path by blocking collectives, hidden behind
        computation by pipelined nonblocking ones.
    comm_timeout:
        Default per-collective deadline installed on every rank's
        communicator (``None`` = wait forever, the historical behaviour).
    nb_depth:
        Nonblocking slot-ring depth: the most in-flight ``Iallreduce``
        requests any rank may hold (the ring at depth ``tau`` needs
        ``tau + 1``).

    Raises the first per-rank exception (rank order) if any rank failed.
    """
    ctx = ThreadContext(size, latency=latency, nb_depth=nb_depth)
    values: list[Any] = [None] * size
    errors: list[BaseException | None] = [None] * size
    comms = [
        ThreadComm(ctx, r, machine=machine, cost_size=cost_size, timeout=comm_timeout)
        for r in range(size)
    ]

    def worker(r: int) -> None:
        try:
            values[r] = fn(comms[r], r, *args)
        # repro: lint-ignore[abort-swallow] -- the rank thread's top-level
        # catch: errors[r] is re-raised by spmd_run's caller-side collection
        # and ctx.abort() here IS the abort propagation
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors[r] = exc
            ctx.abort()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    hung = [t.name for t in threads if t.is_alive()]
    ctx.close()
    if hung:
        ctx.abort()
        raise CommAborted(f"SPMD ranks did not finish within {timeout}s: {hung}")
    real_errors = [e for e in errors if e is not None and not isinstance(e, CommAborted)]
    if real_errors:
        raise real_errors[0]
    aborted = [e for e in errors if e is not None]
    if aborted:
        raise aborted[0]
    return SpmdResult(values=values, ledgers=[c.ledger for c in comms])
