"""Process-backed SPMD engine: true GIL-free parallelism.

Runs ``size`` ranks as forked OS processes executing the same function
(SPMD), exchanging data through anonymous shared-memory slabs
(:func:`multiprocessing.sharedctypes.RawArray`, inherited by fork — no
named segments, no cleanup, no resource-tracker noise). This is the
backend that makes wall-clock overlap claims *honest*: thread ranks
share one GIL for the Python-level inner loops, so a thread "speedup"
can be an artifact of scheduling; process ranks genuinely compute in
parallel, and hiding a reduction behind computation genuinely shortens
the critical path (``benchmarks/bench_overlap.py``).

Semantics match :class:`~repro.mpi.thread_backend.ThreadComm` exactly:

* every collective folds contributions in rank order, so results are
  bit-identical run-to-run and identical to the thread and virtual
  backends (each rank performs the same deterministic fold on the same
  rank-ordered payloads);
* SPMD-mismatch detection: each collective publishes its tag; divergent
  ranks raise :class:`~repro.errors.RankMismatchError` instead of
  deadlocking;
* nonblocking collectives run through a double-buffered slot ring.
  There is no background progress process — completion time is
  ``last deposit + latency`` (published in the slot header), and each
  rank's wait sleeps only the *remainder* of that window, which is what
  lets computation before the wait genuinely hide the transit.

Generic object collectives pickle payloads into fixed-capacity per-rank
slabs (``slab_bytes``, default 4 MiB — raise it through
``process_spmd_run(slab_bytes=)`` / ``ProcessWorld(slab_bytes=)`` for
larger payloads); an oversized payload raises a
:class:`~repro.errors.CommError` naming the payload size and the knob —
and aborts the world so peers wake instead of parking on the barrier —
rather than corrupting a neighbour's slab. Nonblocking payloads are raw
float64 (the packed-Gram hot path) — no pickling on the pipelined
critical path.

Teardown is exception-safe: a rank failing mid-collective (or the
parent unwinding) aborts the world — broken barrier, woken nonblocking
waiters — so blocked ranks exit deterministically instead of waiting
out the join-timeout/terminate path. :class:`ProcessWorld` is a context
manager (``shutdown()`` on exit) for direct, non-``process_spmd_run``
use.

Each :func:`process_spmd_run` call runs one job under one supervisor.
The ranks are forked with the job — function, closure and arguments
inherited, never pickled, so lambdas work exactly as with
:func:`~repro.mpi.thread_backend.spmd_run` — report their result over a
pipe, and park. The supervisor extends the heartbeat watchdog from
detect-and-abort to detect-respawn-rebarrier: with
``recover="checkpoint"`` a dead rank (or a collective deadline miss)
triggers a recovery round. The dead ranks are forked fresh, the
slab/NB-ring state is rebuilt (:meth:`ProcessWorld.reset_for_reuse`),
and the survivors rerun the job they hold, replaying from the latest
checkpoint the ranks shipped up through :class:`RecoveryContext`. With
the default ``recover="raise"`` a rank death surfaces as
:class:`~repro.errors.RankDiedError` after deterministic teardown.

The rank protocol itself — barrier deadlines, the abort and the error it
maps to, the nonblocking ring's depth guard — is
:class:`~repro.mpi.comm.RankWorld`'s and
:class:`~repro.mpi.comm.WorldComm`'s, shared with the thread backend;
this module adds the shared-memory storage and the supervisor. Requires
a platform with ``fork`` (Linux/macOS).
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.sharedctypes import RawArray
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    CommAborted,
    CommError,
    CommTimeoutError,
    RankDiedError,
    RankMismatchError,
)
from repro.machine.spec import MachineSpec
from repro.mpi.comm import RankWorld, WorldComm
from repro.mpi.thread_backend import NB_RING_DEPTH, SpmdResult

__all__ = [
    "ProcessComm",
    "ProcessWorld",
    "RecoveryContext",
    "process_spmd_run",
]

_TAG_BYTES = 128
#: bytes a pickled float64 array needs beyond its data (about 140 measured)
_PICKLE_SLACK = 1024


def _require_fork() -> mp.context.BaseContext:
    if "fork" not in mp.get_all_start_methods():
        raise CommError(
            "the process backend needs the 'fork' start method "
            "(unavailable on this platform)"
        )
    return mp.get_context("fork")


def _byte_view(size: int) -> memoryview:
    """A zeroed shared byte arena of ``size`` bytes, as a writable view.

    Slice assignment into a ``c_char`` :func:`RawArray` copies one byte at
    a time; through the view it is one buffer copy. The view maps the
    same shared pages, so it survives fork; it is never pickled (the
    worlds holding it are inherited, not sent).
    """
    return memoryview(RawArray(ctypes.c_char, size)).cast("B")


def _get_tag(tags: memoryview, rank: int) -> bytes:
    return bytes(tags[rank * _TAG_BYTES:(rank + 1) * _TAG_BYTES]).rstrip(b"\0")


def _set_tag(tags: memoryview, rank: int, tag: str) -> None:
    # truncated to keep a NUL, zero-padded so a shorter tag never
    # inherits suffix bytes
    enc = tag.encode()[: _TAG_BYTES - 1]
    tags[rank * _TAG_BYTES:(rank + 1) * _TAG_BYTES] = enc.ljust(_TAG_BYTES, b"\0")


class _NbProcSlot:
    """One shared-memory slot of the nonblocking-collective ring."""

    def __init__(self, ctx, size: int, seq: int, capacity_doubles: int) -> None:
        self.cond = ctx.Condition()
        self.capacity = capacity_doubles
        self.payload = RawArray(ctypes.c_double, size * capacity_doubles)
        self.lengths = RawArray(ctypes.c_longlong, size)
        self.tags = _byte_view(size * _TAG_BYTES)
        self.seq = ctx.Value(ctypes.c_longlong, seq, lock=False)
        self.deposited = ctx.Value(ctypes.c_int, 0, lock=False)
        self.consumed = ctx.Value(ctypes.c_int, 0, lock=False)
        self.complete_at = ctx.Value(ctypes.c_double, 0.0, lock=False)


class _ProcNbHandle:
    """Per-rank handle for one in-flight nonblocking collective."""

    __slots__ = (
        "_world", "_slot", "_seq", "_tag", "_rank", "_op", "_shape",
        "_result", "_on_consume", "_out",
    )

    def __init__(
        self, world, slot, seq, tag, rank, op, shape, on_consume=None,
        out=None,
    ) -> None:
        self._world = world
        self._slot = slot
        self._seq = seq
        self._tag = tag
        self._rank = rank
        self._op = op
        self._shape = shape
        self._result = None
        self._on_consume = on_consume
        self._out = out

    def _ready_locked(self) -> bool:
        slot = self._slot
        return slot.seq.value == self._seq and slot.deposited.value == self._world.size

    def _complete(self):
        """Fold the deposited payloads (deterministic rank order), into
        the request's ``out`` buffer when it has the payload's shape."""
        world, slot = self._world, self._slot
        n = int(slot.lengths[0])
        flat = np.frombuffer(slot.payload, dtype=np.float64)
        parts = [flat[r * slot.capacity:r * slot.capacity + n] for r in range(world.size)]
        tags = [_get_tag(slot.tags, r) for r in range(world.size)]
        lengths = [int(slot.lengths[r]) for r in range(world.size)]
        err = None
        if any(t != tags[0] for t in tags) or any(ln != n for ln in lengths):
            err = RankMismatchError(
                "SPMD mismatch: ranks posted different nonblocking "
                f"collectives {[t.decode() for t in tags]} with payload "
                f"lengths {lengths}"
            )
            result = None
        elif self._out is not None and self._out.shape == (n,):
            result = self._op.fold_into(parts, self._out)
        else:
            result = self._op.fold(parts).reshape(self._shape)
        with slot.cond:
            slot.consumed.value += 1
            if slot.consumed.value == world.size:
                slot.seq.value += world.nb_depth
                slot.deposited.value = 0
                slot.consumed.value = 0
                # clear the deposit markers so the stalled-rank diagnostic
                # on the *next* cycle of this slot reports fresh state
                for r in range(world.size):
                    slot.lengths[r] = 0
                slot.cond.notify_all()
        if self._on_consume is not None:
            self._on_consume(self._seq)
            self._on_consume = None
        if err is not None:
            raise err
        self._result = result
        return result

    def wait(self, timeout: float | None = None):
        world, slot = self._world, self._slot
        with slot.cond:
            world._slot_wait(
                slot, self._ready_locked, self._rank, self._tag, timeout,
                stalled=lambda: tuple(
                    r for r in range(world.size)
                    if slot.seq.value == self._seq and int(slot.lengths[r]) == 0
                ),
            )
            remaining = slot.complete_at.value - time.monotonic()
        if remaining > 0:
            # unoverlapped transit remainder — computation done before the
            # wait() has already eaten into this window
            time.sleep(remaining)
        return self._complete()

    def test(self):
        world, slot = self._world, self._slot
        with slot.cond:
            if world.is_aborted():
                raise world._abort_error(self._rank, self._tag)
            if not self._ready_locked():
                return None
            remaining = slot.complete_at.value - time.monotonic()
        if remaining > 0:
            return None
        return self._complete()


class ProcessWorld(RankWorld):
    """Shared-memory state for one process-SPMD world.

    Created in the parent *before* forking; children inherit the mapped
    arenas and synchronisation primitives. ``slab_bytes`` bounds one
    rank's pickled payload per blocking collective; ``nb_doubles`` bounds
    one rank's nonblocking float64 payload (defaults fit a packed
    ``(s*mu)^2/2`` Gram up to s*mu ≈ 1000).
    """

    def __init__(
        self,
        size: int,
        slab_bytes: int = 1 << 22,
        nb_doubles: int = 1 << 19,
        latency: float = 0.0,
        nb_depth: int = NB_RING_DEPTH,
    ) -> None:
        super().__init__(size, latency, nb_depth)
        ctx = _require_fork()
        self.slab_bytes = int(slab_bytes)
        self.barrier = ctx.Barrier(size)
        self._aborted = ctx.Value(ctypes.c_int, 0, lock=False)
        #: per-rank death flags set by the watchdog (or any observer);
        #: survivors map a broken barrier to RankDiedError through these
        self._dead = RawArray(ctypes.c_int, size)
        #: per-rank barrier-arrival counters for naming stalled ranks
        self.arrive_gen = RawArray(ctypes.c_longlong, size)
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop: threading.Event | None = None
        self._obj = _byte_view(size * self.slab_bytes)
        self._obj_len = RawArray(ctypes.c_longlong, size)
        self._tags = _byte_view(size * _TAG_BYTES)
        self._nb_ring = [
            _NbProcSlot(ctx, size, seq, int(nb_doubles))
            for seq in range(self.nb_depth)
        ]
        self._ctx = ctx

    def payload_fits(self, words: int, nonblocking: bool) -> bool:
        """A nonblocking payload fits a ring slot of ``nb_doubles``; a
        blocking one, pickled, fits the ``slab_bytes`` deposit."""
        if nonblocking:
            return words <= self._nb_ring[0].capacity
        return 8 * words + _PICKLE_SLACK <= self.slab_bytes

    def is_aborted(self) -> bool:
        return bool(self._aborted.value)

    def _set_aborted(self) -> None:
        self._aborted.value = 1

    # -- failure handling --------------------------------------------------
    def mark_rank_dead(self, rank: int) -> None:
        """Record that ``rank``'s process died, then abort the world.

        Called by the parent-side watchdog (or any observer of a child
        death). Survivors blocked in a collective wake through the abort
        and, seeing the death flag, raise
        :class:`~repro.errors.RankDiedError` instead of the generic
        :class:`~repro.errors.CommAborted`.
        """
        self._dead[rank] = 1
        self.abort()

    def dead_ranks(self) -> list:
        """Ranks recorded as dead (empty if none)."""
        return [r for r in range(self.size) if self._dead[r]]

    # -- parent-side heartbeat watchdog ------------------------------------
    def start_watchdog(self, procs: Sequence, interval: float = 0.05) -> None:
        """Watch child processes from the parent; mark deaths promptly.

        ``procs[r]`` is rank ``r``'s :class:`multiprocessing.Process`. A
        child that stops being alive with a nonzero exit code is marked
        dead (:meth:`mark_rank_dead`), which aborts the world so every
        surviving rank surfaces :class:`~repro.errors.RankDiedError`
        within one heartbeat instead of hanging. Idempotent per world;
        stop with :meth:`stop_watchdog`.
        """
        if self._watchdog is not None:
            return
        stop = threading.Event()

        def _watch() -> None:
            while not stop.is_set():
                for r, p in enumerate(procs):
                    if not p.is_alive() and p.exitcode not in (0, None):
                        if not self._dead[r]:
                            self.mark_rank_dead(r)
                if self.is_aborted():
                    return
                stop.wait(interval)

        self._watchdog_stop = stop
        self._watchdog = threading.Thread(
            target=_watch, name="spmd-watchdog", daemon=True
        )
        self._watchdog.start()

    def stop_watchdog(self) -> None:
        """Stop the heartbeat watchdog (idempotent)."""
        if self._watchdog_stop is not None:
            self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(1.0)
        self._watchdog = None
        self._watchdog_stop = None

    def shutdown(self) -> None:
        """Deterministic teardown: alias of :meth:`abort` for use as an
        explicit end-of-life call (or via the context manager). After
        shutdown every collective on the world raises
        :class:`~repro.errors.CommAborted` instead of blocking."""
        self.stop_watchdog()
        self.abort()

    def __enter__(self) -> "ProcessWorld":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- recovery ----------------------------------------------------------
    def reset_for_reuse(self) -> None:
        """Rebuild the collective state so the world can run another job.

        Restores the barrier, clears the aborted/death flags, and reseeds
        the slabs and the nonblocking slot ring to their just-constructed
        state. Only safe when no rank is inside a collective: the
        supervisor guarantees this by waiting until every surviving rank
        has reported (and is parked on its job pipe) before resetting.
        """
        self.barrier.reset()
        self._aborted.value = 0
        for r in range(self.size):
            self._dead[r] = 0
            self.arrive_gen[r] = 0
            self._obj_len[r] = 0
        self._tags[:] = bytes(len(self._tags))
        for i, slot in enumerate(self._nb_ring):
            with slot.cond:
                slot.seq.value = i
                slot.deposited.value = 0
                slot.consumed.value = 0
                slot.complete_at.value = 0.0
                for r in range(self.size):
                    slot.lengths[r] = 0
                slot.tags[:] = bytes(len(slot.tags))
                slot.cond.notify_all()

    # -- blocking exchange (see RankWorld.exchange) -------------------------
    def _deposit(self, rank: int, tag: str, obj: Any) -> None:
        """Pickle ``obj`` into this rank's slab (one buffer copy).

        Each rank later unpickles its *own copies* of every slab, so its
        fold is deterministic and isolated from the peers' buffers.
        """
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > self.slab_bytes:
            # the collective cannot proceed for anyone: wake peers that
            # already parked on the barrier instead of letting them sit
            # until the parent's timeout/terminate path fires
            self.abort()
            raise CommError(
                f"collective {tag!r}: pickled payload of {len(payload)} "
                f"bytes exceeds the process backend's slab capacity "
                f"(slab_bytes={self.slab_bytes}); raise slab_bytes= in "
                "process_spmd_run / ProcessWorld"
            )
        base = rank * self.slab_bytes
        self._obj[base:base + len(payload)] = payload
        self._obj_len[rank] = len(payload)
        _set_tag(self._tags, rank, tag)

    def _deposited_tags(self) -> list:
        # surrogateescape keeps distinct bytes distinct, even a tag
        # truncated mid-character
        return [
            _get_tag(self._tags, r).decode(errors="surrogateescape")
            for r in range(self.size)
        ]

    def _gathered(self) -> list:
        return [
            pickle.loads(self._obj[r * self.slab_bytes:
                                   r * self.slab_bytes + int(self._obj_len[r])])
            for r in range(self.size)
        ]

    # -- nonblocking post --------------------------------------------------
    def nb_post(
        self,
        rank: int,
        seq: int,
        tag: str,
        arr: np.ndarray,
        op,
        timeout: float | None = None,
        on_consume=None,
        out=None,
    ):
        """Deposit one rank's nonblocking contribution; returns a handle.

        ``timeout`` bounds the wait for a free ring slot. ``on_consume``
        (if given) is invoked exactly once in the posting process when
        the handle is harvested, with ``seq`` — the communicator uses it
        to track which of its requests are still open. ``out`` (if given)
        is the request's output buffer, which the harvest folds into.
        """
        if arr.dtype != np.float64:
            raise CommError(
                "process-backend Iallreduce supports float64 arrays, got "
                f"{arr.dtype}"
            )
        flat = np.ascontiguousarray(arr).ravel()
        slot = self._nb_ring[seq % self.nb_depth]
        if flat.shape[0] > slot.capacity:
            self.abort()  # peers waiting on this slot must not park
            raise CommError(
                f"nonblocking collective {tag!r}: payload of "
                f"{flat.shape[0]} doubles exceeds the slot capacity "
                f"(nb_doubles={slot.capacity}); raise nb_doubles= in "
                "process_spmd_run / ProcessWorld"
            )
        with slot.cond:
            self._slot_wait(
                slot, lambda: slot.seq.value == seq, rank, tag, timeout
            )
            dst = np.frombuffer(slot.payload, dtype=np.float64)
            dst[rank * slot.capacity:rank * slot.capacity + flat.shape[0]] = flat
            slot.lengths[rank] = flat.shape[0]
            _set_tag(slot.tags, rank, tag)
            slot.deposited.value += 1
            if slot.deposited.value == self.size:
                slot.complete_at.value = time.monotonic() + self.latency
                slot.cond.notify_all()
        return _ProcNbHandle(
            self, slot, seq, tag, rank, op, arr.shape, on_consume=on_consume,
            out=out,
        )


class ProcessComm(WorldComm):
    """Communicator bound to one rank of a :class:`ProcessWorld`."""


@dataclass(slots=True)
class RecoveryContext:
    """Per-rank view of the supervisor's recovery state for one attempt.

    The supervisor attaches one to every communicator it runs the job on
    (``comm.recovery``). Entry points that support checkpoint-resume use
    it in two ways:

    * :attr:`resume` — the most recent checkpoint payload the supervisor
      collected for this job (``None`` on a first attempt, or when the
      job never checkpointed). A redispatched attempt resumes from it
      instead of starting cold.
    * :meth:`save` — ship a checkpoint payload up to the supervisor so a
      *future* recovery can resume from it. Rank 0 only (replicated
      state), a no-op under ``recover="raise"`` — callers can install it
      unconditionally as a checkpoint sink.

    ``recoveries``/``respawns``/``replayed_iterations`` mirror the
    supervisor's counters at dispatch time so in-job cost snapshots
    carry them. :attr:`last_failure` classifies what triggered the most
    recent recovery round (``"rank-died"`` / ``"timeout"``; ``None`` on
    a first attempt) — resumable entry points that distinguish a retry
    from a cancel (the multi-tenant serving engine fails a timed-out
    request but replays one interrupted by a death) branch on it.
    """

    rank: int
    attempt: int
    mode: str = "raise"
    resume: Any = None
    recoveries: int = 0
    respawns: int = 0
    replayed_iterations: int = 0
    last_failure: str | None = None
    _report: Callable[[tuple], None] | None = field(default=None, repr=False)

    @property
    def active(self) -> bool:
        """True when the supervisor will attempt checkpoint recovery."""
        return self.mode == "checkpoint"

    def save(self, payload: Any) -> None:
        """Ship a checkpoint payload to the supervisor (rank 0 only).

        Synchronous: the payload is fully in the report pipe before this
        returns, so a checkpoint written just before a rank dies is
        never lost.
        """
        if self.mode != "checkpoint" or self.rank != 0 or self._report is None:
            return
        self._report(("ckpt", self.attempt, payload))


def _worker_main(
    world: ProcessWorld,
    rank: int,
    send_end,
    send_lock,
    job_conn,
    fn: Callable[..., Any],
    args: tuple,
    machine: MachineSpec | None,
    cost_size: int | None,
    comm_timeout: float | None,
    attempt: int,
    ctx_state: dict,
) -> None:
    """One rank: run the job it was forked with, then park for reruns.

    ``fn``, ``args`` and the first attempt's recovery state are inherited
    by fork (so closures need no encoding). A recovery redispatch arrives
    on ``job_conn`` as ``("run", attempt, ctx_state)``: run the same job
    again with the new state. ``None`` on the pipe — or a closed pipe —
    is an orderly shutdown.
    """
    # Signal safety: the parent's shutdown path owns teardown. SIGTERM
    # (e.g. an external kill of this rank) still aborts the world so
    # peers fail fast; SIGINT is ignored because a terminal Ctrl-C is
    # delivered to the whole process group and the parent's unwind
    # already aborts + joins every child — handling it here too would
    # race that teardown and strand peers mid-collective.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def _sigterm(signum, frame):
        world.abort()
        os._exit(1)

    signal.signal(signal.SIGTERM, _sigterm)

    def report(item) -> None:
        # send() is synchronous, so a report is fully in the pipe before
        # the worker moves on (or dies)
        with send_lock:
            send_end.send(item)

    msg = ("run", attempt, ctx_state)
    while msg is not None:
        _, attempt, ctx_state = msg
        comm = ProcessComm(
            world, rank, machine=machine, cost_size=cost_size,
            timeout=comm_timeout,
        )
        ctx = RecoveryContext(
            rank=rank, attempt=attempt, _report=report, **ctx_state
        )
        comm.recovery = ctx
        # seed the attempt counters so cost snapshots taken *inside* the
        # job (SolverResult.cost) already carry the recovery history;
        # the parent re-patches the returned ledgers authoritatively
        comm.ledger.recoveries = ctx.recoveries
        comm.ledger.respawns = ctx.respawns
        comm.ledger.replayed_iterations = ctx.replayed_iterations
        try:
            value = fn(comm, rank, *args)
        # The worker's top-level catch: every failure (aborts included) must
        # reach the parent as an "err" report; world.abort() here IS the
        # abort propagation, and a failed report re-raises the abort below.
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            world.abort()
            try:
                report(("res", attempt, rank, "err", exc, None))
            except (CommAborted, RankDiedError, KeyboardInterrupt):
                # a failed report cannot outrank the abort itself: die
                # loudly, the parent detects the rank via its sentinel
                raise
            except Exception:
                report(("res", attempt, rank, "err", CommError(repr(exc)), None))
        else:
            try:
                report(("res", attempt, rank, "ok", value, comm.ledger))
            except (CommAborted, RankDiedError, KeyboardInterrupt):
                raise
            except Exception as exc:  # unpicklable return value
                report(("res", attempt, rank, "err", CommError(
                    f"rank {rank} returned an unpicklable value: {exc!r}"
                ), None))
        try:
            msg = job_conn.recv()
        except (EOFError, OSError):
            msg = None
    os._exit(0)


class _Supervisor:
    """Runs one job on ``size`` forked ranks and supervises its attempts.

    Each rank is forked with the job — ``fn`` and ``args``, closure and
    all — and the attempt's recovery state, reports over one shared pipe,
    then parks on its own job pipe. :meth:`run` owns the heartbeat
    watchdog and extends it from detect-and-abort to
    detect-respawn-rebarrier:

    * ``recover="raise"`` — a failure surfaces like a fork-and-join run:
      first real per-rank error, then
      :class:`~repro.errors.RankDiedError` for silent deaths, then the
      first abort echo.
    * ``recover="checkpoint"`` — on a rank death (or a collective
      deadline), the dead ranks are forked fresh, the shared collective
      state is rebuilt (:meth:`ProcessWorld.reset_for_reuse`), every
      parked survivor reruns the job it holds, and the job replays from
      the latest checkpoint it shipped up through
      :class:`RecoveryContext` — at most ``max_recoveries`` times, after
      which the final failure is raised as usual.

    ``timeout`` bounds the whole run (all attempts included).
    :meth:`shutdown` stops every rank and leaves no orphans.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        args: Sequence,
        size: int,
        *,
        machine: MachineSpec | None,
        cost_size: int | None,
        timeout: float | None,
        latency: float,
        slab_bytes: int,
        nb_doubles: int,
        comm_timeout: float | None,
        nb_depth: int,
    ) -> None:
        self.size = size
        self._fn = fn
        self._args = tuple(args)
        self._machine = machine
        self._cost_size = cost_size
        self._timeout = timeout
        self._comm_timeout = comm_timeout
        self._world = ProcessWorld(
            size, slab_bytes=slab_bytes, nb_doubles=nb_doubles,
            latency=latency, nb_depth=nb_depth,
        )
        self._ctx = self._world._ctx
        # report channel: one pipe, many writers serialized by a lock (the
        # public-API equivalent of SimpleQueue, which offers no timed poll)
        self._recv, self._send = self._ctx.Pipe(duplex=False)
        self._send_lock = self._ctx.Lock()
        self._procs: list = [None] * size
        self._job_w: list = [None] * size

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self, rank: int, attempt: int, ctx_state: dict) -> None:
        """Fork one rank; the job and the attempt ride fork inheritance."""
        job_r, job_w = self._ctx.Pipe(duplex=False)
        p = self._ctx.Process(
            target=_worker_main,
            args=(
                self._world, rank, self._send, self._send_lock, job_r,
                self._fn, self._args, self._machine, self._cost_size,
                self._comm_timeout, attempt, ctx_state,
            ),
            name=f"spmd-proc-{rank}",
            daemon=True,
        )
        p.start()
        # the child holds its own copy of the recv end; dropping the
        # parent's copy keeps fd ownership tidy (shutdown still uses an
        # explicit None message because sibling forks inherit the send
        # ends, so EOF alone is not a reliable shutdown signal)
        job_r.close()
        old = self._job_w[rank]
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        self._procs[rank] = p
        self._job_w[rank] = job_w

    def _dispatch(self, attempt: int, ctx_state: dict) -> None:
        """Hand one attempt to every rank: a parked survivor reruns the
        job it holds, a dead (or never forked) rank is forked fresh."""
        for r, p in enumerate(self._procs):
            if p is not None and p.is_alive():
                self._job_w[r].send(("run", attempt, ctx_state))
            else:
                self._spawn(r, attempt, ctx_state)

    def shutdown(self) -> None:
        """Stop the watchdog and every rank; no orphans."""
        self._world.stop_watchdog()
        # wake anything still blocked in a collective, then ask parked
        # ranks to exit; stragglers are terminated after a grace join
        self._world.abort()
        for w in self._job_w:
            if w is not None:
                try:
                    w.send(None)
                    w.close()
                except (OSError, ValueError):
                    pass
        for p in self._procs:
            if p is not None:
                p.join(1.0)
        for p in self._procs:
            if p is not None and p.is_alive():
                p.terminate()
                p.join(1.0)
        try:
            self._recv.close()
            self._send.close()
        except OSError:
            pass

    # -- supervisor loop ---------------------------------------------------
    def _collect(self, attempt: int, deadline: float | None):
        """Collect one attempt's reports; returns per-rank outcome.

        Exits when every rank has reported, or when every *unreported*
        rank is dead and the report pipe is drained (survivors park
        alive after reporting, so "all procs dead" is no exit
        condition). A blown deadline aborts the world and raises
        :class:`CommAborted`.
        """
        size = self.size
        values: list[Any] = [None] * size
        ledgers: list[Any] = [None] * size
        errors: list[BaseException | None] = [None] * size
        reported = [False] * size
        ckpt = None
        while True:
            if deadline is not None and time.monotonic() > deadline:
                self._world.abort()
                hung = [
                    p.name for p in self._procs
                    if p is not None and p.is_alive()
                ]
                raise CommAborted(
                    f"SPMD ranks did not finish within {self._timeout}s:"
                    f" {hung}"
                )
            if not self._recv.poll(0.05):
                dead_unreported = [
                    r for r in range(size)
                    if not reported[r] and not self._procs[r].is_alive()
                ]
                if dead_unreported and not self._recv.poll(0):
                    # report() is synchronous, so a dead child with no
                    # queued report genuinely never reported (crash/kill);
                    # mark_rank_dead aborts the world, so live survivors
                    # wake, raise RankDiedError, report it, and park —
                    # we keep looping until those reports land
                    for r in dead_unreported:
                        self._world.mark_rank_dead(r)
                    if all(
                        reported[r] or not self._procs[r].is_alive()
                        for r in range(size)
                    ):
                        break
                continue
            msg = self._recv.recv()
            if msg[1] != attempt:
                continue  # stale report from a pre-recovery attempt
            if msg[0] == "ckpt":
                # send() is FIFO, so the last one received is the newest
                ckpt = msg[2]
                continue
            _, _, r, status, payload, ledger = msg
            reported[r] = True
            if status == "ok":
                values[r] = payload
                ledgers[r] = ledger
            else:
                errors[r] = payload
            if all(reported):
                break
        return values, ledgers, errors, reported, ckpt

    def run(self, recover: str, max_recoveries: int) -> SpmdResult:
        """Run the job, recovering per ``recover``; see the class doc."""
        attempt = 0
        recoveries = 0
        respawns = 0
        replayed = 0
        last_failure: str | None = None
        ckpt = None
        deadline = (
            None if self._timeout is None
            else time.monotonic() + self._timeout
        )
        while True:
            ctx_state = {
                "mode": recover,
                "resume": ckpt,
                "recoveries": recoveries,
                "respawns": respawns,
                "replayed_iterations": replayed,
                "last_failure": last_failure,
            }
            self._dispatch(attempt, ctx_state)
            # heartbeat: a killed child is marked dead (aborting the
            # world) within one watchdog interval, independently of the
            # report-poll loop
            self._world.start_watchdog(self._procs)
            values, ledgers, errors, reported, new_ckpt = self._collect(
                attempt, deadline
            )
            if new_ckpt is not None:
                ckpt = new_ckpt
            if all(reported) and not any(e is not None for e in errors):
                for led in ledgers:
                    if led is not None:
                        led.recoveries = recoveries
                        led.respawns = respawns
                        led.replayed_iterations = replayed
                return SpmdResult(values=values, ledgers=ledgers)
            # -- failure: classify, then recover or raise ------------------
            dead_unreported = [r for r in range(self.size) if not reported[r]]
            present = [e for e in errors if e is not None]
            real = [e for e in present if not isinstance(e, CommAborted)]
            # RankDiedError subclasses CommAborted (it lands in the abort
            # echoes); CommTimeoutError is a "real" error but marks a
            # recoverable stall. Anything else real — a solver bug, a
            # mismatch — must not be retried.
            recoverable_kinds = (RankDiedError, CommTimeoutError)
            blocking = [
                e for e in real if not isinstance(e, recoverable_kinds)
            ]
            failure_signal = bool(dead_unreported) or any(
                isinstance(e, recoverable_kinds) for e in present
            )
            if (
                recover == "checkpoint"
                and recoveries < max_recoveries
                and not blocking
                and failure_signal
            ):
                recoveries += 1
                # classify the trigger for the redispatched attempt:
                # deaths dominate (a timeout echo often accompanies a
                # death via the aborted barrier), then pure deadlines
                if dead_unreported or any(
                    isinstance(e, RankDiedError) for e in present
                ):
                    last_failure = "rank-died"
                elif any(isinstance(e, CommTimeoutError) for e in present):
                    last_failure = "timeout"
                else:
                    last_failure = "rank-died"
                dead = sorted(
                    set(dead_unreported) | set(self._world.dead_ranks())
                    | {r for r, p in enumerate(self._procs) if not p.is_alive()}
                )
                self._world.stop_watchdog()
                for r in dead:
                    p = self._procs[r]
                    p.join(1.0)
                    if p.is_alive():
                        p.terminate()
                        p.join(1.0)
                respawns += len(dead)
                if isinstance(ckpt, dict):
                    # work units the redispatched attempt will *not* have
                    # to redo — saved by checkpointing, cumulative across
                    # recovery rounds. Solver checkpoints count
                    # iterations, path checkpoints completed grid points,
                    # streaming checkpoints applied events, serving
                    # checkpoints resolved requests.
                    units = next((
                        ckpt[k] for k in (
                            "iteration", "completed", "events_applied",
                            "requests_done",
                        ) if ckpt.get(k) is not None
                    ), 0)
                    replayed += int(units or 0)
                # every survivor has reported and parked outside any
                # collective, so the shared state can be rebuilt safely
                self._world.reset_for_reuse()
                attempt += 1
                continue
            # raise path: the first real error, then silent deaths, then
            # the first abort echo
            if real:
                raise real[0]
            if dead_unreported:
                # a rank died without reporting: name it, even if
                # survivors only managed a generic CommAborted before
                # the death flag landed
                raise RankDiedError(
                    "SPMD ranks died without reporting a result:"
                    f" {dead_unreported}",
                    dead_ranks=tuple(dead_unreported),
                )
            raise present[0]


def process_spmd_run(
    fn: Callable[..., Any],
    size: int,
    args: Sequence = (),
    machine: MachineSpec | None = None,
    cost_size: int | None = None,
    timeout: float | None = 120.0,
    latency: float = 0.0,
    slab_bytes: int = 1 << 22,
    nb_doubles: int = 1 << 19,
    comm_timeout: float | None = None,
    recover: str = "raise",
    max_recoveries: int = 2,
    nb_depth: int = NB_RING_DEPTH,
) -> SpmdResult:
    """Run ``fn(comm, rank, *args)`` on ``size`` forked process ranks.

    The process twin of :func:`~repro.mpi.thread_backend.spmd_run`, same
    signature and same :class:`SpmdResult` (per-rank values + ledgers:
    each child ships its return value and ledger back through a pipe).
    ``fn`` and its closure are inherited by fork, so lambdas work; the
    *return value* must be picklable. One supervisor runs the job and is
    shut down on exit, success or not.

    ``slab_bytes`` bounds one rank's pickled payload per blocking
    collective (default 4 MiB) and ``nb_doubles`` one rank's nonblocking
    float64 payload; an oversized payload raises a :class:`CommError`
    naming the size and the knob, and aborts the world so peers wake
    instead of parking. Teardown is exception-safe: a rank raising
    mid-collective aborts the world (broken barrier + woken nonblocking
    waiters), so every surviving rank exits deterministically and no
    forked child outlives the call.

    ``comm_timeout`` installs a default per-collective deadline on every
    rank's communicator (``None`` = wait forever). ``nb_depth`` sets the
    nonblocking slot-ring depth — the most in-flight ``Iallreduce``
    requests any rank may hold (the ring at depth ``tau`` needs
    ``tau + 1``); exceeding it raises
    :class:`~repro.errors.NbRingDepthError` instead of deadlocking.

    ``recover="checkpoint"`` turns a rank death (or collective deadline)
    into a supervised recovery: the dead rank is forked fresh, the shared
    collective state rebuilt, and the job rerun on every rank (the
    survivors rerun the one they hold), resuming from the latest
    checkpoint it shipped through ``comm.recovery``
    (:class:`RecoveryContext`) — at most ``max_recoveries`` times, after
    which the failure raises as usual. The
    ``recoveries``/``respawns``/``replayed_iterations`` counters land in
    every returned ledger. The default ``recover="raise"`` raises the
    first failure.

    Children install signal handlers before running ``fn``: SIGTERM
    aborts the world and exits immediately, SIGINT is ignored (the
    parent coordinates Ctrl-C teardown through its ``finally`` path), so
    an interrupted run leaves no orphan processes.

    Raises the first per-rank exception (rank order) if any rank failed;
    a killed rank raises :class:`~repro.errors.RankDiedError` (on the
    survivors and in the parent), hung ranks raise :class:`CommAborted`.
    """
    if recover not in ("raise", "checkpoint"):
        raise CommError(
            f"recover must be 'raise' or 'checkpoint', got {recover!r}"
        )
    supervisor = _Supervisor(
        fn, args, size,
        machine=machine,
        cost_size=cost_size,
        timeout=timeout,
        latency=latency,
        slab_bytes=slab_bytes,
        nb_doubles=nb_doubles,
        comm_timeout=comm_timeout,
        nb_depth=nb_depth,
    )
    try:
        return supervisor.run(recover, max_recoveries)
    finally:
        supervisor.shutdown()
