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

Execution runs through a persistent, supervised :class:`WorkerPool`:
workers are forked once, park between jobs, and accept ``(job_id, fn,
payload)`` work items over per-rank pipes. The pool's supervisor
extends the heartbeat watchdog from detect-and-abort to
detect-respawn-rebarrier — with ``recover="checkpoint"`` a dead rank
(or a collective deadline miss) triggers a recovery round: the dead
rank(s) are respawned by a fresh fork, the slab/NB-ring state is
rebuilt (:meth:`ProcessWorld.reset_for_reuse`), and the job is
redispatched to every rank, replaying from the latest checkpoint the
workers shipped up through :class:`RecoveryContext`. With the default
``recover="raise"`` a rank death surfaces exactly as before
(:class:`~repro.errors.RankDiedError` after deterministic teardown).

Requires a platform with ``fork`` (Linux/macOS): the SPMD function and
its closure are inherited, not pickled, for the fork that dispatches
them — tests and solvers can pass lambdas exactly as with
:func:`~repro.mpi.thread_backend.spmd_run`. Only a *subsequent* job
dispatched to already-running workers crosses a pipe; a mini function
codec (pickle by reference, falling back to marshalled code objects
with recursively-encoded closures) covers the lambdas and closures the
repo's callers use.
"""

from __future__ import annotations

import builtins
import ctypes
import marshal
import multiprocessing as mp
import os
import pickle
import signal
import sys
import threading
import time
import types
from multiprocessing.sharedctypes import RawArray
from threading import BrokenBarrierError
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
from repro.machine.ledger import CostLedger
from repro.machine.spec import MachineSpec
from repro.mpi.comm import Comm
from repro.mpi.thread_backend import NB_RING_DEPTH, SpmdResult

__all__ = [
    "ProcessComm",
    "ProcessWorld",
    "RecoveryContext",
    "WorkerPool",
    "process_spmd_run",
]

_TAG_BYTES = 128


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
        "_world", "_slot", "_seq", "_rank", "_op", "_shape", "_result",
        "_on_consume",
    )

    def __init__(self, world, slot, seq, rank, op, shape, on_consume=None) -> None:
        self._world = world
        self._slot = slot
        self._seq = seq
        self._rank = rank
        self._op = op
        self._shape = shape
        self._result = None
        self._on_consume = on_consume

    def _ready_locked(self) -> bool:
        slot = self._slot
        return slot.seq.value == self._seq and slot.deposited.value == self._world.size

    def _complete(self):
        """Fold the deposited payloads (deterministic rank order)."""
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
        deadline = None if timeout is None else time.monotonic() + timeout
        with slot.cond:
            while not self._ready_locked():
                if world.is_aborted():
                    raise world._abort_error(self._rank, "Iallreduce")
                if deadline is not None and time.monotonic() >= deadline:
                    stalled = tuple(
                        r
                        for r in range(world.size)
                        if slot.seq.value == self._seq and int(slot.lengths[r]) == 0
                    )
                    world.abort()
                    raise CommTimeoutError(
                        f"rank {self._rank}: nonblocking collective timed out"
                        f" after {timeout}s (no deposit from ranks"
                        f" {list(stalled)})",
                        tag="Iallreduce",
                        stalled=stalled,
                    )
                slot.cond.wait(0.05)
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
                raise world._abort_error(self._rank, "Iallreduce")
            if not self._ready_locked():
                return None
            remaining = slot.complete_at.value - time.monotonic()
        if remaining > 0:
            return None
        return self._complete()


class ProcessWorld:
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
        if size < 1:
            raise CommError(f"size must be >= 1, got {size}")
        if int(nb_depth) < 1:
            raise NbRingDepthError(
                f"nb_depth must be >= 1, got {nb_depth}", depth=int(nb_depth)
            )
        ctx = _require_fork()
        self.size = size
        self.slab_bytes = int(slab_bytes)
        self.latency = float(latency)
        self.nb_depth = int(nb_depth)
        self.barrier = ctx.Barrier(size)
        self._aborted = ctx.Value(ctypes.c_int, 0, lock=False)
        #: per-rank death flags set by the watchdog (or any observer);
        #: survivors map a broken barrier to RankDiedError through these
        self._dead = RawArray(ctypes.c_int, size)
        #: per-rank barrier-arrival counters for naming stalled ranks
        self._arrive_gen = RawArray(ctypes.c_longlong, size)
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

    # -- failure handling --------------------------------------------------
    def abort(self) -> None:
        """Fail peers fast: break the barrier, wake nonblocking waiters.

        Idempotent, callable from any rank or the parent. Every blocked
        participant wakes deterministically: barrier waiters get
        :class:`~threading.BrokenBarrierError` (surfaced as
        :class:`~repro.errors.CommAborted`), nonblocking waiters observe
        the aborted flag on their next condition wake-up (<= 50 ms).
        """
        self._aborted.value = 1
        self.barrier.abort()
        for slot in self._nb_ring:
            with slot.cond:
                slot.cond.notify_all()

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

    def _abort_error(self, rank: int, tag: str) -> CommError:
        """The error a woken survivor should raise for this abort."""
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

    def is_aborted(self) -> bool:
        return bool(self._aborted.value)

    # -- recovery ----------------------------------------------------------
    def reset_for_reuse(self) -> None:
        """Rebuild the collective state so the world can run another job.

        Restores the barrier, clears the aborted/death flags, and reseeds
        the slabs and the nonblocking slot ring to their just-constructed
        state. Only safe when no rank is inside a collective: the
        :class:`WorkerPool` guarantees this by waiting until every
        surviving rank has reported (and is parked on its job pipe)
        before resetting.
        """
        self.barrier.reset()
        self._aborted.value = 0
        for r in range(self.size):
            self._dead[r] = 0
            self._arrive_gen[r] = 0
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

    # -- blocking exchange -------------------------------------------------
    def _barrier_wait(self, rank: int, tag: str, timeout: float | None) -> None:
        """One barrier arrival with an optional deadline.

        Mirrors :meth:`ThreadContext._barrier_wait`: a rank whose wait
        expires aborts the world and raises
        :class:`~repro.errors.CommTimeoutError` naming the tag and the
        lagging ranks; peers woken by the broken barrier raise
        :class:`~repro.errors.RankDiedError` if a death was recorded,
        else :class:`~repro.errors.CommAborted`.
        """
        self._arrive_gen[rank] += 1
        start = time.monotonic()
        try:
            self.barrier.wait(timeout)
        except BrokenBarrierError as exc:
            if self.dead_ranks():
                raise self._abort_error(rank, tag) from exc
            timed_out = (
                timeout is not None
                and not self.is_aborted()
                and time.monotonic() - start >= timeout
            )
            if timed_out:
                my_gen = int(self._arrive_gen[rank])
                stalled = tuple(
                    r for r in range(self.size)
                    if int(self._arrive_gen[r]) < my_gen
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

        The process twin of :meth:`ThreadContext.exchange`: pickles the
        payload into this rank's slab, barriers, reads every slab (so
        each rank folds its *own copies* — deterministic and isolated),
        barriers again so nobody overwrites a slab early. ``timeout``
        bounds each barrier wait (see :meth:`_barrier_wait`).
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
        self._barrier_wait(rank, tag, timeout)
        try:
            tags = [_get_tag(self._tags, r) for r in range(self.size)]
            if any(t != tags[0] for t in tags):
                raise RankMismatchError(
                    "SPMD mismatch: ranks called different collectives "
                    f"{[t.decode() for t in tags]}"
                )
            gathered = [
                pickle.loads(self._obj[r * self.slab_bytes:
                                       r * self.slab_bytes + int(self._obj_len[r])])
                for r in range(self.size)
            ]
            snapshot = fold(gathered) if fold is not None else gathered
            if self.latency:
                # emulated transit on the critical path (concurrent ranks)
                time.sleep(self.latency)
        finally:
            self._barrier_wait(rank, tag, timeout)
        return snapshot

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
    ):
        """Deposit one rank's nonblocking contribution; returns a handle.

        ``timeout`` bounds the wait for a free ring slot. ``on_consume``
        (if given) is invoked exactly once in the posting process when
        the handle is harvested — :class:`ProcessComm` uses it to track
        its own outstanding-request count.
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
        deadline = None if timeout is None else time.monotonic() + timeout
        with slot.cond:
            while slot.seq.value != seq:
                if self.is_aborted():
                    raise self._abort_error(rank, tag)
                if deadline is not None and time.monotonic() >= deadline:
                    self.abort()
                    raise CommTimeoutError(
                        f"rank {rank}: nonblocking collective {tag!r} timed"
                        f" out after {timeout}s waiting for a free ring slot",
                        tag=tag,
                    )
                slot.cond.wait(0.05)
            dst = np.frombuffer(slot.payload, dtype=np.float64)
            dst[rank * slot.capacity:rank * slot.capacity + flat.shape[0]] = flat
            slot.lengths[rank] = flat.shape[0]
            _set_tag(slot.tags, rank, tag)
            slot.deposited.value += 1
            if slot.deposited.value == self.size:
                slot.complete_at.value = time.monotonic() + self.latency
                slot.cond.notify_all()
        return _ProcNbHandle(
            self, slot, seq, rank, op, arr.shape, on_consume=on_consume
        )


class ProcessComm(Comm):
    """Communicator bound to one rank of a :class:`ProcessWorld`."""

    def __init__(
        self,
        world: ProcessWorld,
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

    def _allgather_impl(self, tag: str, obj: Any) -> list:
        try:
            return self._world.exchange(
                self._rank, tag, obj, timeout=self._active_timeout
            )
        except CommTimeoutError:
            self.ledger.add_timeout()
            raise

    def _exchange_fold(self, tag: str, obj: Any, fold) -> Any:
        # the pickled slabs are private copies, so the fold is trivially
        # safe against send-buffer reuse; run it between the barriers for
        # symmetry with the thread backend
        try:
            return self._world.exchange(
                self._rank, tag, obj, fold=fold, timeout=self._active_timeout
            )
        except CommTimeoutError:
            self.ledger.add_timeout()
            raise

    def _nb_consumed_one(self, seq: int) -> None:
        self._nb_open.discard(seq)

    def _iallreduce_impl(self, tag: str, arr, op):
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
        self._nb_seq += 1
        handle = self._world.nb_post(
            self._rank, seq, tag, arr, op, timeout=self._active_timeout,
            on_consume=self._nb_consumed_one,
        )
        self._nb_open.add(seq)
        return handle


# -- job codec (for shipping a job to already-running workers) -------------
#
# The first job a worker ever sees rides fork inheritance (no encoding at
# all, exactly like the historical fork-and-join path), and a respawned
# worker likewise inherits the in-flight job through its fresh fork. Only a
# *subsequent* job dispatched to workers that are already parked has to
# cross a pipe; pickling covers module-level functions and most data, and
# the marshal fallback covers the lambdas/closures the repo's callers use.

def _encode_obj(value: Any) -> tuple:
    try:
        return ("pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        if isinstance(value, types.FunctionType):
            return ("code", _encode_code_fn(value))
        raise


def _encode_code_fn(fn: types.FunctionType) -> dict:
    closure = ()
    if fn.__closure__:
        closure = tuple(_encode_obj(c.cell_contents) for c in fn.__closure__)
    return {
        "code": marshal.dumps(fn.__code__),
        "module": fn.__module__,
        "name": fn.__name__,
        "closure": closure,
        "defaults": tuple(_encode_obj(d) for d in fn.__defaults__ or ()),
        "kwdefaults": {
            k: _encode_obj(v) for k, v in (fn.__kwdefaults__ or {}).items()
        },
    }


def _decode_obj(enc: tuple) -> Any:
    kind, payload = enc
    if kind == "pickle":
        return pickle.loads(payload)
    return _decode_code_fn(payload)


def _decode_code_fn(spec: dict) -> types.FunctionType:
    code = marshal.loads(spec["code"])
    mod = sys.modules.get(spec["module"])
    globs = mod.__dict__ if mod is not None else {"__builtins__": builtins}
    closure = tuple(types.CellType(_decode_obj(c)) for c in spec["closure"])
    defaults = tuple(_decode_obj(d) for d in spec["defaults"]) or None
    fn = types.FunctionType(code, globs, spec["name"], defaults, closure)
    if spec["kwdefaults"]:
        fn.__kwdefaults__ = {
            k: _decode_obj(v) for k, v in spec["kwdefaults"].items()
        }
    return fn


class RecoveryContext:
    """Per-rank view of the supervisor's recovery state for one attempt.

    The pool attaches one to every communicator it hands a job
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

    __slots__ = (
        "rank", "job_id", "attempt", "mode", "resume",
        "recoveries", "respawns", "replayed_iterations", "last_failure",
        "_report",
    )

    def __init__(
        self,
        rank: int,
        job_id: int,
        attempt: int,
        mode: str = "raise",
        resume: Any = None,
        recoveries: int = 0,
        respawns: int = 0,
        replayed_iterations: int = 0,
        last_failure: str | None = None,
        _report: Callable[[tuple], None] | None = None,
    ) -> None:
        self.rank = rank
        self.job_id = job_id
        self.attempt = attempt
        self.mode = mode
        self.resume = resume
        self.recoveries = recoveries
        self.respawns = respawns
        self.replayed_iterations = replayed_iterations
        self.last_failure = last_failure
        self._report = _report

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
        self._report(("ckpt", self.job_id, self.attempt, payload))


def _pool_worker_main(
    world: ProcessWorld,
    rank: int,
    send_end,
    send_lock,
    job_conn,
    machine: MachineSpec | None,
    cost_size: int | None,
    comm_timeout: float | None,
    first_job: tuple | None,
) -> None:
    """Persistent worker: run the inherited job, then park for more.

    ``first_job`` is ``(jid, attempt, ctx_state, fn, args)`` inherited by
    fork (so lambdas need no codec); subsequent jobs arrive on
    ``job_conn`` as ``("run", jid, attempt, ctx_state, fn_enc, args_enc)``
    with ``fn_enc=None`` meaning "re-run the job you already hold" (a
    survivor being redispatched after a recovery). ``None`` on the pipe —
    or a closed pipe — is an orderly shutdown.
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

    def execute(jid: int, attempt: int, ctx_state: dict, fn, args) -> None:
        comm = ProcessComm(
            world, rank, machine=machine, cost_size=cost_size,
            timeout=comm_timeout,
        )
        ctx = RecoveryContext(
            rank=rank, job_id=jid, attempt=attempt, _report=report,
            **ctx_state,
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
                report(("res", jid, attempt, rank, "err", exc, None))
            except (CommAborted, RankDiedError, KeyboardInterrupt):
                # a failed report cannot outrank the abort itself: die
                # loudly, the parent detects the rank via its sentinel
                raise
            except Exception:
                report(("res", jid, attempt, rank, "err",
                        CommError(repr(exc)), None))
            return
        try:
            report(("res", jid, attempt, rank, "ok", value, comm.ledger))
        except (CommAborted, RankDiedError, KeyboardInterrupt):
            raise
        except Exception as exc:  # unpicklable return value
            report(("res", jid, attempt, rank, "err", CommError(
                f"rank {rank} returned an unpicklable value: {exc!r}"
            ), None))

    cur_fn: Callable | None = None
    cur_args: tuple = ()
    if first_job is not None:
        jid, attempt, ctx_state, cur_fn, cur_args = first_job
        execute(jid, attempt, ctx_state, cur_fn, cur_args)
    while True:
        try:
            msg = job_conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg is None:
            os._exit(0)
        _, jid, attempt, ctx_state, fn_enc, args_enc = msg
        if fn_enc is not None:
            try:
                cur_fn = _decode_obj(fn_enc)
                cur_args = tuple(_decode_obj(a) for a in args_enc)
            except (CommAborted, RankDiedError, KeyboardInterrupt):
                raise
            except Exception as exc:
                world.abort()
                report(("res", jid, attempt, rank, "err", CommError(
                    f"rank {rank} could not decode the dispatched job: "
                    f"{exc!r}"
                ), None))
                continue
        if cur_fn is None:
            world.abort()
            report(("res", jid, attempt, rank, "err", CommError(
                f"rank {rank} was redispatched with no job held"
            ), None))
            continue
        execute(jid, attempt, ctx_state, cur_fn, cur_args)


class WorkerPool:
    """Persistent, supervised pool of forked SPMD workers.

    Workers are forked lazily at the first :meth:`run` (the first job —
    function, closure and all — rides fork inheritance, so lambdas work
    exactly as they always have), then *outlive the job*: after
    reporting, each worker parks on its job pipe waiting for the next
    ``(job_id, fn, payload)`` work item. The pool's supervisor loop owns
    the heartbeat watchdog and extends it from detect-and-abort to
    detect-respawn-rebarrier:

    * ``recover="raise"`` (default) — a failure surfaces exactly like
      the historical fork-and-join path: first real per-rank error, then
      :class:`~repro.errors.RankDiedError` for silent deaths, then the
      first abort echo.
    * ``recover="checkpoint"`` — on a rank death (or a collective
      deadline), the supervisor respawns the dead rank(s) by a fresh
      fork, rebuilds the shared collective state
      (:meth:`ProcessWorld.reset_for_reuse`), redispatches the job to
      every rank, and the job replays from the latest checkpoint it
      shipped up through :class:`RecoveryContext` — at most
      ``max_recoveries`` times per job, after which the final failure is
      raised as usual.

    ``timeout`` bounds one whole :meth:`run` call (all attempts
    included). Shut the pool down with :meth:`shutdown` (or use it as a
    context manager); shutdown is idempotent and leaves no orphans.
    """

    def __init__(
        self,
        size: int,
        *,
        machine: MachineSpec | None = None,
        cost_size: int | None = None,
        timeout: float | None = 120.0,
        latency: float = 0.0,
        slab_bytes: int = 1 << 22,
        nb_doubles: int = 1 << 19,
        comm_timeout: float | None = None,
        nb_depth: int = NB_RING_DEPTH,
    ) -> None:
        self.size = size
        self._machine = machine
        self._cost_size = cost_size
        self._timeout = timeout
        self._comm_timeout = comm_timeout
        self._world = ProcessWorld(
            size, slab_bytes=slab_bytes, nb_doubles=nb_doubles,
            latency=latency, nb_depth=nb_depth,
        )
        ctx = self._world._ctx
        self._ctx = ctx
        # report channel: one pipe, many writers serialized by a lock (the
        # public-API equivalent of SimpleQueue, which offers no timed poll)
        self._recv, self._send = ctx.Pipe(duplex=False)
        self._send_lock = ctx.Lock()
        self._procs: list = [None] * size
        self._job_w: list = [None] * size
        self._jid = 0
        self._started = False
        self._shut = False

    @property
    def world(self) -> ProcessWorld:
        return self._world

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self, rank: int, first_job: tuple | None) -> None:
        """Fork one worker; ``first_job`` rides fork inheritance."""
        job_r, job_w = self._ctx.Pipe(duplex=False)
        p = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                self._world, rank, self._send, self._send_lock, job_r,
                self._machine, self._cost_size, self._comm_timeout,
                first_job,
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

    def _retire_workers(self) -> None:
        """Orderly-stop every live worker (next dispatch forks fresh)."""
        for w in self._job_w:
            if w is not None:
                try:
                    w.send(None)
                except (OSError, BrokenPipeError, ValueError):
                    pass
        for p in self._procs:
            if p is not None:
                p.join(1.0)
        for p in self._procs:
            if p is not None and p.is_alive():
                p.terminate()
                p.join(1.0)
        self._procs = [None] * self.size

    def _dispatch(
        self, jid: int, attempt: int, ctx_state: dict, fn, args,
        survivors_hold_job: bool,
    ) -> None:
        """Hand one attempt to every rank.

        Dead or never-spawned ranks get a fresh fork with the job
        inherited; live (parked) ranks get a pipe message — encoded when
        they don't already hold this job, ``fn_enc=None`` when they do
        (recovery redispatch). If the job cannot cross a pipe (encoding
        failure), the live workers are retired and everything forks
        fresh — correctness over pool persistence.
        """
        live = [
            r for r in range(self.size)
            if self._procs[r] is not None and self._procs[r].is_alive()
            and not self._world._dead[r]
        ]
        fn_enc = args_enc = None
        if live and not survivors_hold_job:
            try:
                fn_enc = _encode_obj(fn)
                args_enc = tuple(_encode_obj(a) for a in args)
            except (CommAborted, RankDiedError, KeyboardInterrupt):
                raise
            except Exception:
                self._retire_workers()
                live = []
        for r in range(self.size):
            if r in live:
                self._job_w[r].send(
                    ("run", jid, attempt, ctx_state, fn_enc, args_enc)
                )
            else:
                self._spawn(r, (jid, attempt, ctx_state, fn, args))

    def shutdown(self) -> None:
        """Stop the supervisor and every worker; idempotent, no orphans."""
        if self._shut:
            return
        self._shut = True
        self._world.stop_watchdog()
        # wake anything still blocked in a collective, then ask parked
        # workers to exit; stragglers are terminated after a grace join
        self._world.abort()
        self._retire_workers()
        for w in self._job_w:
            if w is not None:
                try:
                    w.close()
                except OSError:
                    pass
        self._job_w = [None] * self.size
        try:
            self._recv.close()
            self._send.close()
        except OSError:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- supervisor loop ---------------------------------------------------
    def _collect(self, jid: int, attempt: int, deadline: float | None):
        """Collect one attempt's reports; returns per-rank outcome.

        Exits when every rank has reported, or when every *unreported*
        rank is dead and the report pipe is drained (survivors park
        alive after reporting, so "all procs dead" is no longer an exit
        condition). A blown deadline aborts the world and raises
        :class:`CommAborted` with today's message.
        """
        size = self.size
        values: list[Any] = [None] * size
        ledgers: list[CostLedger | None] = [None] * size
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
            if msg[0] == "ckpt":
                _, cjid, _cattempt, payload = msg
                if cjid == jid:
                    # send() is FIFO per attempt and attempts are
                    # sequential, so the last one received is the newest
                    ckpt = payload
                continue
            _, mjid, mattempt, r, status, payload, ledger = msg
            if mjid != jid or mattempt != attempt:
                continue  # stale report from a pre-recovery attempt
            reported[r] = True
            if status == "ok":
                values[r] = payload
                ledgers[r] = ledger
            else:
                errors[r] = payload
            if all(reported):
                break
        return values, ledgers, errors, reported, ckpt

    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence = (),
        recover: str = "raise",
        max_recoveries: int = 2,
    ) -> SpmdResult:
        """Run ``fn(comm, rank, *args)`` as one supervised job.

        Returns the same :class:`SpmdResult` as the historical
        fork-and-join path; under ``recover="checkpoint"`` a rank death
        or collective deadline triggers up to ``max_recoveries``
        respawn-and-replay rounds before the failure is raised.
        """
        if self._shut:
            raise CommError("WorkerPool has been shut down")
        if recover not in ("raise", "checkpoint"):
            raise CommError(
                f"recover must be 'raise' or 'checkpoint', got {recover!r}"
            )
        self._jid += 1
        jid = self._jid
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
        args = tuple(args)
        while True:
            ctx_state = {
                "mode": recover,
                "resume": ckpt,
                "recoveries": recoveries,
                "respawns": respawns,
                "replayed_iterations": replayed,
                "last_failure": last_failure,
            }
            if self._started:
                # between attempts (and between jobs) every live worker
                # is parked outside any collective, so the shared state
                # can be rebuilt safely; the watchdog is restarted fresh
                # because it exits on its own once the world aborts
                self._world.stop_watchdog()
                self._world.reset_for_reuse()
            self._dispatch(
                jid, attempt, ctx_state, fn, args,
                survivors_hold_job=attempt > 0,
            )
            self._started = True
            # heartbeat: a killed child is marked dead (aborting the
            # world) within one watchdog interval, independently of the
            # report-poll loop
            self._world.start_watchdog(self._procs)
            values, ledgers, errors, reported, new_ckpt = self._collect(
                jid, attempt, deadline
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
                dead = sorted(set(dead_unreported) | {
                    r for r in range(self.size)
                    if self._world._dead[r]
                    or (self._procs[r] is not None
                        and not self._procs[r].is_alive())
                })
                self._world.stop_watchdog()
                for r in dead:
                    p = self._procs[r]
                    if p is not None:
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
                    units = ckpt.get("iteration")
                    if units is None:
                        units = ckpt.get("completed")
                    if units is None:
                        units = ckpt.get("events_applied")
                    if units is None:
                        units = ckpt.get("requests_done")
                    replayed += int(units or 0)
                attempt += 1
                continue
            # raise path: today's precedence, bit-for-bit
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
    *return value* must be picklable. Execution runs through a one-job
    :class:`WorkerPool` (shut down on exit, success or not).

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
    requests any rank may hold (bounded-staleness solvers need
    ``tau + 2``); exceeding it raises
    :class:`~repro.errors.NbRingDepthError` instead of deadlocking.

    ``recover="checkpoint"`` turns a rank death (or collective deadline)
    into a supervised recovery: the dead rank is respawned, the shared
    collective state rebuilt, and the job redispatched to every rank,
    resuming from the latest checkpoint it shipped through
    ``comm.recovery`` (:class:`RecoveryContext`) — at most
    ``max_recoveries`` times, after which the failure raises as usual.
    The ``recoveries``/``respawns``/``replayed_iterations`` counters land
    in every returned ledger. The default ``recover="raise"`` preserves
    the historical behavior exactly.

    Children install signal handlers before running ``fn``: SIGTERM
    aborts the world and exits immediately, SIGINT is ignored (the
    parent coordinates Ctrl-C teardown through its ``finally`` path), so
    an interrupted run leaves no orphan processes.

    Raises the first per-rank exception (rank order) if any rank failed;
    a killed rank raises :class:`~repro.errors.RankDiedError` (on the
    survivors and in the parent), hung ranks raise :class:`CommAborted`.
    """
    pool = WorkerPool(
        size,
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
        return pool.run(
            fn, args=args, recover=recover, max_recoveries=max_recoveries
        )
    finally:
        pool.shutdown()
