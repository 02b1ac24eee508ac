"""The outer-step loops of the SA solvers (paper Alg. 2 and Alg. 4).

Every SA method repeats the same outer step: sample ``s`` blocks, run
one packed Gram reduction, then make ``s`` local updates. The families
(``sa_bcd``, ``sa_acc_bcd``, ``sa_dcd``) differ only in what they
sample, reduce and update, so each builds its state
(:class:`~repro.solvers.base.FamilyState`) and calls :func:`run_sa`,
which owns the schedule. The loops call these methods of the state
``fam``:

* ``fam.plan(k)`` draws one outer step of ``k`` iterations and returns
  ``(idx, batch)``: the flat sampled indices the reduction packs, and
  whatever the inner loop needs to walk them;
* ``fam.gram(idx, tail)`` (blocking schedule only) samples ``idx`` and
  runs the blocking packed Gram reduction, returning ``(Y, G, R)``;
  ``tail`` is a record's partials to carry (see below) or ``None``;
* ``fam.step(batch, Y, G, R)`` runs the inner loop and returns the
  number of iterations it made;
* ``fam.probe(it)`` pins a record to the current iterate (see
  :class:`Checks`);
* ``fam.pipeline(depth)`` (ring schedule only) opens a
  :class:`~repro.linalg.distmatrix.GramPipeline` of ``depth`` slots,
  and ``fam.arrays()`` lists the local arrays each post packs;
* ``fam.checkpoint(done)`` returns a resumable checkpoint payload of
  the state at boundary ``done``. Both loops take one at the outer-step
  boundary that crosses each multiple of ``checkpoint_every`` (0:
  never), and never once converged, and hand it to :class:`Checks` for
  delivery.

Two schedules use them. :func:`run_blocking` waits on each reduction.
:func:`run_ring` posts reductions through the pipeline, keeps
``tau + 1`` in flight and harvests the oldest, so outer step ``k``
steps on data up to ``tau`` steps stale. At ``tau = 0`` the ring is the
pipelined schedule: the next step is sampled and Gram-packed while the
current reduction is in flight, and the iterates equal the blocking
schedule's bit for bit.

:func:`run_sa` also builds the solve's :class:`Checks`, which holds the
convergence records. A record (a metric stored in ``history`` and
tested against ``tol``: the Lasso objective, the SVM duality gap) is
due at the outer-step boundary that crosses each multiple of
``record_every`` — the checkpoint rule — and at ``max_iter``. Its value
needs partial sums from every rank (Lasso: ``||r_local||^2``; SVM:
``A_p x_p`` and ``||x_p||^2``, m + 1 words), which ride as a tail on the
next Gram reduction posted after the boundary, charged as part of that
message; every schedule posts it before any inner loop moves the
iterate. The record is committed when that reduction completes, one
reduction late, against the iterate pinned at its boundary and with the
modelled-cost readings taken there. A solve therefore makes one blocking
collective per outer step, plus the family's own ledger-paused record
syncs (Lasso: a scalar allreduce; SVM: an m-word Allreduce and a scalar
allreduce) for iteration 0, for the final iterate, and for records no
later reduction carries (the async schedule's last ``tau`` outer
steps). The blocking and pipelined schedules test a record against
``tol`` before the next inner loop runs, so a converged solve returns
exactly the iterate its converged record describes and pays for one
Gram reduction it never uses; the async schedule harvests that
reduction ``tau`` steps later and stops at most ``tau`` outer steps
past the converged record.
A checkpoint is delivered once every record before its boundary is in
its history — at once under the blocking and pipelined schedules, up to
``tau`` outer steps late under the async one — so a resumed run's
history holds every record the interrupted run took up to its
checkpoint.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.checkpoint import emit_solver_checkpoint, solver_history_fields
from repro.errors import CommError, SolverError
from repro.mpi.thread_backend import NB_RING_DEPTH

__all__ = ["Checks", "check_schedule", "sweep_schedule", "ring_depth",
           "run_sa", "run_blocking", "run_ring"]


def check_schedule(s: int, tau: int, pipeline: bool, async_: bool, *,
                   sa: bool = True, solver: str = "") -> None:
    """Validate a single solve's outer-step knobs. A solver that is not
    SA (``sa=False``, named ``solver``) synchronises every iteration, so
    it takes neither ``pipeline`` nor ``async_`` and ignores ``s``."""
    if not sa and (pipeline or async_):
        knob = "pipeline" if pipeline else "async_"
        raise SolverError(
            f"{knob}=True needs an SA solver (one reduction per s iterations"
            f" to overlap); {solver!r} synchronises every iteration"
        )
    if tau < 0:
        raise SolverError(f"tau must be >= 0, got {tau}")
    if async_ and pipeline:
        raise SolverError(
            "async_=True and pipeline=True are mutually exclusive: "
            "pipelining is the tau=0 special case of async_"
        )
    if sa and s < 1:
        raise SolverError(f"s must be >= 1, got {s}")


def sweep_schedule(solver: str, pipeline: bool, async_: bool,
                   cost_size: int) -> tuple[bool, bool]:
    """The ``(pipeline, async_)`` each solve of a sweep runs on a
    communicator of ``cost_size`` modelled ranks.

    Engines that run a sequence of solves (paths, streams, serve
    tenants) read ``pipeline`` as "overlap each SA solve's Gram
    reduction where there is one to overlap": an SA solver (a registry
    name starting ``sa-``) on more than one rank runs the ``tau = 0``
    ring, whose iterates, messages and words equal the blocking
    schedule's. One rank has nothing to overlap (its reductions move no
    data and are charged nothing), and a classical solver synchronises
    every iteration, so both run blocking. ``async_`` takes precedence
    and runs the async ring. Unlike :func:`check_schedule`, which guards
    single solves, ``pipeline`` never raises here.
    """
    ring = pipeline and not async_ and solver.startswith("sa-") and cost_size > 1
    return bool(ring), bool(async_)


def ring_depth(async_: bool, tau: int) -> int:
    """Nonblocking slots an SA solve's ring needs: ``tau + 1`` reductions
    in flight under ``async_`` (one under ``pipeline``) plus the slot the
    next post packs into. Thread and process worlds size their
    ``nb_depth`` with it."""
    return (tau if async_ else 0) + NB_RING_DEPTH


def _crossed(prev_done: int, done: int, every: int) -> bool:
    return bool(every) and done // every != prev_done // every


class Checks:
    """The convergence records and checkpoints of one SA solve ``fam``
    (a :class:`~repro.solvers.base.FamilyState`), at outer-step
    boundaries; each record is folded into the next Gram reduction.

    ``fam.probe(it)`` pins a record to the current iterate (iteration
    ``it``): it returns ``(tail, value)``. ``tail()`` builds this rank's
    partials of the record, called only when a reduction will carry them
    (Lasso: ``[||r_local||^2]``; SVM: ``[A_p x_p, ||x_p||^2]``, m + 1
    words); ``value(total)`` is the record's value from those partials
    summed across ranks (``None``: sync them on its own now).
    ``record_every = 0`` takes no record past the first. The history
    must already hold its first row; a run resumed from a checkpoint
    taken with a record pending — its history stops short of a multiple
    of ``record_every`` at or before the resumed iteration — makes that
    record due at its first boundary (:meth:`at_boundary`). Checkpoints
    go to ``fam.checkpoint_sink`` (see
    :func:`repro.checkpoint.emit_solver_checkpoint`).
    """

    def __init__(self, fam) -> None:
        self._fam = fam
        self.every = int(fam.record_every)
        self.max_iter = int(fam.max_iter)
        # the latest iteration recorded or pending
        self._last = fam.history.iterations[-1]
        # records in iteration order: [it, reading, value, value(total)]
        self._queue: deque = deque()
        # the latest pending record's tail, not yet posted
        self._tail: np.ndarray | None = None
        # checkpoint payloads waiting for older records to land
        self._held: deque = deque()

    def at_boundary(self, prev_done: int, done: int, carried: bool) -> bool:
        """Take the record, then the checkpoint, due at boundary ``done``
        (the previous one was ``prev_done``).

        ``carried`` says whether a Gram reduction is posted after this
        boundary to carry the record; without one it is evaluated now.
        Returns True when a record committed here met ``tol``; no
        checkpoint is taken then.
        """
        fam = self._fam
        if self.every and done != self._last and (
            done == self.max_iter or _crossed(self._last, done, self.every)
        ):
            self._last = done
            tail, value = fam.probe(done)
            reading = fam.history.reading(fam.comm)
            if carried:
                self._tail = tail()
                self._queue.append([done, reading, value, None])
            else:
                self._queue.append([done, reading, value, value(None)])
                if self._commit():
                    return True
        if _crossed(prev_done, done, fam.checkpoint_every):
            self._hold(fam.checkpoint(done))
        return False

    def take(self) -> np.ndarray | None:
        """The tail the next posted reduction carries, or ``None``."""
        tail, self._tail = self._tail, None
        return tail

    def landed(self, tail: np.ndarray) -> bool:
        """A reduction carrying ``tail`` completed (``tail`` holds the
        sums now); returns True when a record committed here met ``tol``."""
        for rec in self._queue:
            if rec[3] is None:
                rec[3] = rec[2](tail)
                break
        return self._commit()

    def _hold(self, payload: dict) -> None:
        """Deliver ``payload``, a checkpoint of the state at its
        ``iteration``, once every record before that iteration is in
        history: at once under the blocking and pipelined schedules, up
        to ``tau`` outer steps later under the async one, whose older
        records are still in flight. The boundary's own record may stay
        pending (see the class docstring). A solve that converges first
        drops it."""
        self._held.append(payload)
        self._deliver()

    def _deliver(self) -> None:
        fam = self._fam
        while self._held and not (
            self._queue and self._queue[0][0] < self._held[0]["iteration"]
        ):
            payload = self._held.popleft()
            payload.update(solver_history_fields(fam.term, fam.history))
            emit_solver_checkpoint(payload, fam.checkpoint_sink, fam.comm.rank)

    def _commit(self) -> bool:
        # commit in iteration order: an async run can evaluate a record
        # at its boundary while older ones are still in flight
        while self._queue and self._queue[0][3] is not None:
            self._deliver()
            it, reading, _, value = self._queue.popleft()
            self._fam.history.append(it, value, reading)
            if self._fam.term.done(value):
                self._queue.clear()
                self._held.clear()
                return True
        self._deliver()
        return False


def run_sa(fam, *, s: int, pipeline: bool, async_: bool, tau: int):
    """Run one SA solve of state ``fam`` and return its
    :class:`~repro.solvers.base.SolverResult`: validate the schedule,
    :meth:`~repro.solvers.base.FamilyState.start` (resume or the first
    record), run the blocking loop or the ring (``pipeline``, or
    ``async_`` at staleness ``tau``) until ``max_iter`` or ``tol``, then
    :meth:`~repro.solvers.base.FamilyState.finish`."""
    check_schedule(s, tau, pipeline, async_)
    done, converged = fam.start()
    if not converged:
        checks = Checks(fam)
        if async_ or pipeline:
            pipe = fam.pipeline(ring_depth(async_, tau))
            converged, done = run_ring(fam, checks, pipe, done=done, s=s,
                                       tau=tau if async_ else 0)
        else:
            converged, done = run_blocking(fam, checks, done=done, s=s)
    return fam.finish(done, converged)


def run_blocking(fam, checks, *, done, s):
    """One blocking reduction per outer step; returns ``(converged, done)``."""
    max_iter = fam.max_iter
    converged = checks.at_boundary(done, done, done < max_iter)
    while done < max_iter and not converged:
        idx, batch = fam.plan(min(s, max_iter - done))
        tail = checks.take()
        Y, G, R = fam.gram(idx, tail)
        if tail is not None and checks.landed(tail):
            return True, done
        prev_done = done
        done += fam.step(batch, Y, G, R)
        converged = checks.at_boundary(prev_done, done, done < max_iter)
    return converged, done


def run_ring(fam, checks, pipe, *, done, s, tau):
    """Keep ``tau + 1`` reductions of ``fam.arrays()`` in flight on
    ``pipe``.

    The arrays are updated in place by ``fam.step``; each post packs
    their values at post time. ``pipe`` needs ``tau + 2`` slots. Returns
    ``(converged, done)``.

    Every exit drains the reductions still in flight, so the
    communicator's next solve finds the ring clear: a converged stop,
    and an exception raised inside the ring (a Gram that overflows
    float64, say), which then propagates unchanged. A communication
    error skips the drain, since a dead or out-of-step peer cannot
    complete it.
    """
    max_iter = fam.max_iter
    arrays = fam.arrays()
    converged = checks.at_boundary(done, done, done < max_iter)
    # warmup: batch 0 fresh, batches 1..tau posted with the same initial
    # arrays (they will be min(j, tau) steps stale when harvested);
    # `planned` counts iterations already committed to in-flight batches
    # so the last batch is sized to max_iter
    planned = done
    inflight = []  # FIFO of (batch, slot, tail); oldest harvested first
    try:
        while len(inflight) <= tau and planned < max_iter:
            k = min(s, max_iter - planned)
            idx, batch = fam.plan(k)
            slot = pipe.prefetch(idx)
            tail = checks.take()
            pipe.post(slot, arrays, tail)
            inflight.append((batch, slot, tail))
            planned += k
        while inflight:
            nxt = nslot = None
            if planned < max_iter:
                # overlapped with the in-flight reductions: sample + pack the
                # next outer step's (array-independent) Gram
                k = min(s, max_iter - planned)
                nidx, nxt = fam.plan(k)
                nslot = pipe.prefetch(nidx)
                planned += k
            batch, slot, tail = inflight.pop(0)
            Y, G, R = pipe.wait(slot)
            if tail is not None and checks.landed(tail):
                converged = True
                break
            prev_done = done
            done += fam.step(batch, Y, G, R)
            # completing this step supersedes the arrays carried by every
            # reduction still in flight: age them one harvest point
            for _, pending, _ in inflight:
                pending.req.bump_staleness()
            converged = checks.at_boundary(prev_done, done, nxt is not None)
            if converged:
                break
            if nxt is not None:
                tail = checks.take()
                pipe.post(nslot, arrays, tail)
                inflight.append((nxt, nslot, tail))
    except CommError:
        # an aborted world or ranks out of step: no drain can complete
        inflight.clear()
        raise
    finally:
        # drain: reductions posted but never consumed still moved real
        # traffic (charged at finalize) and must clear the ring so the
        # communicator is reusable (path sweeps, streaming, serve)
        for _, pending, _ in inflight:
            pending.req.wait()
            pending.req = None
    return converged, done
