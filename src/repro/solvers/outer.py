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
* ``fam.gram(idx, tail, priced)`` (blocking schedule only) samples
  ``idx`` and runs the blocking packed Gram reduction, returning
  ``(Y, G, R)``; ``tail`` is a record's partials to carry (see below) or
  ``None``, and ``priced`` says whether the ledger charges its words;
* ``fam.step(batch, Y, G, R)`` runs the inner loop, records the step's
  update in ``fam.update`` and returns the number of iterations it made;
* ``fam.correct(R, pairs)`` (ring schedule only) brings projections
  ``R`` posted before some steps ran up to date: ``pairs`` holds, per
  such step, the summed cross Gram of the two blocks and that step's
  ``fam.update``;
* ``fam.probe(it)`` pins a record to the current iterate (see
  :class:`Checks`), and ``fam.exchange(tails)`` sums the partials of
  the records no reduction carried in one closing exchange;
* ``fam.pipeline(depth)`` (ring schedule only) opens a
  :class:`~repro.linalg.distmatrix.GramPipeline` of ``depth`` slots,
  and ``fam.arrays()`` lists the local arrays each post packs;
* ``fam.checkpoint(done)`` returns a resumable checkpoint payload of
  the state at boundary ``done``. Both loops take one at the outer-step
  boundary that crosses each multiple of ``checkpoint_every`` (0:
  never), and never once converged, and hand it to :class:`Checks` for
  delivery.

Two schedules use them. :func:`run_blocking` waits on each reduction.
:func:`run_ring` posts reductions through the pipeline, keeps up to
``tau + 1`` in flight and harvests the oldest, so the inner loop of
outer step ``k`` runs while the reductions of steps ``k + 1`` to
``k + tau`` are in transit. A reduction posted before some steps ran
also carries the cross Grams of its block with theirs, and the harvest
adds their updates through them to its stale projections (for plain
BCD ``Y_jᵀr_j = Y_jᵀr_{j-i} + Σ_t Y_jᵀY_t Δ_t``): every ``tau``
reproduces the blocking iterates to rounding. At ``tau = 0`` the ring is
the pipelined schedule: the next step is sampled and Gram-packed while
the current reduction is in flight, no cross Gram is needed, and the
iterates equal the blocking schedule's bit for bit. Above the SA
solvers, a :class:`Schedule` value names the one a solve runs.

:func:`run_sa` also builds the solve's :class:`Checks`, which holds the
convergence records. A record (a metric stored in ``history`` and
tested against ``tol``: the Lasso objective, the SVM duality gap) is
due at iteration 0 of a fresh solve, at the outer-step boundary that
crosses each multiple of ``record_every`` — the checkpoint rule — and
at ``max_iter``. Its value needs partial sums from every rank (Lasso:
``||r_local||^2``; SVM: ``A_p x_p`` and ``||x_p||^2``, m + 1 words),
which ride as a tail on the next Gram reduction posted after the
boundary; every schedule posts it before any inner loop moves the
iterate. A later record's tail is charged as part of that message.
Iteration 0's rides the first reduction unpriced: the ledger charges
that message at its Gram-plus-projection length, as it charged nothing
for the ledger-paused sync the tail replaces. The record is committed
when that reduction completes, against the iterate pinned at its
boundary and with the modelled-cost readings taken there. Records no
later reduction carries — the final iterate's, and under ``tau >= 1``
those of the last ``tau`` outer steps — ride one ledger-paused closing
exchange after the loop (Lasso: one allreduce of their words, a scalar
one for a single record; SVM: one Allgather that also gathers the
primal the result returns). A solve therefore makes one collective per
outer step plus exactly one closing exchange, whatever ``tau`` is.

With ``tol`` set, a converged solve returns exactly the iterate, history
and iteration count its converged record describes. The blocking and
pipelined schedules test a record against ``tol`` before the next inner
loop runs, and pay for one Gram reduction they never use; the ring at
``tau >= 1`` learns a record ``tau`` outer steps later, so it restores
the iterate pinned at that record's boundary, and the work of the steps
it ran past it stays charged. No schedule tests ``tol`` before its
first reduction, so a warm start that already meets it returns 0
iterations having paid for the reductions posted before its
iteration-0 record lands: one under the blocking and pipelined
schedules, ``tau + 1`` under the ring at ``tau >= 1``. A checkpoint is
delivered once every record before its boundary is in its history — at
once under the blocking and pipelined schedules, up to ``tau`` outer
steps late otherwise — so a resumed run's history holds every record
the interrupted run took up to its checkpoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.checkpoint import emit_solver_checkpoint, solver_history_fields
from repro.errors import CommError, SolverError
from repro.linalg.packing import packed_length
from repro.mpi.thread_backend import NB_RING_DEPTH

__all__ = ["Schedule", "SWEEP_SCHEDULE", "Checks", "run_sa", "run_blocking",
           "run_ring"]


@dataclass(frozen=True)
class Schedule:
    """When an SA solve waits on its outer steps' Gram reductions:
    ``Schedule()`` blocks on each one; ``Schedule(ring=True)`` is the
    pipelined ring, which samples and packs the next outer step while the
    current reduction is in flight (iterates equal blocking's bit for
    bit); ``Schedule(ring=True, tau=tau)``, ``tau >= 1``, is the async
    ring, which keeps up to ``tau + 1`` reductions in flight so each
    inner loop runs while the next ``tau`` reductions are in transit.
    Its reductions carry the cross Grams that bring their projections
    up to date, ``tau * k^2`` more words per post at ``k = s * mu``
    sampled columns (rows for SVM), so its iterates equal blocking's to
    rounding. The async ring at ``tau = 0`` is the pipelined ring, so
    there is no fourth value. Single solves default to blocking
    (:meth:`check`); sweeps to :data:`SWEEP_SCHEDULE`, resolved per
    solve (:meth:`for_sweep`).
    """

    ring: bool = False
    tau: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.ring, bool) and type(self.tau) is int
                and self.tau >= 0 and (self.ring or not self.tau)):
            raise SolverError(
                f"a Schedule is blocking, ring=True, or ring=True with an"
                f" integer tau >= 1; got ring={self.ring!r}, tau={self.tau!r}"
            )

    def __str__(self) -> str:
        if self.tau:
            return f"async ring (tau={self.tau})"
        return "pipelined ring" if self.ring else "blocking"

    @classmethod
    def from_flags(cls, pipeline: bool, async_: bool, tau: int) -> "Schedule":
        """The schedule the CLI's flags, a report's or a sweep
        checkpoint's keys name: ``async_`` wins over ``pipeline``, and
        ``tau`` is checked even when ``async_`` is off."""
        if tau < 0:
            raise SolverError(f"tau must be >= 0, got {tau}")
        return cls(ring=bool(pipeline or async_), tau=tau if async_ else 0)

    @property
    def is_async(self) -> bool:
        return self.tau > 0

    @property
    def depth(self) -> int:
        """Nonblocking slots (``nb_depth``) a solve needs: ``tau + 1``
        reductions in flight, and never fewer than the backends'
        double-buffered default."""
        return max(self.tau + 1, NB_RING_DEPTH)

    def knobs(self) -> dict:
        """The SA solvers' ``pipeline``/``async_``/``tau`` keywords."""
        return {"pipeline": self.ring and not self.tau,
                "async_": self.is_async, "tau": self.tau}

    def report(self) -> dict:
        """The ``pipeline``/``async``/``tau`` a report records."""
        return {"pipeline": self.ring and not self.tau,
                "async": self.is_async, "tau": self.tau}

    def flags(self) -> dict:
        """The ``pipeline`` (any ring), ``async_`` and ``tau`` a sweep
        checkpoint stores, read back by :meth:`from_flags`."""
        return {"pipeline": self.ring, "async_": self.is_async, "tau": self.tau}

    def check(self, solver: str, *, sa: bool, s: int) -> None:
        """Validate a single solve of ``solver``; a classical solver has
        no reduction for a ring to overlap, and ignores ``s``."""
        if self.ring and not sa:
            raise SolverError(
                f"the {self} needs an SA solver (one reduction per s"
                f" iterations to overlap); {solver!r} synchronises every"
                f" iteration"
            )
        if sa and s < 1:
            raise SolverError(f"s must be >= 1, got {s}")

    def for_sweep(self, sa: bool, comm, *, k: int, tail: int,
                  tol: float | None) -> "Schedule":
        """The schedule a sweep's solve runs on ``comm``, sampling ``k``
        slices per outer step (``s * mu`` columns, or ``s`` rows for SVM)
        with record tails of ``tail`` words.

        A ring only for an SA solver (``sa``, its registry flag) on more
        than one modelled rank, since one rank's reductions are charged
        nothing and a classical solver syncs every iteration; blocking
        otherwise. The async ring computes the pipelined ring's iterates
        to rounding and hides each inner loop behind the next reduction,
        so a fixed-budget sweep keeps it, paying ``tau * k^2`` more words
        per post for its cross Grams, and runs the pipelined ring instead
        when:

        * ``tol`` is set: the async ring learns a converged record
          ``tau`` outer steps late, and the steps and reductions it ran
          past it are charged, a large share of a warm solve's few;
        * or its largest post would not fit the backend's nonblocking
          slot (:meth:`~repro.mpi.comm.Comm.payload_fits`).

        Every input is the same on every rank, so the ranks agree.
        """
        if not self.ring or not (sa and comm.cost_size > 1):
            return Schedule()
        if self.tau:
            # the largest post: a full Gram, two projections, the cross
            # Grams and a record tail
            worst = packed_length(k, 2, False) + self.tau * k * k + tail
            if tol is not None or not comm.payload_fits(worst, nonblocking=True):
                return Schedule(ring=True)
        return self


#: the schedule every sweep (``lasso_path``, ``svm_path``,
#: ``StreamingSweep`` and so ``replay_schedule`` and the serve tenants,
#: and the CLI's sweep commands) runs by default: the async ring at
#: ``tau = 1``, which overlaps each inner loop with the next reduction's
#: transit and needs the backends' default ring of two slots, on the
#: fixed budgets where :meth:`Schedule.for_sweep` keeps it
SWEEP_SCHEDULE = Schedule(ring=True, tau=1)


def _crossed(prev_done: int, done: int, every: int) -> bool:
    return bool(every) and done // every != prev_done // every


class Checks:
    """The convergence records and checkpoints of one SA solve ``fam``
    (a :class:`~repro.solvers.base.FamilyState`), at outer-step
    boundaries; each record is folded into the next Gram reduction, or
    into the solve's closing exchange when no later reduction is posted.

    ``fam.probe(it, pin)`` pins a record to the current iterate
    (iteration ``it``): it returns ``(tail, value, restore)``. ``tail()`` builds this
    rank's partials of the record, called at the boundary (Lasso:
    ``[||r_local||^2]``; SVM: ``[A_p x_p, ||x_p||^2]``, m + 1 words);
    ``value(total)`` is the record's value from those partials summed
    across ranks (``None``: sync them on its own now); with ``pin``
    (``rewinds``: a ``tol``-stopped ring at ``tau >= 1``, which may run
    past its converged record) ``restore()`` puts the iterate pinned there
    back, and ``restore`` is ``None`` otherwise. ``fam.exchange(tails)`` sums the partials of the
    records no reduction carried, in one closing exchange (:meth:`close`).

    A fresh solve's history starts empty: its iteration-0 record is
    taken at the first boundary whatever ``record_every`` is, and rides
    the first post unpriced (:meth:`take`). ``record_every = 0`` takes
    no record past that one. A run resumed from a checkpoint taken with
    a record pending — its history stops short of a multiple of
    ``record_every`` at or before the resumed iteration — makes that
    record due at its first boundary (:meth:`at_boundary`), priced.
    Checkpoints go to ``fam.checkpoint_sink`` (see
    :func:`repro.checkpoint.emit_solver_checkpoint`).
    """

    def __init__(self, fam, rewinds: bool = False) -> None:
        self._fam = fam
        self._rewinds = rewinds
        self.every = int(fam.record_every)
        self.max_iter = int(fam.max_iter)
        # the latest iteration recorded or pending; None until a fresh
        # solve's iteration-0 record is taken
        self._last = fam.history.iterations[-1] if len(fam.history) else None
        # records in iteration order: [it, reading, value, value(total),
        # restore, the tail the closing exchange carries or None]
        self._queue: deque = deque()
        # the latest pending record's tail, not yet posted, and whether
        # the ledger prices its words
        self._tail: np.ndarray | None = None
        self._priced = True
        # checkpoint payloads waiting for older records to land
        self._held: deque = deque()
        # (iteration, restore) of the record that met tol
        self._stop = None

    def at_boundary(self, prev_done: int, done: int, carried: bool) -> None:
        """Take the record, then the checkpoint, due at boundary ``done``
        (the previous one was ``prev_done``).

        ``carried`` says whether a Gram reduction is posted after this
        boundary to carry the record; without one it rides the closing
        exchange.
        """
        fam = self._fam
        first = self._last is None
        if first or (self.every and done != self._last and (
            done == self.max_iter or _crossed(self._last, done, self.every)
        )):
            self._last = done
            tail, value, restore = fam.probe(done, self._rewinds)
            self._queue.append([done, fam.history.reading(fam.comm), value,
                                None, restore, None if carried else tail()])
            if carried:
                self._tail, self._priced = tail(), not first
        if _crossed(prev_done, done, fam.checkpoint_every):
            self._hold(fam.checkpoint(done))

    def take(self) -> tuple:
        """``(tail, priced)``: the tail the next posted reduction carries
        (``None``: none), and whether the ledger prices its words."""
        tail, self._tail = self._tail, None
        return tail, self._priced

    def landed(self, tail: np.ndarray) -> bool:
        """A reduction carrying ``tail`` completed (``tail`` holds the
        sums now); returns True when a record committed here met ``tol``."""
        for rec in self._queue:
            if rec[3] is None:
                rec[3] = rec[2](tail)
                break
        return self._commit()

    def close(self) -> bool:
        """Sum the partials of the records no reduction carried in one
        closing exchange and commit them; returns True when one met
        ``tol``."""
        recs = [rec for rec in self._queue if rec[5] is not None]
        if not recs:
            return False
        totals = self._fam.exchange([rec[5] for rec in recs])
        for rec, total in zip(recs, totals, strict=True):
            rec[3] = rec[2](total)
        return self._commit()

    def rewind(self, done: int) -> int:
        """The iteration count a converged solve at ``done`` returns: its
        converged record's, with the iterate pinned there restored when
        the solve ran past it."""
        it, restore = self._stop
        if it != done:
            restore()
        return it

    def _hold(self, payload: dict) -> None:
        """Deliver ``payload``, a checkpoint of the state at its
        ``iteration``, once every record before that iteration is in
        history (and at ``max_iter`` the final one, after the closing
        exchange): at once under the blocking and pipelined schedules, up
        to ``tau`` outer steps later under the ring at ``tau >= 1``, whose
        older records are still in flight. The boundary's own record may
        stay pending (see the class docstring). A solve that converges
        first drops it."""
        self._held.append(payload)
        self._deliver()

    def _waits(self, it: int) -> bool:
        """Whether a checkpoint at ``it`` waits: for a record before it,
        or at ``max_iter`` for the final iterate's record, which the
        closing exchange carries."""
        return any(rec[0] < it or rec[0] == it == self.max_iter
                   for rec in self._queue)

    def _deliver(self) -> None:
        fam = self._fam
        while self._held and not self._waits(self._held[0]["iteration"]):
            payload = self._held.popleft()
            payload.update(solver_history_fields(fam.term, fam.history))
            emit_solver_checkpoint(payload, fam.checkpoint_sink, fam.comm.rank)

    def _commit(self) -> bool:
        # commit in iteration order: the ring at tau >= 1 takes a record
        # at its boundary while older ones are still in flight
        while self._queue and self._queue[0][3] is not None:
            self._deliver()
            it, reading, _, value, restore, _ = self._queue.popleft()
            self._fam.history.append(it, value, reading)
            if self._fam.term.done(value):
                self._queue.clear()
                self._held.clear()
                self._stop = (it, restore)
                return True
        self._deliver()
        return False


def run_sa(fam, *, s: int, pipeline: bool, async_: bool, tau: int):
    """Run one SA solve of state ``fam`` and return its
    :class:`~repro.solvers.base.SolverResult`: validate the schedule,
    :meth:`~repro.solvers.base.FamilyState.start` (fresh iterates, whose
    first record :class:`Checks` takes, or a resume), run the blocking
    loop or the ring (``pipeline``, or ``async_`` at depth ``tau``)
    until ``max_iter`` or ``tol``, make the closing exchange, then
    :meth:`~repro.solvers.base.FamilyState.finish`."""
    if async_ and pipeline:
        raise SolverError(
            "async_=True and pipeline=True are mutually exclusive: "
            "pipelining is the tau=0 special case of async_"
        )
    Schedule.from_flags(pipeline, async_, tau).check("", sa=True, s=s)
    done, _ = fam.start(record=False)
    checks = Checks(fam, rewinds=async_ and tau > 0 and fam.tol is not None)
    if async_ or pipeline:
        tau = tau if async_ else 0
        # tau + 1 reductions in flight, the slot the next step packs
        # into, and the block the running inner loop reads
        pipe = fam.pipeline(tau + 2)
        converged, done = run_ring(fam, checks, pipe, done=done, s=s, tau=tau)
    else:
        converged, done = run_blocking(fam, checks, done=done, s=s)
    converged = converged or checks.close()
    if converged:
        done = checks.rewind(done)
    return fam.finish(done, converged)


def run_blocking(fam, checks, *, done, s):
    """One blocking reduction per outer step; returns ``(converged, done)``."""
    max_iter = fam.max_iter
    checks.at_boundary(done, done, done < max_iter)
    while done < max_iter:
        idx, batch = fam.plan(min(s, max_iter - done))
        tail, priced = checks.take()
        Y, G, R = fam.gram(idx, tail, priced)
        if tail is not None and checks.landed(tail):
            return True, done
        prev_done = done
        done += fam.step(batch, Y, G, R)
        checks.at_boundary(prev_done, done, done < max_iter)
    return False, done


def run_ring(fam, checks, pipe, *, done, s, tau):
    """Keep up to ``tau + 1`` reductions of ``fam.arrays()`` in flight
    on ``pipe``.

    The arrays are updated in place by ``fam.step``; each post packs
    their values at post time, plus the cross Grams of its block with
    the blocks whose steps run before its harvest, and the harvest
    brings its projections up to date through them (``fam.correct``).
    ``pipe`` needs ``tau + 2`` slots. Returns ``(converged, done)``.

    Every exit drains the reductions still in flight, so the
    communicator's next solve finds the ring clear: a converged stop,
    and an exception raised inside the ring (a Gram that overflows
    float64, say), which then propagates unchanged. A communication
    error skips the drain, since a dead or out-of-step peer cannot
    complete it.
    """
    max_iter = fam.max_iter
    arrays = fam.arrays()
    checks.at_boundary(done, done, done < max_iter)
    # warmup: batch 0 fresh, batches 1..tau posted with the same initial
    # arrays (batch j's post runs j steps behind its harvest);
    # `planned` counts iterations already committed to in-flight batches
    # so the last batch is sized to max_iter
    planned = done
    inflight = []  # FIFO of (batch, slot, tail); oldest harvested first
    updates: deque = deque(maxlen=tau)  # the latest steps', newest first
    converged = False
    try:
        while len(inflight) <= tau and planned < max_iter:
            k = min(s, max_iter - planned)
            idx, batch = fam.plan(k)
            slot = pipe.prefetch(idx, len(inflight))
            tail, priced = checks.take()
            pipe.post(slot, arrays, tail, priced)
            inflight.append((batch, slot, tail))
            planned += k
        while inflight:
            nxt = nslot = None
            if planned < max_iter:
                # overlapped with the in-flight reductions: sample + pack the
                # next outer step's (array-independent) Grams. It is posted
                # after this step and harvested after the steps of the
                # reductions still in flight then
                k = min(s, max_iter - planned)
                nidx, nxt = fam.plan(k)
                nslot = pipe.prefetch(nidx, len(inflight) - 1)
                planned += k
            batch, slot, tail = inflight.pop(0)
            Y, G, R, cross = pipe.wait(slot)
            if tail is not None and checks.landed(tail):
                converged = True
                break
            if cross:
                fam.correct(R, zip(cross, updates))
            prev_done = done
            done += fam.step(batch, Y, G, R)
            updates.appendleft(fam.update)
            # completing this step supersedes the arrays carried by every
            # reduction still in flight: age them one harvest point
            for _, pending, _ in inflight:
                pending.req.bump_staleness()
            checks.at_boundary(prev_done, done, nxt is not None)
            if nxt is not None:
                tail, priced = checks.take()
                pipe.post(nslot, arrays, tail, priced)
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
