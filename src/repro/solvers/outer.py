"""The outer-step loops of the SA solvers (paper Alg. 2 and Alg. 4).

Every SA method repeats the same outer step: sample ``s`` blocks, run
one packed Gram reduction, then make ``s`` local updates. The families
(``sa_bcd``, ``sa_acc_bcd``, ``sa_dcd``) differ only in what they
sample, reduce and update, so each hands its pieces in and this module
owns the schedule:

* ``plan(k)`` draws one outer step of ``k`` iterations and returns
  ``(idx, batch)``: the flat sampled indices the reduction packs, and
  whatever the inner loop needs to walk them;
* ``reduce(idx)`` (blocking schedule only) samples ``idx`` and runs the
  blocking packed reduction, returning ``(Y, G, R)``;
* ``step(batch, Y, G, R, done)`` runs the inner loop and returns
  ``(converged, done)``;
* ``checkpoint(done)`` emits a resumable checkpoint. Both loops call it
  at the outer-step boundary that crosses each multiple of
  ``checkpoint_every`` (0: never), and never once converged.

Two schedules use them. :func:`run_blocking` waits on each reduction.
:func:`run_ring` posts reductions through a
:class:`~repro.linalg.distmatrix.GramPipeline`, keeps ``tau + 1`` in
flight and harvests the oldest, so outer step ``k`` steps on data up to
``tau`` steps stale. At ``tau = 0`` the ring is the pipelined schedule:
the next step is sampled and Gram-packed while the current reduction is
in flight, and the iterates equal the blocking schedule's bit for bit.
"""

from __future__ import annotations

from repro.errors import SolverError

__all__ = ["check_schedule", "run_blocking", "run_ring"]


def check_schedule(s: int, tau: int, pipeline: bool, async_: bool) -> None:
    """Validate the SA outer-step parameters shared by every family."""
    if s < 1:
        raise SolverError(f"s must be >= 1, got {s}")
    if tau < 0:
        raise SolverError(f"tau must be >= 0, got {tau}")
    if async_ and pipeline:
        raise SolverError(
            "async_=True and pipeline=True are mutually exclusive: "
            "pipelining is the tau=0 special case of async_"
        )


def _crossed(prev_done: int, done: int, every: int) -> bool:
    return bool(every) and done // every != prev_done // every


def run_blocking(plan, reduce, step, checkpoint, *, done, max_iter, s,
                 checkpoint_every):
    """One blocking reduction per outer step; returns ``(converged, done)``."""
    converged = False
    while done < max_iter and not converged:
        idx, batch = plan(min(s, max_iter - done))
        prev_done = done
        converged, done = step(batch, *reduce(idx), done)
        if not converged and _crossed(prev_done, done, checkpoint_every):
            checkpoint(done)
    return converged, done


def run_ring(plan, step, checkpoint, pipe, arrays, *, done, max_iter, s, tau,
             checkpoint_every):
    """Keep ``tau + 1`` reductions of ``arrays`` in flight on ``pipe``.

    ``arrays`` are updated in place by ``step``; each post packs their
    values at post time. ``pipe`` needs ``tau + 2`` slots. Returns
    ``(converged, done)``.
    """
    # warmup: batch 0 fresh, batches 1..tau posted with the same initial
    # arrays (they will be min(j, tau) steps stale when harvested);
    # `planned` counts iterations already committed to in-flight batches
    # so the last batch is sized to max_iter
    planned = done
    inflight = []  # FIFO of (batch, slot); oldest harvested first
    while len(inflight) <= tau and planned < max_iter:
        k = min(s, max_iter - planned)
        idx, batch = plan(k)
        slot = pipe.prefetch(idx)
        pipe.post(slot, arrays)
        inflight.append((batch, slot))
        planned += k
    converged = False
    while inflight:
        nxt = nslot = None
        if planned < max_iter:
            # overlapped with the in-flight reductions: sample + pack the
            # next outer step's (array-independent) Gram
            k = min(s, max_iter - planned)
            nidx, nxt = plan(k)
            nslot = pipe.prefetch(nidx)
            planned += k
        batch, slot = inflight.pop(0)
        prev_done = done
        converged, done = step(batch, *pipe.wait(slot), done)
        # completing this step supersedes the arrays carried by every
        # reduction still in flight: age them one harvest point
        for _, pending in inflight:
            pending.req.bump_staleness()
        if converged:
            break
        if _crossed(prev_done, done, checkpoint_every):
            checkpoint(done)
        if nxt is not None:
            pipe.post(nslot, arrays)
            inflight.append((nxt, nslot))
    # drain: reductions posted but never consumed still moved real
    # traffic (charged at finalize) and must clear the ring so the
    # communicator is reusable (path sweeps, streaming)
    for _, pending in inflight:
        pending.req.wait()
        pending.req = None
    return converged, done
