"""One launcher: where an SPMD run executes.

Every entry point that can run on real ranks (``fit_lasso``, ``fit_svm``,
the path sweeps, the experiment runner, the streaming replay, the
serving engine and the CLI) hands its per-rank ``work(comm, rank)`` to
:func:`launch`. ``"virtual"`` runs it once in this process, charged as
``virtual_p`` ranks; ``"thread"`` and ``"process"`` run it on ``ranks``
real SPMD ranks, costs modelled at ``max(virtual_p, ranks)``. A request
that cannot run raises :class:`~repro.errors.CommError` before any rank
starts.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.checkpoint import emit_solver_checkpoint
from repro.errors import CommError
from repro.machine.spec import MachineSpec
from repro.mpi.comm import Comm
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import NB_RING_DEPTH, spmd_run
from repro.mpi.virtual_backend import VirtualComm

__all__ = [
    "BACKENDS", "check_launch", "launch", "recovery_counters", "recovery_knobs",
]

BACKENDS = ("virtual", "thread", "process")


def check_launch(backend: str, recover: str, comm: Comm | None = None) -> None:
    """Reject a backend, ``recover`` or ``comm=`` that cannot run."""
    if backend not in BACKENDS:
        raise CommError(f"unknown backend {backend!r}; known: {list(BACKENDS)}")
    if recover not in ("raise", "checkpoint"):
        raise CommError(
            f"recover must be 'raise' or 'checkpoint', got {recover!r}"
        )
    if recover == "checkpoint" and backend != "process":
        raise CommError(
            "recover='checkpoint' needs backend='process' (the supervised"
            " worker pool); thread/virtual ranks cannot die independently"
        )
    if backend != "virtual" and comm is not None:
        raise CommError(
            "pass either comm= or backend=; a non-virtual backend builds"
            " its own communicators"
        )


def launch(work: Callable[[Comm, int], Any], *, backend: str = "virtual",
           comm: Comm | None = None, ranks: int = 4, virtual_p: int = 1,
           machine: MachineSpec | None = None, recover: str = "raise",
           max_recoveries: int = 2, nb_depth: int = NB_RING_DEPTH,
           timeout: float | None = 120.0) -> Any:
    """Run ``work(comm, rank)`` on ``backend``; return rank 0's value.

    The virtual backend uses ``comm`` when given. On a real backend
    ``work`` reaches the ranks by fork (a closure is fine), a process
    rank's return value must pickle, and ``recover``/``max_recoveries``/
    ``nb_depth``/``timeout`` are
    :func:`~repro.mpi.process_backend.process_spmd_run`'s.
    """
    check_launch(backend, recover, comm)
    if backend == "virtual":
        if comm is None:
            comm = VirtualComm(virtual_size=virtual_p, machine=machine)
        return work(comm, 0)
    if ranks < 1:
        raise CommError(f"ranks must be >= 1, got {ranks}")
    common = dict(machine=machine, cost_size=max(virtual_p, ranks),
                  timeout=timeout, nb_depth=nb_depth)
    if backend == "thread":
        return spmd_run(work, ranks, **common).values[0]
    return process_spmd_run(work, ranks, recover=recover,
                            max_recoveries=max_recoveries, **common).values[0]


def recovery_knobs(comm: Comm, checkpoint_every: int, checkpoint_sink,
                   resume_from, default_every: int) -> tuple:
    """Resolve checkpoint knobs against the pool's recovery context.

    On a supervised rank (``comm.recovery`` present and active) the
    supervisor's latest collected checkpoint overrides ``resume_from`` on
    a redispatched attempt, and :meth:`RecoveryContext.save` is chained
    in front of the sink so future recoveries have something to replay
    from (``default_every`` turns checkpointing on when the caller left
    it off — scratch restarts would still be correct, just wasteful).

    Call it only in work launched on a real backend: a solve nested in
    that work (a sweep's point, a serve tenant's refit) shares its
    supervised communicator and must not resume from the job's
    checkpoint.
    """
    ctx = getattr(comm, "recovery", None)
    if ctx is None or not ctx.active:
        return checkpoint_every, checkpoint_sink, resume_from
    if ctx.resume is not None:
        resume_from = ctx.resume
    if checkpoint_every == 0:
        checkpoint_every = default_every

    def sink(payload):
        ctx.save(payload)
        emit_solver_checkpoint(payload, checkpoint_sink, comm.rank)

    return checkpoint_every, sink, resume_from


def recovery_counters(comm: Comm) -> dict:
    """The supervised pool's ``recoveries``, ``respawns`` and
    ``replayed_iterations`` as this attempt of the job sees them (the
    whole run's totals on the attempt that returns), or zeros when
    ``comm`` is not supervised under ``recover="checkpoint"``."""
    ctx = getattr(comm, "recovery", None)
    active = ctx is not None and ctx.active
    return {key: int(getattr(ctx, key)) if active else 0
            for key in ("recoveries", "respawns", "replayed_iterations")}
