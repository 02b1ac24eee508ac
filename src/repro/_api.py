"""High-level one-call API.

Wraps the solver registry so downstream users never touch communicators
for single-machine use, while still exposing every knob the paper tunes
(mu, s, machine model, virtual P).
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.machine.spec import MachineSpec
from repro.mpi.comm import Comm
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import NB_RING_DEPTH, spmd_run
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.base import SolverResult
from repro.solvers.lasso import acc_bcd, bcd, sa_acc_bcd, sa_bcd
from repro.solvers.outer import check_schedule, ring_depth
from repro.solvers.svm import dcd, sa_dcd

__all__ = ["fit_lasso", "fit_svm"]

_LASSO = {
    "bcd": (bcd, False),
    "sa-bcd": (sa_bcd, True),
    "accbcd": (acc_bcd, False),
    "sa-accbcd": (sa_acc_bcd, True),
}


def _check_backend(backend: str, comm, recover: str) -> None:
    if backend not in ("virtual", "thread", "process"):
        raise SolverError(
            f"unknown backend {backend!r}; known: ['virtual', 'thread',"
            " 'process']"
        )
    if backend != "virtual" and comm is not None:
        raise SolverError(
            "pass either comm= or backend=; a non-virtual backend builds"
            " its own communicators"
        )
    if recover not in ("raise", "checkpoint"):
        raise SolverError(
            f"recover must be 'raise' or 'checkpoint', got {recover!r}"
        )
    if recover == "checkpoint" and backend != "process":
        raise SolverError(
            "recover='checkpoint' needs backend='process' (the supervised"
            " worker pool); thread/virtual ranks cannot die independently"
        )


def _run_spmd(work, *, backend, ranks, machine, cost_size, recover,
              max_recoveries, nb_depth=NB_RING_DEPTH):
    """Run ``work(comm, rank)`` on a real backend; return rank 0's value."""
    if ranks < 1:
        raise SolverError(f"ranks must be >= 1, got {ranks}")
    if backend == "thread":
        out = spmd_run(
            work, ranks, machine=machine, cost_size=cost_size,
            nb_depth=nb_depth,
        )
    else:
        out = process_spmd_run(
            work, ranks, machine=machine, cost_size=cost_size,
            recover=recover, max_recoveries=max_recoveries,
            nb_depth=nb_depth,
        )
    return out.values[0]


def _recovery_knobs(comm, checkpoint_every, checkpoint_sink, resume_from,
                    default_every: int):
    """Resolve checkpoint knobs against the pool's recovery context.

    On a supervised rank (``comm.recovery`` present and active) the
    supervisor's latest collected checkpoint overrides ``resume_from`` on
    a redispatched attempt, and :meth:`RecoveryContext.save` is chained
    into the sink so future recoveries have something to replay from
    (``default_every`` turns checkpointing on when the caller left it
    off — scratch restarts would still be correct, just wasteful).
    """
    ctx = getattr(comm, "recovery", None)
    if ctx is None or not ctx.active:
        return checkpoint_every, checkpoint_sink, resume_from
    if ctx.resume is not None:
        resume_from = ctx.resume
    if checkpoint_every == 0:
        checkpoint_every = default_every
    user_sink = checkpoint_sink

    def sink(payload, _user=user_sink, _ctx=ctx):
        _ctx.save(payload)
        if _user is not None:
            from repro.checkpoint import emit_solver_checkpoint

            emit_solver_checkpoint(payload, _user, comm.rank)

    return checkpoint_every, sink, resume_from


def fit_lasso(
    A,
    b,
    lam,
    *,
    solver: str = "sa-accbcd",
    mu: int = 1,
    s: int = 16,
    max_iter: int = 1000,
    seed: int = 0,
    tol: float | None = None,
    comm: Comm | None = None,
    virtual_p: int = 1,
    machine: MachineSpec | None = None,
    record_every: int = 1,
    x0=None,
    fast: bool = True,
    pipeline: bool = False,
    async_: bool = False,
    tau: int = 1,
    eig_memo=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
    backend: str = "virtual",
    ranks: int = 4,
    recover: str = "raise",
    max_recoveries: int = 2,
) -> SolverResult:
    """Solve ``min_x 0.5||Ax-b||^2 + g(x)``.

    Parameters
    ----------
    lam:
        Regularisation: a float (L1/Lasso) or any
        :class:`~repro.prox.penalties.Penalty`.
    solver:
        ``"bcd"``, ``"sa-bcd"``, ``"accbcd"`` (paper Alg. 1), or
        ``"sa-accbcd"`` (paper Alg. 2, the default).
    mu:
        Coordinate block size (``mu = 1`` gives CD / accCD).
    s:
        Synchronization-avoiding unrolling (SA solvers only).
    virtual_p, machine:
        Model the run on ``virtual_p`` ranks of ``machine`` (the result's
        ``cost`` then carries modelled seconds, Fig. 3-style).
    tol, record_every:
        Stop when the objective's relative change between two records
        is at most ``tol``; record every ``record_every`` iterations
        (0: at the start and end only). The SA solvers record at the
        outer-step boundaries that cross a multiple of ``record_every``
        and fold each record's ``||r||^2`` into the next Gram reduction
        (one blocking collective per outer step, whatever the cadence):
        a converged blocking or pipelined solve returns the iterate its
        last record describes and has paid for one Gram reduction it
        never uses; ``async_`` stops at most ``tau`` outer steps later.
        See :func:`repro.solvers.lasso.plain.sa_bcd`.
    x0:
        Warm-start solution (length-n). Regularization-path sweeps thread
        the previous point's solution through here.
    fast:
        SA solvers only: ``fast=False`` runs the reference recurrences
        instead of the fused inner loop (bit-identical at ``mu = 1``,
        within 1e-9 relative at ``mu > 1``, identical ledger).
    pipeline:
        SA solvers only: post the per-outer-step packed Gram reduction
        as a nonblocking Allreduce and prefetch the next block while it
        is in flight — the ``tau=0`` case of ``async_`` (identical
        iterates; only unoverlapped latency is charged). Raises for
        non-SA solvers, which have nothing to overlap.
    async_, tau:
        SA solvers only: bounded-staleness mode — keep up to ``tau + 1``
        packed reductions in flight and harvest the oldest, so each
        outer step may run against residual data up to ``tau`` outer
        steps stale. Weaker contract than ``pipeline`` (mutually
        exclusive with it): convergence to the synchronous objective
        within tolerance rather than bit-parity; ``tau=0`` is the
        pipelined schedule bit for bit. Real backends get their
        nonblocking ring sized to ``tau + 2`` automatically; the
        result's ``cost`` carries ``stale_seconds``/``max_staleness``.
    eig_memo:
        Explicit :class:`~repro.linalg.kernels.EigMemo` for the SA fused
        loops; None (default) shares the process-wide memo.
    checkpoint_every / checkpoint_sink / resume_from:
        Fault-tolerance knobs (see :mod:`repro.checkpoint`): emit a
        resumable checkpoint every N iterations to a callable or path,
        and/or continue a run from a checkpoint payload or JSON path.
    backend, ranks:
        ``"virtual"`` (default; modelled single-process run, honors
        ``comm=``/``virtual_p=``), ``"thread"``, or ``"process"`` — the
        real backends run the solve SPMD on ``ranks`` ranks and return
        rank 0's result.
    recover, max_recoveries:
        ``backend="process"`` only: ``recover="checkpoint"`` lets the
        supervised worker pool respawn dead ranks and replay the solve
        from its latest checkpoint (at most ``max_recoveries`` times)
        instead of raising :class:`~repro.errors.RankDiedError`.
    """
    try:
        fn, is_sa = _LASSO[solver]
    except KeyError as exc:
        raise SolverError(
            f"unknown lasso solver {solver!r}; known: {sorted(_LASSO)}"
        ) from exc
    check_schedule(s, tau, pipeline, async_, sa=is_sa, solver=solver)
    _check_backend(backend, comm, recover)

    def _solve(wcomm, ck_every, ck_sink, ck_resume):
        kwargs = dict(
            mu=mu, max_iter=max_iter, seed=seed, comm=wcomm,
            tol=tol, record_every=record_every, x0=x0,
            checkpoint_every=ck_every, checkpoint_sink=ck_sink,
            resume_from=ck_resume,
        )
        if is_sa:
            kwargs.update(s=s, fast=fast, pipeline=pipeline,
                          async_=async_, tau=tau, eig_memo=eig_memo)
        return fn(A, b, lam, **kwargs)

    if backend == "virtual":
        if comm is None:
            comm = VirtualComm(virtual_size=virtual_p, machine=machine)
        return _solve(comm, checkpoint_every, checkpoint_sink, resume_from)

    def work(wcomm, wrank):
        ck_every, ck_sink, ck_resume = _recovery_knobs(
            wcomm, checkpoint_every, checkpoint_sink, resume_from,
            default_every=max(1, s) if is_sa else 10,
        )
        return _solve(wcomm, ck_every, ck_sink, ck_resume)

    return _run_spmd(
        work, backend=backend, ranks=ranks, machine=machine,
        cost_size=max(virtual_p, ranks), recover=recover,
        max_recoveries=max_recoveries,
        nb_depth=ring_depth(async_, tau),
    )


def fit_svm(
    A,
    b,
    *,
    loss: str = "l1",
    lam: float = 1.0,
    solver: str = "sa-svm",
    s: int = 16,
    max_iter: int = 5000,
    seed: int = 0,
    tol: float | None = None,
    comm: Comm | None = None,
    virtual_p: int = 1,
    machine: MachineSpec | None = None,
    record_every: int = 0,
    alpha0=None,
    fast: bool = True,
    pipeline: bool = False,
    async_: bool = False,
    tau: int = 1,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
    backend: str = "virtual",
    ranks: int = 4,
    recover: str = "raise",
    max_recoveries: int = 2,
) -> SolverResult:
    """Train a linear SVM by dual coordinate descent.

    Parameters
    ----------
    loss:
        ``"l1"`` (hinge) or ``"l2"`` (squared hinge).
    solver:
        ``"svm"`` (paper Alg. 3) or ``"sa-svm"`` (paper Alg. 4, default).
    tol:
        Optional duality-gap stopping tolerance (checked when recording).
    alpha0:
        Warm-start dual vector (length-m); the primal is rebuilt from it
        (Alg. 3 line 2). Path sweeps thread the previous point's
        ``extras["alpha"]`` through here.
    fast:
        ``"sa-svm"`` only: ``fast=False`` runs the reference recurrences
        (bit-identical to the fused loop).
    pipeline:
        ``"sa-svm"`` only: nonblocking per-outer-step reduction with the
        next row block prefetched while it is in flight (see
        :func:`fit_lasso`).
    async_, tau:
        ``"sa-svm"`` only: bounded-staleness mode, as in
        :func:`fit_lasso` (convergence-to-tolerance contract; ``tau=0``
        is bit-identical to ``pipeline=True``).
    checkpoint_every / checkpoint_sink / resume_from:
        Fault-tolerance knobs, as in :func:`fit_lasso`.
    backend, ranks, recover, max_recoveries:
        SPMD backend dispatch and supervised recovery, as in
        :func:`fit_lasso`.
    """
    if solver not in ("svm", "sa-svm"):
        raise SolverError(f"unknown svm solver {solver!r}; known: ['svm', 'sa-svm']")
    check_schedule(s, tau, pipeline, async_, sa=solver == "sa-svm", solver=solver)
    _check_backend(backend, comm, recover)

    def _solve(wcomm, ck_every, ck_sink, ck_resume):
        kwargs = dict(
            loss=loss, lam=lam, max_iter=max_iter, seed=seed, comm=wcomm,
            tol=tol, record_every=record_every, alpha0=alpha0,
            checkpoint_every=ck_every, checkpoint_sink=ck_sink,
            resume_from=ck_resume,
        )
        if solver == "sa-svm":
            return sa_dcd(A, b, s=s, fast=fast, pipeline=pipeline,
                          async_=async_, tau=tau, **kwargs)
        return dcd(A, b, **kwargs)

    if backend == "virtual":
        if comm is None:
            comm = VirtualComm(virtual_size=virtual_p, machine=machine)
        return _solve(comm, checkpoint_every, checkpoint_sink, resume_from)

    def work(wcomm, wrank):
        ck_every, ck_sink, ck_resume = _recovery_knobs(
            wcomm, checkpoint_every, checkpoint_sink, resume_from,
            default_every=max(1, s) if solver == "sa-svm" else 10,
        )
        return _solve(wcomm, ck_every, ck_sink, ck_resume)

    return _run_spmd(
        work, backend=backend, ranks=ranks, machine=machine,
        cost_size=max(virtual_p, ranks), recover=recover,
        max_recoveries=max_recoveries,
        nb_depth=ring_depth(async_, tau),
    )
