"""High-level one-call API, and the solver registry every entry point
reads: ``fit_lasso``/``fit_svm`` solve without communicators for
single-machine use, while exposing every knob the paper tunes (mu, s,
machine model, virtual P).
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.launch import launch, recovery_knobs
from repro.machine.spec import MachineSpec
from repro.mpi.comm import Comm
from repro.solvers.base import SolverResult
from repro.solvers.lasso import acc_bcd, acc_cd, bcd, cd, sa_acc_bcd, sa_acc_cd, sa_bcd, sa_cd
from repro.solvers.outer import Schedule
from repro.solvers.svm import dcd, sa_dcd

__all__ = ["fit_lasso", "fit_svm", "SOLVERS", "DEFAULT_SOLVER", "SVM_SPELLINGS",
           "check_solver", "svm_spelling"]

#: The solver registry, by task: name -> ``(function, is_sa)``. An SA
#: name is its classical partner's with an ``sa-`` prefix, and the
#: ``*cd`` names are the block solvers at ``mu = 1``. A solve looks its
#: function up here when it is called, and the SVM entries look
#: ``dcd``/``sa_dcd`` up in this module when they run, so a wrapper
#: installed in either place is what runs.
_LASSO = {
    "bcd": (bcd, False), "sa-bcd": (sa_bcd, True),
    "accbcd": (acc_bcd, False), "sa-accbcd": (sa_acc_bcd, True),
    "cd": (cd, False), "sa-cd": (sa_cd, True),
    "acccd": (acc_cd, False), "sa-acccd": (sa_acc_cd, True),
}
_SVM = {
    "svm": (lambda A, b, **kw: dcd(A, b, **kw), False),
    "sa-svm": (lambda A, b, **kw: sa_dcd(A, b, **kw), True),
}
_REGISTRY = {"lasso": _LASSO, "svm": _SVM}

#: the solver names each task takes, and its default
SOLVERS = {task: tuple(table) for task, table in _REGISTRY.items()}
DEFAULT_SOLVER = {"lasso": "sa-accbcd", "svm": "sa-svm"}
#: every SVM solver spelling ``run_svm`` and ``repro svm`` take ->
#: ``(name, loss)``: a registry name alone runs the hinge loss, and a
#: ``-l1``/``-l2`` suffix names the loss
SVM_SPELLINGS = {f"{name}{suffix}": (name, loss) for name in _SVM
                 for suffix, loss in (("", "l1"), ("-l1", "l1"), ("-l2", "l2"))}


def check_solver(name: str, task: str) -> bool:
    """The SA flag of ``task``'s solver ``name``; raises
    :class:`SolverError` listing ``task``'s names if there is none."""
    table = _REGISTRY[task]
    if name not in table:
        raise SolverError(f"unknown {task} solver {name!r}; known: {list(table)}")
    return table[name][1]


def svm_spelling(spelling: str, loss: str | None = None) -> tuple:
    """``(name, loss)`` of an SVM solver spelling (see
    :data:`SVM_SPELLINGS`); ``loss``, when given, overrides the one the
    spelling names."""
    if spelling not in SVM_SPELLINGS:
        raise SolverError(
            f"unknown svm solver {spelling!r}; known: {list(SVM_SPELLINGS)}")
    name, spelled = SVM_SPELLINGS[spelling]
    return name, loss or spelled


def _solve(task: str, solver: str, args: tuple, kwargs: dict, *, s: int,
           sa_kwargs: dict, schedule: Schedule, checkpoint=(0, None, None),
           scales=None, backend: str, **launch_kw) -> SolverResult:
    """The one solve body (``fit_*``, ``run_*``): launch ``task``'s
    ``solver`` on ``args`` and ``kwargs``, an SA solver also with ``s``,
    ``sa_kwargs`` and the schedule's knobs. ``checkpoint`` is
    ``(checkpoint_every, checkpoint_sink, resume_from)``, resolved on a
    real backend against the supervisor's recovery knobs (a virtual
    run's communicator may be a sweep's, whose job owns recovery).
    ``scales`` (a :class:`~repro.experiments.runner.ScaledDataset`)
    extrapolates each rank's flops to the paper-scale dataset.
    """
    sa = check_solver(solver, task)
    schedule.check(solver, sa=sa, s=s)
    if sa:
        kwargs = dict(kwargs, s=s, **sa_kwargs, **schedule.knobs())
    fn = _REGISTRY[task][solver][0]

    def work(comm, rank):
        if scales is not None:
            comm.ledger.default_scale = scales.flop_scale
            comm.ledger.kind_scales = dict(scales.kind_scales)
        ck_every, ck_sink, ck_resume = checkpoint
        if backend != "virtual":
            ck_every, ck_sink, ck_resume = recovery_knobs(
                comm, *checkpoint, default_every=s if sa else 10)
        return fn(*args, comm=comm, checkpoint_every=ck_every,
                  checkpoint_sink=ck_sink, resume_from=ck_resume, **kwargs)

    return launch(work, backend=backend, nb_depth=schedule.depth, **launch_kw)


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
    schedule: Schedule = Schedule(),
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
        A Lasso name in :data:`SOLVERS`: ``"bcd"``, ``"sa-bcd"``,
        ``"accbcd"`` (paper Alg. 1), ``"sa-accbcd"`` (paper Alg. 2, the
        default), or ``"cd"``, ``"sa-cd"``, ``"acccd"``, ``"sa-acccd"``,
        which run the block solver at ``mu = 1`` whatever ``mu`` says.
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
        never uses; the async ring stops at most ``tau`` outer steps
        later.
        See :func:`repro.solvers.lasso.plain.sa_bcd`.
    x0:
        Warm-start solution (length-n). Regularization-path sweeps thread
        the previous point's solution through here.
    fast:
        SA solvers only: ``fast=False`` runs the reference recurrences
        instead of the fused inner loop (bit-identical at ``mu = 1``,
        within 1e-9 relative at ``mu > 1``, identical ledger).
    schedule:
        A :class:`~repro.solvers.outer.Schedule`, blocking by default; a
        ring (SA solvers only) posts each outer step's packed Gram
        reduction nonblocking, and only unoverlapped latency is charged.
        The async ring's ``cost`` carries ``stale_seconds`` and
        ``max_staleness``; real backends size their nonblocking ring by
        its ``depth``.
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
        rank 0's result (see :func:`repro.launch.launch`).
    recover, max_recoveries:
        ``backend="process"`` only: ``recover="checkpoint"`` lets the
        supervised worker pool respawn dead ranks and replay the solve
        from its latest checkpoint (at most ``max_recoveries`` times)
        instead of raising :class:`~repro.errors.RankDiedError`. A bad
        ``backend``, ``ranks`` or ``recover``, or ``comm=`` with a real
        backend, raises :class:`~repro.errors.CommError`.
    """
    return _solve(
        "lasso", solver, (A, b, lam),
        dict(mu=mu, max_iter=max_iter, seed=seed, tol=tol,
             record_every=record_every, x0=x0),
        s=s, sa_kwargs=dict(fast=fast, eig_memo=eig_memo), schedule=schedule,
        checkpoint=(checkpoint_every, checkpoint_sink, resume_from),
        backend=backend, comm=comm, ranks=ranks, virtual_p=virtual_p,
        machine=machine, recover=recover, max_recoveries=max_recoveries,
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
    schedule: Schedule = Schedule(),
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
    schedule:
        As in :func:`fit_lasso` (a ring for ``"sa-svm"`` only).
    checkpoint_every / checkpoint_sink / resume_from:
        Fault-tolerance knobs, as in :func:`fit_lasso`.
    backend, ranks, recover, max_recoveries:
        SPMD backend dispatch and supervised recovery, as in
        :func:`fit_lasso`.
    """
    return _solve(
        "svm", solver, (A, b),
        dict(loss=loss, lam=lam, max_iter=max_iter, seed=seed, tol=tol,
             record_every=record_every, alpha0=alpha0),
        s=s, sa_kwargs=dict(fast=fast), schedule=schedule,
        checkpoint=(checkpoint_every, checkpoint_sink, resume_from),
        backend=backend, comm=comm, ranks=ranks, virtual_p=virtual_p,
        machine=machine, recover=recover, max_recoveries=max_recoveries,
    )
