"""Experiment runner: dataset x solver x (P, mu, s) sweeps.

This module is the engine behind the benchmark harness: every figure and
table of the paper's evaluation maps to one of these entry points
(see DESIGN.md §5 for the index).

Running-time semantics: all "seconds" are **modelled** seconds from the
alpha-beta-gamma machine model at the requested virtual P, with flops
extrapolated to the paper-scale dataset via ``flop_scale`` (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datasets import registry
from repro.datasets.registry import get_dataset
from repro.errors import SolverError
from repro.launch import launch, recovery_knobs
from repro.machine.spec import CRAY_XC30, MachineSpec
from repro.solvers import lasso as lasso_solvers
from repro.solvers import svm as svm_solvers
from repro.solvers.base import SolverResult
from repro.solvers.objectives import lambda_from_sigma_min
from repro.solvers.outer import Schedule
from repro.utils.validation import nnz_of

__all__ = [
    "ScaledDataset",
    "load_scaled",
    "LASSO_SOLVERS",
    "SVM_SOLVERS",
    "run_lasso",
    "run_svm",
    "strong_scaling",
    "speedup_vs_s",
]


@dataclass
class ScaledDataset:
    """A synthetic stand-in for one paper dataset, plus scaling metadata."""

    name: str
    A: object
    b: np.ndarray
    x_true: np.ndarray | None
    #: full-size nnz implied by the paper's Table II/IV row
    paper_nnz: float
    #: nnz of the generated stand-in
    actual_nnz: float
    #: full-size dimensions from the paper (m data points, n features)
    m_full: int = 0
    n_full: int = 0
    task: str = "lasso"
    lam: float | None = None

    @property
    def flop_scale(self) -> float:
        """Extrapolation factor from stand-in flops to paper-scale flops.

        Per-iteration sampled-block work scales with the nnz of one
        *column* (Lasso: ``f*m``) or one *row* (SVM: ``f*n``), not the
        total nnz — the iteration count is the same on both scales. So
        the factor is the ratio of per-column (resp. per-row) nnz between
        the paper's dataset and the stand-in.
        """
        m_act, n_act = self.A.shape
        if self.task == "lasso":
            paper_col_nnz = self.paper_nnz / max(self.n_full, 1)
            actual_col_nnz = self.actual_nnz / max(n_act, 1)
            return max(paper_col_nnz / max(actual_col_nnz, 1e-12), 1.0)
        paper_row_nnz = self.paper_nnz / max(self.m_full, 1)
        actual_row_nnz = self.actual_nnz / max(m_act, 1)
        return max(paper_row_nnz / max(actual_row_nnz, 1e-12), 1.0)

    @property
    def gather_scale(self) -> float:
        """Extrapolation factor for row-scan (gather) work.

        Lasso column extraction scans the local *rows*, so it scales with
        the row-count ratio; the SVM layout's gather term depends only on
        s and needs no extrapolation.
        """
        if self.task != "lasso":
            return 1.0
        return max(float(self.m_full) / max(self.A.shape[0], 1), 1.0)

    @property
    def kind_scales(self) -> dict:
        # "fixed" subproblem overhead is dataset-size independent
        return {"gather": self.gather_scale, "fixed": 1.0}

    @property
    def shape(self) -> tuple:
        return self.A.shape


_DATASET_CACHE: dict = {}


def load_scaled(
    name: str,
    target_cells: float = 150_000.0,
    seed: int = 0,
    lam_factor: float | None = None,
) -> ScaledDataset:
    """Generate (and cache) the scaled stand-in for a paper dataset.

    ``target_cells`` bounds ``m*n`` of the stand-in. ``lam_factor`` (for
    Lasso rows) computes ``lam = lam_factor * sigma_min`` per §IV-A.
    """
    key = (name, float(target_cells), seed, lam_factor)
    if key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    spec = get_dataset(name)
    m_full, n_full = spec.dims(as_reported=False)
    scale = min(1.0, target_cells / (float(m_full) * float(n_full)))
    out = registry.generate(name, scale=scale, seed=seed, max_side=4000)
    if spec.task == "lasso":
        A, b, x_true = out
    else:
        A, b = out
        x_true = None
    paper_nnz = spec.density * float(m_full) * float(n_full)
    ds = ScaledDataset(
        name=name,
        A=A,
        b=b,
        x_true=x_true,
        paper_nnz=paper_nnz,
        actual_nnz=float(nnz_of(A)),
        m_full=m_full,
        n_full=n_full,
        task=spec.task,
    )
    if spec.task == "lasso" and lam_factor is not None:
        ds.lam = lambda_from_sigma_min(A, lam_factor)
    _DATASET_CACHE[key] = ds
    return ds


#: solver-name -> callable registries (paper's curve labels)
LASSO_SOLVERS: dict[str, Callable] = {
    "cd": lasso_solvers.cd,
    "sa-cd": lasso_solvers.sa_cd,
    "bcd": lasso_solvers.bcd,
    "sa-bcd": lasso_solvers.sa_bcd,
    "acccd": lasso_solvers.acc_cd,
    "sa-acccd": lasso_solvers.sa_acc_cd,
    "accbcd": lasso_solvers.acc_bcd,
    "sa-accbcd": lasso_solvers.sa_acc_bcd,
}

SVM_SOLVERS: dict[str, Callable] = {
    "svm-l1": lambda A, b, **kw: svm_solvers.dcd(A, b, loss="l1", **kw),
    "sa-svm-l1": lambda A, b, **kw: svm_solvers.sa_dcd(A, b, loss="l1", **kw),
    "svm-l2": lambda A, b, **kw: svm_solvers.dcd(A, b, loss="l2", **kw),
    "sa-svm-l2": lambda A, b, **kw: svm_solvers.sa_dcd(A, b, loss="l2", **kw),
}


def _launch_solve(fn: Callable, pargs: tuple, kwargs: dict, ds: ScaledDataset,
                  solver: str, s: int | None, fast: bool, schedule: Schedule,
                  **launch_kw) -> SolverResult:
    """Run ``fn(*pargs, **kwargs)`` (an SA ``solver`` also with ``s``,
    default 8, ``fast`` and ``schedule``) through :func:`repro.launch.launch`.

    Every backend charges flops extrapolated by the dataset's flop
    scales. Under ``recover="checkpoint"`` the solve checkpoints every
    ``s`` iterations (10 for a classical solver); a virtual run's
    communicator is always fresh, so the knobs resolve only on real ranks.
    """
    sa = solver.startswith("sa-")
    s = s if s is not None else 8
    schedule.check(solver, sa=sa, s=s)
    if sa:
        kwargs = dict(kwargs, s=s, fast=fast, **schedule.knobs())

    def work(comm, rank):
        comm.ledger.default_scale = ds.flop_scale
        comm.ledger.kind_scales = dict(ds.kind_scales)
        ck_every, ck_sink, ck_resume = recovery_knobs(
            comm, 0, None, None, default_every=s if sa else 10
        )
        return fn(*pargs, comm=comm, checkpoint_every=ck_every,
                  checkpoint_sink=ck_sink, resume_from=ck_resume, **kwargs)

    return launch(work, nb_depth=schedule.depth, **launch_kw)


def run_lasso(
    ds: ScaledDataset,
    solver: str,
    *,
    mu: int = 1,
    s: int | None = None,
    max_iter: int = 200,
    P: int = 1,
    machine: MachineSpec | None = CRAY_XC30,
    seed: int = 0,
    record_every: int = 1,
    lam: float | None = None,
    fast: bool = True,
    schedule: Schedule = Schedule(),
    backend: str = "virtual",
    ranks: int = 4,
    recover: str = "raise",
    max_recoveries: int = 2,
) -> SolverResult:
    """Run one Lasso-family solver on a scaled dataset at virtual P.

    ``fast`` toggles the SA solvers' fused inner loop (exposed for
    before/after benchmarking). ``schedule`` (a ring for SA solvers
    only; see :class:`~repro.solvers.outer.Schedule`) hides each outer
    step's reduction behind the next block's prefetch, or lets ranks
    proceed on reductions up to ``tau`` outer steps stale — a weaker,
    convergence-to-tolerance contract; ``backend``/``ranks`` select real
    thread/process SPMD parallelism instead of the virtual cost model;
    ``recover``/``max_recoveries`` (process backend) enable supervised
    respawn-and-replay on rank death.
    """
    if solver not in LASSO_SOLVERS:
        raise SolverError(f"unknown lasso solver {solver!r}; known: {sorted(LASSO_SOLVERS)}")
    fn = LASSO_SOLVERS[solver]
    lam_val = lam if lam is not None else (ds.lam if ds.lam is not None else 0.1)
    kwargs = dict(max_iter=max_iter, seed=seed, record_every=record_every)
    if solver not in ("cd", "sa-cd", "acccd", "sa-acccd"):
        kwargs["mu"] = mu
    return _launch_solve(
        fn, (ds.A, ds.b, lam_val), kwargs, ds, solver, s, fast, schedule,
        backend=backend, ranks=ranks, virtual_p=P, machine=machine,
        recover=recover, max_recoveries=max_recoveries,
    )


def run_svm(
    ds: ScaledDataset,
    solver: str,
    *,
    s: int | None = None,
    lam: float = 1.0,
    max_iter: int = 1000,
    P: int = 1,
    machine: MachineSpec | None = CRAY_XC30,
    seed: int = 0,
    record_every: int = 0,
    tol: float | None = None,
    fast: bool = True,
    schedule: Schedule = Schedule(),
    backend: str = "virtual",
    ranks: int = 4,
    recover: str = "raise",
    max_recoveries: int = 2,
) -> SolverResult:
    """Run one SVM solver on a scaled dataset at virtual P.

    ``schedule``/``backend``/``ranks``/``recover``/``max_recoveries`` as
    in :func:`run_lasso`.
    """
    if solver not in SVM_SOLVERS:
        raise SolverError(f"unknown svm solver {solver!r}; known: {sorted(SVM_SOLVERS)}")
    fn = SVM_SOLVERS[solver]
    kwargs = dict(lam=lam, max_iter=max_iter, seed=seed,
                  record_every=record_every, tol=tol)
    return _launch_solve(
        fn, (ds.A, ds.b), kwargs, ds, solver, s, fast, schedule,
        backend=backend, ranks=ranks, virtual_p=P, machine=machine,
        recover=recover, max_recoveries=max_recoveries,
    )


@dataclass
class ScalingPoint:
    """One (P, s) cell of a strong-scaling study."""

    P: int
    s: int
    seconds: float
    comm_seconds: float
    compute_seconds: float
    messages: int
    words: float


def strong_scaling(
    ds: ScaledDataset,
    solver: str,
    Ps: list,
    *,
    s: int = 1,
    mu: int = 1,
    max_iter: int = 200,
    machine: MachineSpec = CRAY_XC30,
    seed: int = 0,
    task: str = "lasso",
    lam: float = 1.0,
) -> list:
    """Modelled running time of one solver across processor counts
    (paper Fig. 4a-4d)."""
    points = []
    for P in Ps:
        if task == "lasso":
            res = run_lasso(
                ds, solver, mu=mu, s=s if solver.startswith("sa-") else None,
                max_iter=max_iter, P=P, machine=machine, seed=seed, record_every=0,
            )
        else:
            res = run_svm(
                ds, solver, s=s if solver.startswith("sa-") else None, lam=lam,
                max_iter=max_iter, P=P, machine=machine, seed=seed, record_every=0,
            )
        c = res.cost
        points.append(
            ScalingPoint(
                P=P,
                s=s if solver.startswith("sa-") else 1,
                seconds=c.seconds,
                comm_seconds=c.comm_seconds,
                compute_seconds=c.compute_seconds,
                messages=c.messages,
                words=c.words,
            )
        )
    return points


@dataclass
class SpeedupPoint:
    """One s value of a speedup-breakdown study (paper Fig. 4e-4h)."""

    s: int
    total: float
    communication: float
    computation: float


def speedup_vs_s(
    ds: ScaledDataset,
    base_solver: str,
    sa_solver: str,
    s_values: list,
    *,
    mu: int = 1,
    max_iter: int = 200,
    P: int = 1024,
    machine: MachineSpec = CRAY_XC30,
    seed: int = 0,
    task: str = "lasso",
    lam: float = 1.0,
) -> list:
    """Total / communication / computation speedups of the SA variant
    over the classical one, for a sweep of s (paper Fig. 4e-4h)."""

    def _run(solver, s):
        if task == "lasso":
            return run_lasso(
                ds, solver, mu=mu, s=s, max_iter=max_iter, P=P,
                machine=machine, seed=seed, record_every=0,
            )
        return run_svm(
            ds, solver, s=s, lam=lam, max_iter=max_iter, P=P,
            machine=machine, seed=seed, record_every=0,
        )

    base = _run(base_solver, None).cost
    points = []
    for s in s_values:
        sa = _run(sa_solver, s).cost
        points.append(
            SpeedupPoint(
                s=s,
                total=base.seconds / max(sa.seconds, 1e-300),
                communication=base.comm_seconds / max(sa.comm_seconds, 1e-300),
                computation=base.compute_seconds / max(sa.compute_seconds, 1e-300),
            )
        )
    return points
