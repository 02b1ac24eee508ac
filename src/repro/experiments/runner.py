"""Experiment runner: dataset x solver x (P, mu, s) sweeps.

This module is the engine behind the benchmark harness: every figure and
table of the paper's evaluation maps to one of these entry points (see
README's "Paper-figure benchmarks" for the index). All "seconds" are
**modelled** seconds from the alpha-beta-gamma machine model at the
requested virtual P, with flops extrapolated to the paper-scale dataset
via ``flop_scale`` (same section).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._api import SOLVERS, _solve, check_solver, svm_spelling
from repro.datasets import registry
from repro.datasets.registry import get_dataset
from repro.machine.spec import CRAY_XC30, MachineSpec
from repro.solvers.base import SolverResult
from repro.solvers.objectives import lambda_from_sigma_min
from repro.solvers.outer import Schedule
from repro.utils.validation import nnz_of

__all__ = [
    "ScaledDataset",
    "load_scaled",
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
    """Run one Lasso-family solver (a Lasso name in the registry,
    :data:`repro._api.SOLVERS`: the paper's curve labels) on a scaled
    dataset at virtual P, charging on every backend flops extrapolated
    by the dataset's flop scales.

    ``lam`` defaults to the dataset's (0.1 without one) and an SA
    solver's ``s`` to 8; ``fast`` (exposed for before/after
    benchmarking), ``schedule``, ``backend``, ``ranks``, ``recover`` and
    ``max_recoveries`` are :func:`repro.fit_lasso`'s. Under
    ``recover="checkpoint"`` the solve checkpoints every ``s``
    iterations (10 for a classical solver).
    """
    lam_val = lam if lam is not None else (ds.lam if ds.lam is not None else 0.1)
    return _solve(
        "lasso", solver, (ds.A, ds.b, lam_val),
        dict(mu=mu, max_iter=max_iter, seed=seed, record_every=record_every),
        s=8 if s is None else s, sa_kwargs=dict(fast=fast), schedule=schedule,
        scales=ds, backend=backend, ranks=ranks, virtual_p=P, machine=machine,
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
    """Run one SVM solver (a spelling in :data:`repro._api.SVM_SPELLINGS`,
    which names the loss) on a scaled dataset at virtual P, as
    :func:`run_lasso` does."""
    name, loss = svm_spelling(solver)
    return _solve(
        "svm", name, (ds.A, ds.b),
        dict(loss=loss, lam=lam, max_iter=max_iter, seed=seed,
             record_every=record_every, tol=tol),
        s=8 if s is None else s, sa_kwargs=dict(fast=fast), schedule=schedule,
        scales=ds, backend=backend, ranks=ranks, virtual_p=P, machine=machine,
        recover=recover, max_recoveries=max_recoveries,
    )


def _run(ds: ScaledDataset, solver: str, s: int | None, *, mu: int,
         lam: float | None, **kw) -> tuple:
    """``(is_sa, cost)`` of one ``record_every=0`` run of a Lasso name
    (at ``mu``) or an SVM spelling, at ``lam``; ``None`` is the
    dataset's ``lam`` (0.1 without one) for Lasso and 1.0 for SVM."""
    if solver in SOLVERS["lasso"]:
        res = run_lasso(ds, solver, mu=mu, s=s, lam=lam, record_every=0, **kw)
        return check_solver(solver, "lasso"), res.cost
    res = run_svm(ds, solver, s=s, lam=1.0 if lam is None else lam,
                  record_every=0, **kw)
    return check_solver(svm_spelling(solver)[0], "svm"), res.cost


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
    lam: float | None = None,
) -> list:
    """Modelled running time of one solver across processor counts
    (paper Fig. 4a-4d). ``solver`` is a Lasso name or an SVM spelling,
    run at ``lam``: ``None`` is the dataset's ``lam`` (0.1 without one)
    for Lasso and 1.0 for SVM. A classical solver's points carry
    ``s = 1``."""
    points = []
    for P in Ps:
        sa, c = _run(ds, solver, s, mu=mu, lam=lam, max_iter=max_iter, P=P,
                     machine=machine, seed=seed)
        points.append(ScalingPoint(
            P=P, s=s if sa else 1, seconds=c.seconds,
            comm_seconds=c.comm_seconds, compute_seconds=c.compute_seconds,
            messages=c.messages, words=c.words,
        ))
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
    lam: float | None = None,
) -> list:
    """Total / communication / computation speedups of the SA variant
    over the classical one, for a sweep of s (paper Fig. 4e-4h); the
    solvers are as in :func:`strong_scaling`."""
    kw = dict(mu=mu, lam=lam, max_iter=max_iter, P=P, machine=machine, seed=seed)
    base = _run(ds, base_solver, None, **kw)[1]
    points = []
    for s in s_values:
        sa = _run(ds, sa_solver, s, **kw)[1]
        points.append(SpeedupPoint(
            s=s,
            total=base.seconds / max(sa.seconds, 1e-300),
            communication=base.comm_seconds / max(sa.comm_seconds, 1e-300),
            computation=base.compute_seconds / max(sa.compute_seconds, 1e-300),
        ))
    return points
