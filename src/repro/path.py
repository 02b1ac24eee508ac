"""Warm-started regularization-path engine with cross-solve cache reuse.

Real deployments rarely solve one ``(lambda, mu, s)`` point — they sweep
a regularization path. Solving each point independently pays full
cold-start cost every time: a fresh communicator and ledger, a
partitioned matrix built afresh (for the SVM layout a re-sliced column
shard; a Lasso solve handed the same matrix again reuses its row shard
and CSC sampling view from :meth:`~repro.linalg.distmatrix.
RowPartitionedMatrix.from_global`'s memo, after checking the shard
against the matrix), fresh gather/pack/Gram buffers, a cold eigenvalue
memo, and ``x0 = 0``. This module amortises all of it:

* :class:`SweepContext` owns the partitioned matrix (and with it the
  cached CSC/CSR sampling views, the reusable :class:`~repro.linalg.
  kernels.GatherWorkspace`, the packed-collective send/receive buffers,
  and the reusable Gram output buffers of ``gram_and_project``), the
  communicator whose ledger is reset per point (so each
  :class:`~repro.solvers.base.SolverResult` carries *per-point* modelled
  cost), and the persistent eigenvalue memo shared by every solve. Its
  :meth:`~SweepContext.solve` is the one point step of every sweep
  (paths, stream refits, serve tenants, replay's cold re-solves).
* :func:`lasso_path` / :func:`svm_path` walk a lambda grid through one
  point loop, threading each point's solution (primal ``x`` for Lasso,
  dual ``alpha`` for SVM) into the next solve as a warm start, with
  path checkpoints that resume at the last completed point.

Warm-started path solves are the standard trick that makes coordinate
methods competitive in practice; combined with the shared context the
sweep runs several times faster than independent cold solves
(``benchmarks/bench_path_sweep.py`` tracks the trajectory in
``BENCH_path_sweep.json``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro._api import check_solver, fit_lasso, fit_svm
from repro.checkpoint import (
    check_fields,
    emit_solver_checkpoint,
    fields,
    is_int,
    is_num,
    is_obj,
    list_of,
    read_checkpoint_json,
    state_vector,
)
from repro.errors import CheckpointError, SolverError
from repro.launch import check_launch, launch, recovery_counters, recovery_knobs
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.linalg.kernels import EigMemo, default_eig_memo
from repro.machine.ledger import CostSnapshot
from repro.machine.spec import MachineSpec
from repro.mpi.comm import Comm
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.base import SolverResult
from repro.solvers.outer import SWEEP_SCHEDULE, Schedule
from repro.solvers.serialization import result_from_dict, result_to_dict
from repro.solvers.svm.duality import loss_params

__all__ = [
    "SweepContext",
    "PathResult",
    "PATH_CHECKPOINT_VERSION",
    "lambda_grid",
    "adaptive_schedule",
    "lasso_path",
    "svm_path",
]


def _data_fingerprint(A) -> tuple:
    """Cheap content signature: shape, weighted column sums, abs-sum.

    Representation-invariant (a dense array and its sparse form agree to
    rounding), sensitive to rescaling and column reordering. Partitioned
    matrices are fingerprinted on the *local shard*, so a multi-rank
    context compares shards — pass the context's own ``dist`` (which
    skips the check) when the global matrix is not rank-local.
    """
    if isinstance(A, (RowPartitionedMatrix, ColPartitionedMatrix)):
        A = A.local
    shape = tuple(A.shape)
    w = np.cos(np.arange(shape[1], dtype=np.float64))
    colsum = np.asarray(A.sum(axis=0)).ravel()
    if sp.issparse(A):
        abssum = float(np.abs(A.data).sum())
    else:
        abssum = float(np.abs(np.asarray(A, dtype=np.float64)).sum())
    return (shape, float(colsum @ w), abssum)


def _fingerprints_match(fp1: tuple, fp2: tuple, rtol: float = 1e-9) -> bool:
    """Compare signatures with rounding slack (summation orders differ
    between sparse and dense representations of the same data)."""
    if fp1[0] != fp2[0]:
        return False
    for a, b in zip(fp1[1:], fp2[1:], strict=True):
        if abs(a - b) > rtol * max(abs(a), abs(b), 1.0):
            return False
    return True


#: format version of path-sweep checkpoints (distinct from solver ones)
PATH_CHECKPOINT_VERSION = 1

#: per sweep task: the path checkpoint's ``kind``, the knob besides the
#: solver's that a resume must match (Lasso's block size, SVM's loss),
#: the key of the warm-start vector (primal ``x``, dual ``alpha``) and
#: the axis of the data matrix that gives its length
_PATH_TASK = {
    "lasso": ("lasso-path", "mu", "x_warm", 1),
    "svm": ("svm-path", "loss", "alpha_warm", 0),
}


def _emit_path_checkpoint(sink, rank, task, lams, results, warm,
                          params) -> None:
    """One path checkpoint: completed points + the warm-start vector.

    Coarser-grained than solver checkpoints: a path resumes at the last
    completed grid point (each point's solve re-runs from its warm
    start), which keeps the payload to finished results only.
    """
    kind, _, warm_key, _ = _PATH_TASK[task]
    payload = {
        "format_version": PATH_CHECKPOINT_VERSION,
        "kind": kind,
        "lambdas": np.asarray(lams, dtype=np.float64).tolist(),
        "completed": len(results),
        "params": dict(params),
        "results": [result_to_dict(r) for r in results],
        warm_key: None if warm is None else np.asarray(warm).tolist(),
    }
    emit_solver_checkpoint(payload, sink, rank)


#: (field, what it must be, check) for each field of a path checkpoint
#: that :func:`_load_path_checkpoint` reads, bar the warm start
_PATH_FIELDS = fields(
    ("a list of numbers", list_of(is_num), "lambdas"),
    ("an integer", is_int, "completed"),
    ("an object", is_obj, "params"),
    ("a list of objects", list_of(is_obj), "results"),
)


def _load_path_checkpoint(source, task, lams, params, warm_len) -> tuple:
    """Validate + unpack a path checkpoint: (grid, results, warm). A
    field that is missing or of the wrong type raises
    :class:`CheckpointError` naming the file and the field, before any
    point runs."""
    kind, _, warm_key, _ = _PATH_TASK[task]
    if isinstance(source, dict):
        ck, where = source, "path checkpoint"
    else:
        ck = read_checkpoint_json(source, "path checkpoint")
        where = f"path checkpoint {os.fspath(source)!r}"
    if ck.get("kind") != kind:
        raise CheckpointError(f"resume_from is not a {kind} checkpoint")
    if ck.get("format_version") != PATH_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported path checkpoint format_version"
            f" {ck.get('format_version')!r}"
        )
    check_fields(ck, _PATH_FIELDS, where)
    if ck["completed"] > 0:
        check_fields(ck, fields(("a list of numbers", list_of(is_num), warm_key)),
                     where)
    want = np.asarray(lams, dtype=np.float64)
    got = np.asarray(ck["lambdas"], dtype=np.float64)
    # a default grid scales lambda_max, an Allreduce whose summation
    # order follows the rank count: equal grids agree to rounding only
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12,
                                                   atol=0.0):
        raise CheckpointError(
            "path checkpoint was written for a different lambda grid"
        )
    have = ck["params"]
    for key, val in params.items():
        if have.get(key) != val:
            raise CheckpointError(
                f"path checkpoint parameter mismatch: {key}="
                f"{have.get(key)!r} vs {val!r}"
            )
    completed, res_dicts = ck["completed"], ck["results"]
    if completed != len(res_dicts):
        raise CheckpointError("path checkpoint completed/results disagree")
    if completed > want.size:
        raise CheckpointError("path checkpoint has more points than the grid")
    try:
        results = [result_from_dict(d) for d in res_dicts]
    except SolverError as exc:
        raise CheckpointError(
            f"path checkpoint holds a malformed result: {exc}"
        ) from exc
    # the warm start sits at the payload's top level, where a solver
    # checkpoint keeps its vectors under "state"
    warm = state_vector({"state": ck}, warm_key, warm_len) if results else None
    return got, results, warm


def adaptive_schedule(
    n_points: int,
    max_iter: int,
    tol: float | None,
    tol_factor: float = 100.0,
    iter_factor: float = 0.25,
) -> list[tuple[int, float | None]]:
    """Per-point ``(max_iter, tol)`` budgets: loose early, tight late.

    Early grid points exist to warm-start later ones — solving them to
    the final tolerance wastes iterations on solutions nobody reads.
    Point ``i`` of ``n`` (solve order) gets ``tol * tol_factor^(1 - f)``
    and ``max_iter * (iter_factor + (1 - iter_factor) f)`` with
    ``f = i/(n-1)``; the *last* point always gets exactly ``(max_iter,
    tol)``, so the returned solution satisfies the caller's tolerance —
    tested to match the cold solve. ``tol=None`` stays None (budget-only
    points) while the iteration ramp still applies.
    """
    if n_points < 1:
        raise SolverError(f"n_points must be >= 1, got {n_points}")
    if tol_factor < 1.0 or not (0.0 < iter_factor <= 1.0):
        raise SolverError(
            f"need tol_factor >= 1 and 0 < iter_factor <= 1, got "
            f"({tol_factor}, {iter_factor})"
        )
    out = []
    for i in range(n_points):
        f = 1.0 if n_points == 1 else i / (n_points - 1)
        it = max(1, int(round(max_iter * (iter_factor + (1.0 - iter_factor) * f))))
        t = None if tol is None else tol * tol_factor ** (1.0 - f)
        out.append((it, t))
    return out


class SweepContext:
    """Shared state for a multi-solve sweep over one dataset.

    Parameters
    ----------
    A, b:
        Data matrix (global dense/CSR, or an already-partitioned
        :class:`RowPartitionedMatrix` / :class:`ColPartitionedMatrix`
        whose communicator is then adopted) and the label vector.
    task:
        ``"lasso"`` (row partition) or ``"svm"`` (column partition).
    comm, virtual_p, machine:
        Communicator, or the virtual-P model to build one from.

    The context builds the partitioned matrix **once**; every solve
    through it reuses the cached sampling views, gather workspace,
    packed-collective buffers, and Gram output buffers. :meth:`solve`
    is the one point step of every sweep: the path loop of
    :func:`lasso_path` / :func:`svm_path`, each
    :class:`~repro.streaming.StreamingSweep` refit (and through it each
    serve tenant's) and the cold re-solves of
    :func:`~repro.streaming.replay_schedule`.

    The context **takes ownership of the communicator's ledger**: it is
    zeroed at every :meth:`solve` — including for an adopted
    communicator — so per-point modelled costs never accumulate
    silently; the sweep total stays available as :attr:`total_cost`. If
    a communicator's pre-sweep totals must survive, build the context
    from a fresh sibling instead (``SweepContext(A, b, comm=
    parent.child())`` — see :meth:`VirtualComm.child`).
    """

    def __init__(
        self,
        A,
        b,
        *,
        task: str = "lasso",
        comm: Comm | None = None,
        virtual_p: int = 1,
        machine: MachineSpec | None = None,
        eig_memo: EigMemo | None = None,
    ) -> None:
        if task not in ("lasso", "svm"):
            raise SolverError(f"unknown sweep task {task!r}; known: ['lasso', 'svm']")
        self.task = task
        if isinstance(A, (RowPartitionedMatrix, ColPartitionedMatrix)):
            want = RowPartitionedMatrix if task == "lasso" else ColPartitionedMatrix
            if not isinstance(A, want):
                raise SolverError(
                    f"{task} sweeps need a {want.__name__}, got {type(A).__name__}"
                )
            self.dist = A
        else:
            if comm is None:
                comm = VirtualComm(virtual_size=virtual_p, machine=machine)
            cls = RowPartitionedMatrix if task == "lasso" else ColPartitionedMatrix
            self.dist = cls.from_global(A, comm)
        self.comm = self.dist.comm
        self._fingerprint = _data_fingerprint(A)
        self.b = np.asarray(b, dtype=np.float64).ravel()
        #: the eigenvalue memo every solve through this context consults
        #: (threaded into the SA solvers via ``fit_lasso(eig_memo=)``).
        #: By default this is a reference to the *process-wide* memo: it
        #: persists across points and sweeps, which is what lets a
        #: repeated sampled-block stream skip its eigensolves — and it
        #: is shared with every other sweep in the process. Pass an
        #: explicit ``eig_memo=EigMemo()`` to isolate this sweep
        #: (concurrent sweeps/ranks then never contend on one memo).
        #: Exposed for hit-rate inspection (``ctx.eig_memo.hit_rate``).
        self.eig_memo: EigMemo = (
            eig_memo if eig_memo is not None else default_eig_memo()
        )
        self.point_costs: list[CostSnapshot] = []

    def check_problem(self, A, b) -> None:
        """Reject a (A, b) pair that is not this context's problem.

        ``lasso_path``/``svm_path`` solve the *context's* dataset when
        ``context=`` is given; this guard turns a silently-wrong sweep
        (results labelled with the caller's data but computed on the
        context's) into an error. ``A`` is matched by shape plus a
        content fingerprint (weighted column sums + abs-sum), so a
        rescaled, column-permuted, or re-generated same-shape matrix is
        caught, not just a wrong-shaped one. Passing the context's own
        ``dist`` skips the check (always valid).
        """
        if A is not self.dist:
            shape = getattr(A, "shape", None)
            if shape != self.dist.shape:
                raise SolverError(
                    f"context holds a {self.dist.shape} matrix, got A with "
                    f"shape {shape}"
                )
            if self._fingerprint is None:
                self._fingerprint = _data_fingerprint(self.dist)
            if not _fingerprints_match(_data_fingerprint(A), self._fingerprint):
                raise SolverError(
                    "context was built for a different data matrix A "
                    "(same shape, different values)"
                )
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.shape != self.b.shape or not np.array_equal(b, self.b):
            raise SolverError("context was built for a different label vector b")

    def refresh_problem(self, b=None) -> None:
        """Mark the problem signature stale after an in-place data mutation.

        The streaming engine appends rows to the context's partitioned
        matrix between solves; without this, :meth:`check_problem` would
        keep comparing against the pre-append fingerprint (and the stale
        label vector) and reject the context's own data. The fingerprint
        is recomputed from the mutated shard when :meth:`check_problem`
        next needs it, so a stream of mutations with no check between
        them pays for none.
        """
        if b is not None:
            self.b = np.asarray(b, dtype=np.float64).ravel()
        self._fingerprint = None

    def solve(self, lam, warm=None, *, solver: str, s: int, max_iter: int,
              tol: float | None, seed: int, record_every: int, fast: bool,
              schedule: Schedule, mu: int = 1,
              loss: str = "l1") -> SolverResult:
        """One point of the sweep: zero the ledger, solve, bank the cost.

        The solve runs the schedule :meth:`resolve` picks, through the
        context's partitioned
        matrix (and, for Lasso, its eigenvalue memo). ``warm`` is the
        warm start: the primal ``x0`` for Lasso, or the dual ``alpha0``
        for SVM, clipped to the dual box of this point's ``lam``.
        ``mu`` is Lasso's and ``loss`` SVM's; every other knob is
        :func:`repro.fit_lasso`'s / :func:`repro.fit_svm`'s, and a Lasso
        ``lam`` may be a :class:`~repro.prox.penalties.Penalty`. The
        result's ``cost`` is this point's alone and is appended to
        :attr:`point_costs`.
        """
        schedule = self.resolve(schedule, solver, s=s, mu=mu, tol=tol)
        self.comm.reset()
        knobs = dict(solver=solver, s=s, max_iter=max_iter, tol=tol,
                     seed=seed, comm=self.comm, record_every=record_every,
                     fast=fast, schedule=schedule)
        if self.task == "lasso":
            res = fit_lasso(self.dist, self.b, lam, mu=mu, x0=warm,
                            eig_memo=self.eig_memo, **knobs)
        else:
            lam = float(lam)
            if warm is not None:
                _, nu = loss_params(loss, lam)
                if np.isfinite(nu):
                    warm = np.clip(warm, 0.0, nu)
            res = fit_svm(self.dist, self.b, loss=loss, lam=lam, alpha0=warm,
                          **knobs)
        self.point_costs.append(res.cost)
        return res

    def resolve(self, schedule: Schedule, solver: str, *, s: int, mu: int,
                tol: float | None) -> Schedule:
        """The schedule a :meth:`solve` of ``solver`` at ``s``, ``mu`` and
        ``tol`` runs: ``schedule.for_sweep`` (see
        :class:`~repro.solvers.outer.Schedule`) on this context's
        communicator, for outer steps of ``s * mu`` columns (Lasso) or
        ``s`` rows (SVM, whose record tails are ``m + 1`` words)."""
        lasso = self.task == "lasso"
        return schedule.for_sweep(
            check_solver(solver, self.task), self.comm,
            k=s * mu if lasso else s,
            tail=1 if lasso else self.dist.shape[0] + 1, tol=tol)

    @property
    def total_cost(self) -> CostSnapshot:
        """Modelled cost of the whole sweep so far (summed points)."""
        return sum(self.point_costs, CostSnapshot.zero())


@dataclass
class PathResult:
    """Outcome of one regularization-path sweep."""

    task: str
    #: the grid actually solved, in solve order
    lambdas: np.ndarray
    #: one :class:`SolverResult` per grid point (``cost`` is per-point)
    results: list[SolverResult]
    #: the live sweep context (``None`` when the sweep ran on a real
    #: SPMD backend — the context lives and dies inside the worker ranks)
    context: SweepContext | None
    warm_start: bool = True
    extras: dict = field(default_factory=dict)

    @property
    def coefs(self) -> np.ndarray:
        """Solutions stacked as (n_points, n)."""
        return np.stack([r.x for r in self.results])

    @property
    def iterations(self) -> list[int]:
        """Iterations each point ran (warm starts shrink these)."""
        return [r.iterations for r in self.results]

    @property
    def final_metrics(self) -> np.ndarray:
        """Final objective (Lasso) / duality gap (SVM) per point."""
        return np.array([r.final_metric for r in self.results])

    @property
    def total_cost(self) -> CostSnapshot:
        """Modelled cost of the whole sweep (summed per-point costs)."""
        return sum((r.cost for r in self.results), CostSnapshot.zero())

    def support_sizes(self, atol: float = 0.0) -> list[int]:
        """Non-zero count of each point's solution (Lasso sparsity trace)."""
        return [int(np.sum(np.abs(r.x) > atol)) for r in self.results]

    def __len__(self) -> int:
        return len(self.results)


def _lambda_max_dist(dist: RowPartitionedMatrix, b: np.ndarray) -> float:
    """``||A^T b||_inf`` from the row-partitioned shard (instrumentation)."""
    lo, hi = dist.partition.range_of(dist.comm.rank)
    with dist.comm.ledger.paused():
        part = np.asarray(dist.local.T @ b[lo:hi]).ravel()
        g = np.asarray(dist.comm.Allreduce(part, timeout=dist.comm.timeout)).ravel()
    return float(np.max(np.abs(g))) if g.size else 0.0


def lambda_grid(lam_max: float, n_lambdas: int = 16, eps: float = 1e-3) -> np.ndarray:
    """Descending geometric grid ``lam_max * [1, ..., eps]``.

    The standard path grid: the first point (``lam_max``) has ``x = 0``
    optimal, and each subsequent point shrinks lambda geometrically down
    to ``eps * lam_max``.
    """
    if n_lambdas < 1:
        raise SolverError(f"n_lambdas must be >= 1, got {n_lambdas}")
    if not (0.0 < eps <= 1.0):
        raise SolverError(f"eps must be in (0, 1], got {eps}")
    if lam_max <= 0.0:
        raise SolverError(f"lam_max must be positive, got {lam_max}")
    if n_lambdas == 1:
        return np.array([lam_max])
    return lam_max * np.geomspace(1.0, eps, n_lambdas)


def _sweep(task, A, b, grid, knobs, *, warm_start, adaptive,
           adapt_tol_factor, adapt_iter_factor, comm, virtual_p, machine,
           context, checkpoint_every, checkpoint_sink, resume_from, backend,
           ranks, recover, max_recoveries) -> PathResult:
    """The point loop of :func:`lasso_path` and :func:`svm_path`.

    ``grid(ctx)`` returns the lambdas in solve order, and ``knobs`` are
    :meth:`SweepContext.solve`'s. On a real backend the whole loop runs
    on every rank, with the supervisor's checkpoint knobs, and rank 0's
    results come back without the context.
    """
    check_launch(backend, recover, comm)
    check_solver(knobs["solver"], task)
    if backend != "virtual" and context is not None:
        raise SolverError(
            "context= holds a live SweepContext and cannot be shipped"
            " to a real backend; drop context= or use backend='virtual'"
        )
    _, key, _, axis = _PATH_TASK[task]

    def work(wcomm, wrank):
        ck = (checkpoint_every, checkpoint_sink, resume_from)
        if backend != "virtual":
            ck = recovery_knobs(wcomm, *ck, default_every=1)
        ck_every, ck_sink, ck_resume = ck
        ctx = context
        if ctx is None:
            ctx = SweepContext(A, b, task=task, comm=wcomm)
        elif ctx.task != task:
            raise SolverError(f"context is a {ctx.task!r} sweep, need {task!r}")
        else:
            ctx.check_problem(A, b)
        lams = grid(ctx)
        if adaptive:
            budgets = adaptive_schedule(
                lams.size, knobs["max_iter"], knobs["tol"],
                tol_factor=adapt_tol_factor, iter_factor=adapt_iter_factor,
            )
        else:
            budgets = [(knobs["max_iter"], knobs["tol"])] * lams.size
        params = {"solver": knobs["solver"], key: knobs[key], "s": knobs["s"],
                  "seed": knobs["seed"], "warm_start": warm_start,
                  "adaptive": adaptive}
        results: list[SolverResult] = []
        warm = None
        if ck_resume is not None:
            lams, results, warm = _load_path_checkpoint(
                ck_resume, task, lams, params, ctx.dist.shape[axis]
            )
            ctx.point_costs.extend(res.cost for res in results)
        for lam, (it_i, tol_i) in list(zip(lams, budgets,
                                           strict=True))[len(results):]:
            res = ctx.solve(float(lam), warm if warm_start else None,
                            **dict(knobs, max_iter=it_i, tol=tol_i))
            results.append(res)
            warm = res.x if task == "lasso" else res.extras["alpha"]
            if (
                ck_sink is not None
                and ck_every
                and len(results) % ck_every == 0
                and len(results) < lams.size
            ):
                _emit_path_checkpoint(ck_sink, ctx.comm.rank, task, lams,
                                      results, warm, params)
        ran = ctx.resolve(knobs["schedule"], knobs["solver"], s=knobs["s"],
                          mu=knobs.get("mu", 1), tol=knobs["tol"])
        return PathResult(
            task=task, lambdas=lams, results=results,
            # a live context cannot cross back from a real backend's ranks
            context=ctx if backend == "virtual" else None,
            warm_start=warm_start,
            extras={"solver": knobs["solver"], key: knobs[key],
                    "s": knobs["s"], **ran.report(), "adaptive": adaptive,
                    "recovery": recovery_counters(ctx.comm)},
        )

    return launch(
        work, backend=backend,
        comm=comm if context is None else context.comm, ranks=ranks,
        virtual_p=virtual_p, machine=machine, recover=recover,
        max_recoveries=max_recoveries,
        nb_depth=knobs["schedule"].depth,
    )


def lasso_path(
    A,
    b,
    lambdas=None,
    *,
    n_lambdas: int = 16,
    eps: float = 1e-3,
    solver: str = "sa-accbcd",
    mu: int = 8,
    s: int = 16,
    max_iter: int = 500,
    tol: float | None = 1e-6,
    seed: int = 0,
    record_every: int = 10,
    warm_start: bool = True,
    fast: bool = True,
    schedule: Schedule = SWEEP_SCHEDULE,
    adaptive: bool = False,
    adapt_tol_factor: float = 100.0,
    adapt_iter_factor: float = 0.25,
    comm: Comm | None = None,
    virtual_p: int = 1,
    machine: MachineSpec | None = None,
    context: SweepContext | None = None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
    backend: str = "virtual",
    ranks: int = 4,
    recover: str = "raise",
    max_recoveries: int = 2,
) -> PathResult:
    """Solve a Lasso problem over a descending lambda grid with warm starts.

    Parameters
    ----------
    lambdas:
        Explicit grid (solved in descending order). Default: a geometric
        grid of ``n_lambdas`` points from ``lambda_max`` (the smallest
        lambda with ``x = 0`` optimal) down to ``eps * lambda_max``.
    warm_start:
        Thread each point's solution into the next solve as ``x0``
        (default). ``False`` gives independent solves that still share
        the context's caches.
    schedule:
        A :class:`~repro.solvers.outer.Schedule`, resolved per point by
        its :meth:`~repro.solvers.outer.Schedule.for_sweep`. The default,
        :data:`~repro.solvers.outer.SWEEP_SCHEDULE` (the async ring at
        ``tau = 1``), runs an SA point on more than one modelled rank
        with each inner loop overlapping the next reduction's transit:
        blocking's iterates and histories to rounding and its messages,
        each post carrying the cross Gram of its block with the previous
        one. A point with ``tol`` set, or whose largest post would not
        fit the backend's nonblocking slot, runs the pipelined ring
        instead: blocking's iterates, histories, messages and words bit
        for bit.
        Each solve drains its in-flight reductions, so the communicator
        is clean at every warm-start hand-off. ``extras`` records what
        ran as its ``report()`` keys.
    adaptive:
        Loosen per-point budgets along the grid (see
        :func:`adaptive_schedule`): intermediate points — which exist
        only to warm-start their successors — get ``tol *
        adapt_tol_factor^(1-f)`` and an iteration ramp starting at
        ``adapt_iter_factor * max_iter``; the final point always runs at
        exactly ``(max_iter, tol)``, so its solution matches a cold
        solve at the same tolerance.
    context:
        Reuse an existing :class:`SweepContext` (e.g. to run several
        sweeps — different solvers, grids, seeds — against one dataset).
    tol, record_every:
        Stopping tolerance, checked at recording points — keep
        ``record_every >= 1`` or every solve runs its full ``max_iter``.
        SA solves record at iteration 0 and at the outer-step
        boundaries that cross a multiple of ``record_every``, each
        record riding the next Gram reduction as one word: a point
        costs one Gram reduction per outer step (posted nonblocking on
        the default ring) plus one blocking scalar sync (its last
        objective), and a
        converged point returns the iterate its last record describes,
        one unused Gram reduction later (see :func:`repro.fit_lasso`).
        ``tol`` then compares objectives one or more outer steps
        apart: with the defaults every outer step of 16 iterations
        records, not every 10 iterations.
    checkpoint_every / checkpoint_sink / resume_from:
        Path-level fault tolerance: every ``checkpoint_every`` completed
        grid points, emit a checkpoint (callable sink, or a path written
        atomically by rank 0) carrying the finished results and the
        warm-start vector; ``resume_from`` skips those points and
        continues the sweep (the solver knobs must match, and the grid
        to 1e-12 relative: a default grid's ``lambda_max`` is summed in
        an order that follows the rank count).
    backend, ranks, recover, max_recoveries:
        As in :func:`repro.fit_lasso`: run the whole sweep SPMD on a
        real backend (``context=`` must be None — a live
        :class:`SweepContext` cannot cross process boundaries; the
        returned :class:`PathResult` carries ``context=None``). Under
        ``recover="checkpoint"`` the supervisor resumes a respawned
        sweep at the last *completed grid point* via the path
        checkpoints (forced on, every point, when the caller left
        ``checkpoint_every=0``). ``extras["recovery"]`` carries the
        run's ``recoveries``, ``respawns`` and ``replayed_iterations``
        (completed points a resume skipped), all 0 when the run is not
        supervised; the per-point costs cannot, since each point's
        ledger is reset.

    All other knobs match :func:`repro.fit_lasso`.
    """

    def grid(ctx):
        if lambdas is not None:
            lams = np.sort(np.asarray(lambdas, dtype=np.float64).ravel())[::-1]
            if lams.size == 0:
                raise SolverError("lambdas must be non-empty")
            return lams
        lam_max = _lambda_max_dist(ctx.dist, ctx.b)
        if lam_max <= 0.0:
            raise SolverError(
                "cannot build a default grid: ||A^T b||_inf is 0 (pass lambdas=)"
            )
        return lambda_grid(lam_max, n_lambdas=n_lambdas, eps=eps)

    return _sweep(
        "lasso", A, b, grid,
        dict(solver=solver, mu=mu, s=s, max_iter=max_iter, tol=tol,
             seed=seed, record_every=record_every, fast=fast,
             schedule=schedule),
        warm_start=warm_start, adaptive=adaptive,
        adapt_tol_factor=adapt_tol_factor,
        adapt_iter_factor=adapt_iter_factor, comm=comm, virtual_p=virtual_p,
        machine=machine, context=context, checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink, resume_from=resume_from,
        backend=backend, ranks=ranks, recover=recover,
        max_recoveries=max_recoveries,
    )


def svm_path(
    A,
    b,
    lams=None,
    *,
    n_lambdas: int = 8,
    loss: str = "l1",
    solver: str = "sa-svm",
    s: int = 16,
    max_iter: int = 5000,
    tol: float | None = None,
    seed: int = 0,
    record_every: int = 0,
    warm_start: bool = True,
    fast: bool = True,
    schedule: Schedule = SWEEP_SCHEDULE,
    adaptive: bool = False,
    adapt_tol_factor: float = 100.0,
    adapt_iter_factor: float = 0.25,
    comm: Comm | None = None,
    virtual_p: int = 1,
    machine: MachineSpec | None = None,
    context: SweepContext | None = None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
    backend: str = "virtual",
    ranks: int = 4,
    recover: str = "raise",
    max_recoveries: int = 2,
) -> PathResult:
    """Train SVMs over an ascending penalty (C) grid with dual warm starts.

    The grid is solved in *ascending* order: the hinge loss caps each
    dual coordinate at ``nu = lam``, so a solution for a smaller ``lam``
    is always feasible for the next larger one — the warm start never
    needs projection (it is still clipped defensively). Each point's
    dual ``alpha`` seeds the next solve; the primal is rebuilt from it
    (Alg. 3 line 2). Default grid: ``n_lambdas`` points geometric in
    ``[0.1, 10]`` around the paper's ``C = 1``.

    ``schedule`` and ``adaptive`` mirror :func:`lasso_path`: by default
    an ``sa-svm`` point on more than one modelled rank runs the async
    ring at ``tau = 1`` (``s`` rows per step) or, with ``tol`` set or
    where its cross Grams would cost more than its reduction, the
    pipelined ring, and ``extras`` records the schedule that ran. Adaptive
    budgets loosen the *duality-gap* tolerance early on the grid; the
    final point always runs at exactly ``(max_iter, tol)``.

    ``checkpoint_every``/``checkpoint_sink``/``resume_from`` and
    ``backend``/``ranks``/``recover``/``max_recoveries`` mirror
    :func:`lasso_path`: a path checkpoint (``kind="svm-path"``) carries
    the finished results and the warm dual ``alpha_warm``, and
    ``recover="checkpoint"`` resumes a recovered sweep at its last
    completed grid point.
    """

    def grid(ctx):
        if lams is None:
            return np.geomspace(0.1, 10.0, n_lambdas)
        lam_grid = np.sort(np.asarray(lams, dtype=np.float64).ravel())
        if lam_grid.size == 0:
            raise SolverError("lams must be non-empty")
        return lam_grid

    return _sweep(
        "svm", A, b, grid,
        dict(solver=solver, loss=loss, s=s, max_iter=max_iter, tol=tol,
             seed=seed, record_every=record_every, fast=fast,
             schedule=schedule),
        warm_start=warm_start, adaptive=adaptive,
        adapt_tol_factor=adapt_tol_factor,
        adapt_iter_factor=adapt_iter_factor, comm=comm, virtual_p=virtual_p,
        machine=machine, context=context, checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink, resume_from=resume_from,
        backend=backend, ranks=ranks, recover=recover,
        max_recoveries=max_recoveries,
    )
