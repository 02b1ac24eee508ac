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
  cost), and the persistent eigenvalue memo shared by every solve.
* :func:`lasso_path` / :func:`svm_path` walk a lambda grid, threading
  each point's solution (primal ``x`` for Lasso, dual ``alpha`` for SVM)
  into the next solve as a warm start.

Warm-started path solves are the standard trick that makes coordinate
methods competitive in practice; combined with the shared context the
sweep runs several times faster than independent cold solves
(``benchmarks/bench_path_sweep.py`` tracks the trajectory in
``BENCH_path_sweep.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro._api import fit_lasso, fit_svm
from repro.checkpoint import emit_solver_checkpoint
from repro.errors import CheckpointError, SolverError
from repro.launch import check_launch, launch, recovery_knobs
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.linalg.kernels import EigMemo, default_eig_memo
from repro.machine.ledger import CostSnapshot
from repro.machine.spec import MachineSpec
from repro.mpi.comm import Comm
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.base import SolverResult
from repro.solvers.outer import ring_depth, sweep_schedule
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


def _emit_path_checkpoint(sink, rank, lams, results, x_warm, params) -> None:
    """One path checkpoint: completed points + the warm-start vector.

    Coarser-grained than solver checkpoints: a path resumes at the last
    completed grid point (each point's solve re-runs from its warm
    start), which keeps the payload to finished results only.
    """
    payload = {
        "format_version": PATH_CHECKPOINT_VERSION,
        "kind": "lasso-path",
        "lambdas": np.asarray(lams, dtype=np.float64).tolist(),
        "completed": len(results),
        "params": dict(params),
        "results": [result_to_dict(r) for r in results],
        "x_warm": None if x_warm is None else np.asarray(x_warm).tolist(),
    }
    emit_solver_checkpoint(payload, sink, rank)


def _load_path_checkpoint(source, lams, params) -> tuple:
    """Validate + unpack a path checkpoint: (results, x_warm)."""
    if isinstance(source, dict):
        ck = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                ck = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"could not read path checkpoint {source!r}: {exc}"
            ) from exc
    if not isinstance(ck, dict) or ck.get("kind") != "lasso-path":
        raise CheckpointError("resume_from is not a lasso-path checkpoint")
    if ck.get("format_version") != PATH_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported path checkpoint format_version"
            f" {ck.get('format_version')!r}"
        )
    want = np.asarray(lams, dtype=np.float64)
    got = np.asarray(ck.get("lambdas", []), dtype=np.float64)
    if got.shape != want.shape or not np.array_equal(got, want):
        raise CheckpointError(
            "path checkpoint was written for a different lambda grid"
        )
    have = ck.get("params", {})
    for key, val in params.items():
        if have.get(key) != val:
            raise CheckpointError(
                f"path checkpoint parameter mismatch: {key}="
                f"{have.get(key)!r} vs {val!r}"
            )
    completed = ck.get("completed", 0)
    res_dicts = ck.get("results", [])
    if not isinstance(completed, int) or completed != len(res_dicts):
        raise CheckpointError("path checkpoint completed/results disagree")
    if completed > want.size:
        raise CheckpointError("path checkpoint has more points than the grid")
    try:
        results = [result_from_dict(d) for d in res_dicts]
    except SolverError as exc:
        raise CheckpointError(
            f"path checkpoint holds a malformed result: {exc}"
        ) from exc
    x_warm = ck.get("x_warm")
    if x_warm is not None:
        x_warm = np.asarray(x_warm, dtype=np.float64)
    return results, x_warm


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
    packed-collective buffers, and Gram output buffers.

    The context **takes ownership of the communicator's ledger**: it is
    zeroed at every :meth:`begin_point` — including for an adopted
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
        balance_nnz: bool = True,
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
            self.dist = cls.from_global(A, comm, balance_nnz=balance_nnz)
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
            if not _fingerprints_match(_data_fingerprint(A), self._fingerprint):
                raise SolverError(
                    "context was built for a different data matrix A "
                    "(same shape, different values)"
                )
        b = np.asarray(b, dtype=np.float64).ravel()
        if b.shape != self.b.shape or not np.array_equal(b, self.b):
            raise SolverError("context was built for a different label vector b")

    def refresh_problem(self, b=None) -> None:
        """Re-derive the problem signature after an in-place data mutation.

        The streaming engine appends rows to the context's partitioned
        matrix between solves; without this, :meth:`check_problem` would
        keep comparing against the pre-append fingerprint (and the stale
        label vector) and reject the context's own data.
        """
        if b is not None:
            self.b = np.asarray(b, dtype=np.float64).ravel()
        self._fingerprint = _data_fingerprint(self.dist)

    # -- per-point ledger discipline ---------------------------------------
    def begin_point(self) -> None:
        """Zero the ledger so the next solve reports per-point cost."""
        self.comm.reset()

    def end_point(self, result: SolverResult) -> None:
        """Bank one solve's per-point cost into the sweep total."""
        self.point_costs.append(result.cost)

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
    pipeline: bool = True,
    async_: bool = False,
    tau: int = 1,
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
    pipeline:
        Overlap each SA solve's Gram reduction (the default): on more
        than one modelled rank every SA point runs the pipelined
        ``tau = 0`` ring, which posts the reduction and samples and packs
        the next outer step while it is in flight. Iterates, histories,
        iteration counts, messages and words equal the blocking
        schedule's, and the modelled ``comm_seconds`` falls by the
        ``comm_seconds_hidden`` the ledger credits. A point stopped by
        ``tol`` has also sampled and packed the outer step after its
        converged record, which a blocking point never starts, so its
        flops exceed blocking's by that one step's gather and partial
        Gram. A solve on one rank (the default ``virtual_p=1``, whose
        reductions are charged nothing) and a classical solver
        (``bcd``, ``accbcd``) have nothing to overlap and run blocking
        whatever ``pipeline`` says; ``pipeline=False`` runs every point
        blocking. See :func:`~repro.solvers.outer.sweep_schedule`.
    async_, tau:
        Run every SA solve with the bounded-staleness outer loop
        (convergence-to-tolerance contract; see :func:`repro.fit_lasso`);
        takes precedence over ``pipeline``. Each solve drains its
        in-flight reductions before returning, so the shared
        communicator's nonblocking ring is clean at every warm-start
        hand-off. ``extras`` records the schedule that ran:
        ``pipeline`` is False on one rank, for a classical solver and
        for an async run.
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
        SA solves record at the outer-step boundaries that cross a
        multiple of ``record_every``, each record riding the next Gram
        reduction as one word: a point costs one Gram reduction per
        outer step (posted nonblocking on the default ring) plus two
        blocking scalar syncs (its first and last objective), and a
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
        continues the sweep (the grid and solver knobs must match).
    backend, ranks, recover, max_recoveries:
        As in :func:`repro.fit_lasso`: run the whole sweep SPMD on a
        real backend (``context=`` must be None — a live
        :class:`SweepContext` cannot cross process boundaries; the
        returned :class:`PathResult` carries ``context=None``). Under
        ``recover="checkpoint"`` the supervisor resumes a respawned
        sweep at the last *completed grid point* via the path
        checkpoints (forced on, every point, when the caller left
        ``checkpoint_every=0``).

    All other knobs match :func:`repro.fit_lasso`.
    """
    check_launch(backend, recover, comm)
    if backend != "virtual":
        if context is not None:
            raise SolverError(
                "context= holds a live SweepContext and cannot be shipped"
                " to a real backend; drop context= or use backend='virtual'"
            )

        def work(wcomm, wrank):
            ck_every, ck_sink, ck_resume = recovery_knobs(
                wcomm, checkpoint_every, checkpoint_sink, resume_from,
                default_every=1,
            )
            inner = lasso_path(
                A, b, lambdas, n_lambdas=n_lambdas, eps=eps, solver=solver,
                mu=mu, s=s, max_iter=max_iter, tol=tol, seed=seed,
                record_every=record_every, warm_start=warm_start,
                fast=fast, pipeline=pipeline,
                async_=async_, tau=tau,
                adaptive=adaptive, adapt_tol_factor=adapt_tol_factor,
                adapt_iter_factor=adapt_iter_factor, comm=wcomm,
                checkpoint_every=ck_every, checkpoint_sink=ck_sink,
                resume_from=ck_resume,
            )
            # the SweepContext (and its comm) stays in the worker; only
            # picklable parts cross back to the parent
            return {
                "lambdas": inner.lambdas, "results": inner.results,
                "warm_start": inner.warm_start, "extras": inner.extras,
            }

        part = launch(
            work, backend=backend, ranks=ranks, virtual_p=virtual_p,
            machine=machine, recover=recover, max_recoveries=max_recoveries,
            nb_depth=ring_depth(async_, tau),
        )
        return PathResult(
            task="lasso", lambdas=part["lambdas"], results=part["results"],
            context=None, warm_start=part["warm_start"],
            extras=part["extras"],
        )
    ctx = context
    if ctx is None:
        ctx = SweepContext(
            A, b, task="lasso", comm=comm, virtual_p=virtual_p, machine=machine
        )
    else:
        if ctx.task != "lasso":
            raise SolverError(f"context is a {ctx.task!r} sweep, need 'lasso'")
        ctx.check_problem(A, b)
    if lambdas is None:
        lam_max = _lambda_max_dist(ctx.dist, ctx.b)
        if lam_max <= 0.0:
            raise SolverError(
                "cannot build a default grid: ||A^T b||_inf is 0 (pass lambdas=)"
            )
        lams = lambda_grid(lam_max, n_lambdas=n_lambdas, eps=eps)
    else:
        lams = np.sort(np.asarray(lambdas, dtype=np.float64).ravel())[::-1]
        if lams.size == 0:
            raise SolverError("lambdas must be non-empty")
    if adaptive:
        budgets = adaptive_schedule(
            lams.size, max_iter, tol,
            tol_factor=adapt_tol_factor, iter_factor=adapt_iter_factor,
        )
    else:
        budgets = [(max_iter, tol)] * lams.size
    ck_params = {
        "solver": solver, "mu": mu, "s": s, "seed": seed,
        "warm_start": warm_start, "adaptive": adaptive,
    }
    pipeline, async_ = sweep_schedule(solver, pipeline, async_,
                                      ctx.comm.cost_size)
    results: list[SolverResult] = []
    x_warm = None
    if resume_from is not None:
        results, x_warm = _load_path_checkpoint(resume_from, lams, ck_params)
        for res in results:
            ctx.end_point(res)
    for lam, (it_i, tol_i) in list(zip(lams, budgets, strict=True))[len(results):]:
        ctx.begin_point()
        res = fit_lasso(
            ctx.dist, ctx.b, float(lam), solver=solver, mu=mu, s=s,
            max_iter=it_i, seed=seed, tol=tol_i, comm=ctx.comm,
            record_every=record_every, x0=x_warm if warm_start else None,
            fast=fast, pipeline=pipeline,
            async_=async_, tau=tau, eig_memo=ctx.eig_memo,
        )
        ctx.end_point(res)
        results.append(res)
        x_warm = res.x
        if (
            checkpoint_sink is not None
            and checkpoint_every
            and len(results) % checkpoint_every == 0
            and len(results) < lams.size
        ):
            _emit_path_checkpoint(
                checkpoint_sink, ctx.comm.rank, lams, results, x_warm,
                ck_params,
            )
    return PathResult(
        task="lasso", lambdas=lams, results=results, context=ctx,
        warm_start=warm_start,
        extras={"solver": solver, "mu": mu, "s": s,
                "pipeline": pipeline, "async": async_, "tau": tau,
                "adaptive": adaptive},
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
    pipeline: bool = True,
    async_: bool = False,
    tau: int = 1,
    adaptive: bool = False,
    adapt_tol_factor: float = 100.0,
    adapt_iter_factor: float = 0.25,
    comm: Comm | None = None,
    virtual_p: int = 1,
    machine: MachineSpec | None = None,
    context: SweepContext | None = None,
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

    ``pipeline``, ``async_``/``tau`` and ``adaptive`` mirror
    :func:`lasso_path`: by default every ``sa-svm`` point on more than
    one modelled rank runs the pipelined ``tau = 0`` ring, with the same
    alphas, histories, iteration counts, messages and words as
    ``pipeline=False``; one rank and the classical ``svm`` solver run
    blocking, and ``extras`` records the schedule that ran. Adaptive
    budgets loosen the *duality-gap* tolerance early on the grid; the
    final point always runs at exactly ``(max_iter, tol)``.

    ``backend``/``ranks``/``recover``/``max_recoveries`` mirror
    :func:`lasso_path`, except the SVM sweep has no path checkpoints:
    ``recover="checkpoint"`` restarts a recovered sweep from scratch
    (deterministic, so the result is unchanged — only wall time is
    lost).
    """
    check_launch(backend, recover, comm)
    if backend != "virtual":
        if context is not None:
            raise SolverError(
                "context= holds a live SweepContext and cannot be shipped"
                " to a real backend; drop context= or use backend='virtual'"
            )

        def work(wcomm, wrank):
            inner = svm_path(
                A, b, lams, n_lambdas=n_lambdas, loss=loss, solver=solver,
                s=s, max_iter=max_iter, tol=tol, seed=seed,
                record_every=record_every, warm_start=warm_start,
                fast=fast, pipeline=pipeline,
                async_=async_, tau=tau,
                adaptive=adaptive, adapt_tol_factor=adapt_tol_factor,
                adapt_iter_factor=adapt_iter_factor, comm=wcomm,
            )
            return {
                "lambdas": inner.lambdas, "results": inner.results,
                "warm_start": inner.warm_start, "extras": inner.extras,
            }

        part = launch(
            work, backend=backend, ranks=ranks, virtual_p=virtual_p,
            machine=machine, recover=recover, max_recoveries=max_recoveries,
            nb_depth=ring_depth(async_, tau),
        )
        return PathResult(
            task="svm", lambdas=part["lambdas"], results=part["results"],
            context=None, warm_start=part["warm_start"],
            extras=part["extras"],
        )
    ctx = context
    if ctx is None:
        ctx = SweepContext(
            A, b, task="svm", comm=comm, virtual_p=virtual_p, machine=machine
        )
    else:
        if ctx.task != "svm":
            raise SolverError(f"context is a {ctx.task!r} sweep, need 'svm'")
        ctx.check_problem(A, b)
    if lams is None:
        lam_grid = np.geomspace(0.1, 10.0, n_lambdas)
    else:
        lam_grid = np.asarray(lams, dtype=np.float64).ravel()
        if lam_grid.size == 0:
            raise SolverError("lams must be non-empty")
    lam_grid = np.sort(lam_grid)
    if adaptive:
        budgets = adaptive_schedule(
            lam_grid.size, max_iter, tol,
            tol_factor=adapt_tol_factor, iter_factor=adapt_iter_factor,
        )
    else:
        budgets = [(max_iter, tol)] * lam_grid.size
    pipeline, async_ = sweep_schedule(solver, pipeline, async_,
                                      ctx.comm.cost_size)
    results: list[SolverResult] = []
    alpha_warm = None
    for lam, (it_i, tol_i) in zip(lam_grid, budgets, strict=True):
        ctx.begin_point()
        alpha0 = None
        if warm_start and alpha_warm is not None:
            _, nu = loss_params(loss, float(lam))
            alpha0 = np.clip(alpha_warm, 0.0, nu) if np.isfinite(nu) else alpha_warm
        res = fit_svm(
            ctx.dist, ctx.b, loss=loss, lam=float(lam), solver=solver, s=s,
            max_iter=it_i, seed=seed, tol=tol_i, comm=ctx.comm,
            record_every=record_every, alpha0=alpha0, fast=fast,
            pipeline=pipeline, async_=async_, tau=tau,
        )
        ctx.end_point(res)
        results.append(res)
        alpha_warm = res.extras["alpha"]
    return PathResult(
        task="svm", lambdas=lam_grid, results=results, context=ctx,
        warm_start=warm_start,
        extras={"solver": solver, "loss": loss, "s": s,
                "pipeline": pipeline, "async": async_, "tau": tau,
                "adaptive": adaptive},
    )
