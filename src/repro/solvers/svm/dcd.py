"""Dual coordinate descent for linear SVM (paper Alg. 3) and its
synchronization-avoiding variant (paper Alg. 4).

Layout (paper §V): ``A`` is 1-D **column**-partitioned; the primal vector
``x`` is partitioned with it, the dual vector ``alpha`` and labels ``b``
are replicated. Per iteration the classical method needs one Allreduce of
two scalars — the sampled row's squared norm and ``A_i x`` (Alg. 3 lines
7-8). SA-SVM instead samples ``s`` rows up front, computes the s x s Gram
``G = Y Y^T + gamma I`` and ``Y x_sk`` in one packed Allreduce (Alg. 4
lines 9-10), then runs ``s`` local projected-Newton updates using

    beta_j = alpha_sk[i_j] + sum_{t<j} theta_t [i_j = i_t]          (eq. 14)
    g_j    = b_{i_j} (Y x_sk)_j - 1 + gamma beta_j
             + sum_{t<j} theta_t b_{i_j} b_{i_t} G_{j,t}            (eq. 15)

With the same seed the iterate sequence equals the classical method's in
exact arithmetic.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.checkpoint import state_vector
from repro.errors import SolverError
from repro.linalg.distmatrix import ColPartitionedMatrix
from repro.mpi.comm import Comm
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.base import (
    FIXED_SUBPROBLEM_FLOPS,
    FamilyState,
    SolverResult,
    check_finite_iterate,
)
from repro.solvers.outer import run_sa
from repro.solvers.sampling import RowSampler
from repro.solvers.svm.duality import duality_gap, loss_params
from repro.utils.validation import check_vector

__all__ = ["dcd", "sa_dcd"]


def _pg_step(beta: float, g: float, eta: float, nu: float) -> float:
    """Projected-gradient update theta (Alg. 3 lines 9-13)."""
    pg = min(max(beta - g, 0.0), nu) - beta
    if pg == 0.0 or eta <= 0.0:
        return 0.0
    return min(max(beta - g / eta, 0.0), nu) - beta


class SvmState(FamilyState):
    """Dual CD's iterate: the replicated dual ``alpha`` and the local
    primal shard ``x_local = sum_i b_i alpha_i (A_i)_p`` (paper §V).

    ``steps`` counts the moves of the iterate (outer steps, or ``dcd``'s
    iterations); every rank advances it alike, so :meth:`result` can
    tell whether the primal its last :meth:`record` gathered is current.
    """

    family, metric, mode = "svm", "duality_gap", "gap"

    def __init__(self, solver, A, b, *, loss, lam, comm, alpha0, **run) -> None:
        self.gamma, self.nu = loss_params(loss, lam)
        if isinstance(A, ColPartitionedMatrix):
            self.dist = A
        else:
            comm = comm if comm is not None else VirtualComm(1)
            self.dist = ColPartitionedMatrix.from_global(A, comm)
        m = self.dist.shape[0]
        self.b = check_vector(b, m, "b")
        if not np.all(np.isin(self.b, (-1.0, 1.0))):
            raise SolverError("SVM labels must be in {-1, +1}")
        self.loss, self.lam, self.alpha0 = loss, lam, alpha0
        self.steps = 0
        # (steps, x) of the primal the last record gathered
        self._gathered = (-1, None)
        seed = run["seed"]
        sampler = seed if isinstance(seed, RowSampler) else RowSampler(m, seed)
        super().__init__(solver, self.dist.comm, sampler,
                         {"m": m, "loss": loss, "lam": lam}, **run)

    def restore(self, ck) -> None:
        dist, m = self.dist, self.dist.shape[0]
        if ck is not None:
            self.alpha = state_vector(ck, "alpha", m)
            # x0 = sum_i b_i alpha_i A_i^T, local columns only (the running
            # run carried it incrementally; rebuilding is instrumentation)
            with self.comm.ledger.paused():
                self.x_local = np.asarray(dist.local.T @ (self.b * self.alpha)).ravel()
            return
        if self.alpha0 is None:
            self.alpha, self.x_local = np.zeros(m), np.zeros(dist.local.shape[1])
            return
        alpha = check_vector(self.alpha0, m, "alpha0").copy()
        # an infeasible dual init would silently corrupt the duality gap
        # (coordinates never sampled within the budget stay out of the box)
        if alpha.min() < 0.0 or alpha.max() > self.nu:
            raise SolverError(
                f"alpha0 must lie in the dual box [0, {self.nu:g}]; "
                f"got range [{alpha.min():g}, {alpha.max():g}]"
            )
        # x0 = sum_i b_i alpha_i A_i^T  (Alg. 3 line 2), local columns only
        self.alpha = alpha
        self.x_local = np.asarray(dist.local.T @ (self.b * alpha)).ravel()
        self.comm.account_flops(2.0 * dist.local_nnz, "spmv")

    def _partials(self, x_local) -> np.ndarray:
        """This rank's ``[A_p x_p, ||x_p||^2]`` (m + 1 words), uncharged:
        a record is instrumentation."""
        return np.append(self.dist.local @ x_local, x_local @ x_local)

    def _gap(self, total, alpha) -> float:
        """The duality gap at ``alpha`` from ``total``, the record's
        partials summed across ranks, read through ``matvec_full`` and
        ``norm2_cols`` (which take the sums and do not communicate)."""
        m = self.dist.shape[0]
        Ax = self.dist.matvec_full(self.x_local, total=total[:m])
        xn2 = self.dist.norm2_cols(self.x_local, total=total[m])
        return duality_gap(Ax, self.b, alpha, xn2, self.lam, self.loss)

    def record(self, alpha=None) -> float:
        """Duality gap at ``alpha`` (default: the current dual), synced
        on its own in one ledger-paused exchange that sums the record's
        partials and gathers the primal, which :meth:`result` reuses
        while no step runs (instrumentation only)."""
        with self.comm.ledger.paused():
            total, x = self.dist.sum_and_gather(self._partials(self.x_local),
                                                self.x_local)
        self._gathered = (self.steps, x)
        return self._gap(total, self.alpha if alpha is None else alpha)

    def state(self) -> dict:
        return {"alpha": self.alpha}

    def result(self) -> tuple:
        steps, x_full = self._gathered
        if steps != self.steps:
            with self.comm.ledger.paused():
                x_full = self.dist.gather_cols(self.x_local)
        return x_full, {"alpha": self.alpha, "x_local": self.x_local,
                        "lam": self.lam, "loss": self.loss}

    def plan(self, k: int) -> tuple:
        idx = self.sampler.next_indices(k)
        return idx, idx

    def gram(self, idx, tail, priced):
        Y = self.dist.sample_rows(idx)
        G, xp = self.dist.gram_rows_and_project(Y, self.x_local,
                                                symmetric=self.symmetric, tail=tail,
                                                tail_priced=priced)
        return Y, G, xp[:, None]

    def step(self, idx, Y, G, R) -> int:
        inner = _sa_dcd_outer_fast if self.fast else _sa_dcd_outer_naive
        # theta .* b per sampled row: x_local moved by Yᵀ update
        self.update = inner(self.dist, self.b, Y, G, R[:, 0], idx, self.gamma,
                            self.nu, self.alpha, self.x_local)
        self.steps += 1
        return len(idx)

    def correct(self, R, pairs) -> None:
        """``Y x`` posted before some steps ran, brought up to date: each
        step moved ``x`` by ``Y_tᵀ (theta .* b)``, so add ``C (theta .*
        b)`` (the cross Gram carries no ``gamma``)."""
        for C, tb in pairs:
            R[:, 0] += C @ tb
            self.comm.account_flops(2.0 * C.size, "blas2")

    def exchange(self, tails: list) -> list:
        """The closing exchange: the records' partials stacked in one
        ledger-paused :meth:`~repro.linalg.distmatrix.ColPartitionedMatrix.
        sum_and_gather`, which also gathers the primal :meth:`result`
        returns."""
        with self.comm.ledger.paused():
            total, x = self.dist.sum_and_gather(np.concatenate(tails), self.x_local)
        self._gathered = (self.steps, x)
        return np.split(total, len(tails))

    def probe(self, it, pin=False):
        check_finite_iterate(self.tag, it, alpha=self.alpha, x=self.x_local)
        # pinned now: the ring completes the record after alpha has moved
        # on, and with ``pin`` may return to it
        pinned = self.alpha.copy()

        def gap(tail):
            if tail is None:
                return self.record(pinned)
            return self._gap(tail, pinned)

        restore = None
        if pin:
            xb, steps = self.x_local.copy(), self.steps

            def restore():
                self.alpha[:] = pinned
                self.x_local[:] = xb
                self.steps = steps

        return lambda: self._partials(self.x_local), gap, restore

    def pipeline(self, depth):
        return self.dist.gram_rows_pipeline(symmetric=self.symmetric, depth=depth)

    def arrays(self) -> list:
        return [self.x_local]


def dcd(
    A,
    b,
    *,
    loss: str = "l1",
    lam: float = 1.0,
    max_iter: int = 1000,
    seed=0,
    comm: Comm | None = None,
    alpha0=None,
    tol: float | None = None,
    record_every: int = 0,
    symmetric_pack: bool = True,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
) -> SolverResult:
    """Dual coordinate descent for linear SVM (paper Algorithm 3).

    Parameters
    ----------
    loss:
        ``"l1"`` (hinge; gamma=0, nu=lam) or ``"l2"`` (squared hinge;
        gamma=1/(2 lam), nu=inf).
    lam:
        Penalty parameter (the paper uses lam = 1).
    record_every:
        Duality-gap recording cadence; 0 records start/end only (the gap
        needs a full matvec, so per-iteration recording is for studies).
    tol:
        Optional duality-gap tolerance (Table V uses 1e-1), checked at
        recording points.
    checkpoint_every / checkpoint_sink / resume_from:
        Checkpoint cadence, destination (callable or path), and resume
        source, as in :func:`repro.solvers.lasso.plain.bcd`. SVM
        checkpoints carry the replicated dual ``alpha``; the local primal
        shard is rebuilt on resume.
    """
    fam = SvmState(
        f"svm-{loss.lower()}", A, b, loss=loss, lam=lam, comm=comm,
        alpha0=alpha0, seed=seed, max_iter=max_iter, tol=tol,
        record_every=record_every, checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink, resume_from=resume_from,
    )
    h, converged = fam.start()
    dist, b, alpha, x_local = fam.dist, fam.b, fam.alpha, fam.x_local
    while not converged and h < max_iter:
        h += 1
        i = fam.sampler.next_index()
        row = dist.sample_rows(np.array([i]))
        G, xp = dist.gram_rows_and_project(row, x_local, symmetric=symmetric_pack)
        eta = float(G[0, 0]) + fam.gamma
        g = b[i] * float(xp[0]) - 1.0 + fam.gamma * alpha[i]
        theta = _pg_step(alpha[i], g, eta, fam.nu)
        dist.comm.account_flops(FIXED_SUBPROBLEM_FLOPS, "fixed")
        if theta != 0.0:
            alpha[i] += theta
            dist.apply_row_update(row, np.array([theta * b[i]]), x_local)
        fam.steps += 1
        converged = fam.after(h)
    return fam.finish(h, converged)


def _sa_dcd_outer_naive(dist, b, Y, G, xp, idx, gamma, nu, alpha, x_local):
    """Reference inner loop (the ``fast=False`` escape hatch); returns
    ``theta .* b`` per sampled row, as the fused loop does."""
    s_eff = idx.shape[0]
    # add gamma I once, after the reduction (Alg. 4 line 9)
    if gamma:
        G = G + gamma * np.eye(s_eff)
    etas = np.diag(G)
    alpha_outer = alpha.copy()
    bsel = b[idx]
    thetas = np.zeros(s_eff)
    for j in range(s_eff):
        # eq. (14): replay same-coordinate updates from this outer step
        beta = alpha_outer[idx[j]]
        dup = idx[:j] == idx[j]
        if dup.any():
            beta += float(np.sum(thetas[:j][dup]))
        # eq. (15): Gram-row corrections for all previous inner updates
        # (G stores gamma on the diagonal only, so G[j, t<j] is exactly
        # A_j A_t^T even when the same row was sampled twice)
        g = bsel[j] * float(xp[j]) - 1.0 + gamma * beta
        if j:
            g += bsel[j] * float(np.sum(thetas[:j] * bsel[:j] * G[j, :j]))
        dist.comm.account_flops(FIXED_SUBPROBLEM_FLOPS + 4.0 * j, "fixed")
        theta = _pg_step(beta, g, float(etas[j]), nu)
        thetas[j] = theta
        if theta != 0.0:
            alpha[idx[j]] += theta
            # incremental primal update (Alg. 4 line 21), local shard
            row_j = Y[j : j + 1, :]
            dist.apply_row_update(row_j, np.array([theta * bsel[j]]), x_local)
    return thetas * bsel


def _sa_dcd_outer_fast(dist, b, Y, G, xp, idx, gamma, nu, alpha, x_local):
    """Fused inner loop: bit-identical to :func:`_sa_dcd_outer_naive`.

    The ``s`` updates run on step-local scalars: eq. (14) starts from
    the outer step's ``alpha``, which no update of the step touches
    until the loop ends; gamma joins only the diagonal (the eq. (15)
    corrections read ``G`` below it, so ``G`` is not copied); and
    ``b_i (Y x)_i`` is precomputed. Then ``alpha`` and the primal shard
    take the step's nonzero updates in one ``np.add.at`` each, in row
    order (a sampled row's column indices are distinct), which adds
    exactly what the reference's per-row updates add, and the ledger is
    charged call by call in the loop's order.
    """
    s_eff = idx.shape[0]
    rows = idx.tolist()
    bsel = b[idx]
    bl = bsel.tolist()
    bx = (bsel * xp).tolist()
    beta0 = alpha[idx].tolist()
    etas = (np.diagonal(G) + gamma if gamma else np.diagonal(G)).tolist()
    thetas = np.zeros(s_eff)
    tb = np.zeros(s_eff)  # tb[t] = thetas[t] * bsel[t], filled as we go
    seen = set()
    for j in range(s_eff):
        ij = rows[j]
        beta = beta0[j]
        if ij in seen:
            beta += float(np.sum(thetas[:j][idx[:j] == ij]))
        seen.add(ij)
        g = bx[j] - 1.0 + gamma * beta
        if j:
            g += bl[j] * float(np.sum(tb[:j] * G[j, :j]))
        theta = _pg_step(beta, g, etas[j], nu)
        thetas[j] = theta
        tb[j] = theta * bl[j]
    moved = np.flatnonzero(thetas)
    np.add.at(alpha, idx[moved], thetas[moved])
    if sp.issparse(Y):
        lo, hi = Y.indptr[moved], Y.indptr[moved + 1]
        counts = hi - lo
        at = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        np.add.at(x_local, Y.indices[at], Y.data[at] * np.repeat(tb[moved], counts))
        row_flops = dict(zip(moved.tolist(), (2.0 * counts).tolist()))
    else:
        for j in moved:
            x_local += Y[j] * tb[j]
        row_flops = dict.fromkeys(moved.tolist(), 2.0 * Y.shape[1])
    account = dist.comm.account_flops
    for j in range(s_eff):
        account(FIXED_SUBPROBLEM_FLOPS + 4.0 * j, "fixed")
        if j in row_flops:
            account(row_flops[j], "blas1")
    return tb


def sa_dcd(
    A,
    b,
    *,
    loss: str = "l1",
    lam: float = 1.0,
    s: int = 8,
    max_iter: int = 1000,
    seed=0,
    comm: Comm | None = None,
    alpha0=None,
    tol: float | None = None,
    record_every: int = 0,
    symmetric_pack: bool = True,
    fast: bool = True,
    pipeline: bool = False,
    async_: bool = False,
    tau: int = 1,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
) -> SolverResult:
    """Synchronization-avoiding dual CD for SVM (paper Algorithm 4).

    One packed Allreduce (s x s Gram + ``Y x``) per ``s`` iterations;
    identical iterates to :func:`dcd` in exact arithmetic for equal
    seeds. ``fast`` selects the fused inner loop, bit-identical to the
    ``fast=False`` reference recurrences (the eq. (15) corrections are
    already one dot product per inner iteration).

    The outer loop is :mod:`repro.solvers.outer`'s: blocking by default;
    ``async_=True`` keeps up to ``tau + 1`` reductions in flight and
    harvests the oldest, so each inner loop runs while the next ``tau``
    reductions are in transit. A reduction posted before some steps ran
    carries the cross Grams ``Y_j Y_tᵀ`` of its rows with theirs (no
    ``gamma``), and its harvest adds each such step's ``C (theta .* b)``
    to the ``Y x`` projection, so the iterates equal the blocking run's
    to rounding at every ``tau``. ``pipeline=True`` is the ``tau = 0`` case (mutually
    exclusive with ``async_``): the next step's rows are sampled and
    Gram-packed while the current reduction is in flight (the ``Y x_sk``
    projection, which depends on the current primal, is packed after the
    inner loop finishes), with iterates and messages identical to the
    blocking run and only unoverlapped latency charged. See
    :func:`repro.solvers.lasso.plain.sa_bcd` for the staleness
    words and flops the cross Grams add, the staleness accounting
    (``stale_seconds`` / ``max_staleness``) and the ``nb_depth = tau +
    1`` communicator ring requirement.

    Duality-gap records (``record_every``; see :mod:`repro.solvers.outer`)
    fall at iteration 0, at the outer-step boundaries that cross a
    multiple of ``record_every``, and at ``max_iter``; ``tol`` is tested
    there. Each rank's ``[A_p x_p, ||x_p||^2]`` (m + 1 words) rides the
    next outer step's Gram reduction, charged as part of that message
    (iteration 0's rides the first one unpriced; a tail too large for
    the communicator's slot is summed on its own just before), and the
    gap is evaluated against the ``alpha`` pinned at the boundary. The
    gaps no later reduction carries — the final iterate's, and under
    ``async_`` those of the last ``tau`` outer steps — ride one
    ledger-paused Allgather that sums their stacked partials and gathers
    the primal the result returns. A solve therefore makes one
    collective per outer step plus exactly that closing exchange. A
    converged solve returns exactly the iterate its converged record
    describes (and gathers its primal on its own); ``async_`` restores
    it after running up to ``tau`` outer steps past it.
    """
    fam = SvmState(
        f"sa-svm-{loss.lower()}(s={s})", A, b, loss=loss, lam=lam, comm=comm,
        alpha0=alpha0, seed=seed, max_iter=max_iter, tol=tol,
        record_every=record_every, symmetric_pack=symmetric_pack, fast=fast,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
    return run_sa(fam, s=s, pipeline=pipeline, async_=async_, tau=tau)
