"""Non-accelerated randomized (block) coordinate descent for Lasso-family
problems, and its synchronization-avoiding variant.

``bcd`` is the classical method sketched in the paper's Fig. 1: per
iteration, sample ``mu`` columns, form the mu x mu Gram block and the
block gradient with **one** Allreduce, solve the mu-dimensional prox
subproblem redundantly on every rank, update the replicated solution and
the partitioned residual.

``sa_bcd`` unrolls the residual recurrence ``s`` steps (the same
re-arrangement as paper Alg. 2, minus the momentum terms): one
``(s*mu) x (s*mu)`` Gram + projections Allreduce per ``s`` iterations,
then ``s`` local subproblem solves with Gram-block corrections

    rho_j = S_j^T r_sk + sum_{t<j} G_{j,t} dz_t                  (cf. eq. 3)
    g_j   = cur_j - eta_j rho_j                                  (cf. eq. 4)
    dz_j  = prox_{eta_j g}(g_j) - cur_j                          (cf. eq. 5)

where ``cur_j = x_sk[I_j] + sum_{t<j} I_j^T I_t dz_t`` applies overlaps
between sampled blocks. With the same seed the iterate sequence equals
``bcd``'s in exact arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint import state_vector
from repro.linalg.eig import largest_eigenvalue
from repro.linalg.kernels import (
    diag_blocks,
    largest_eigenvalue_cached,
    sparse_columns,
)
from repro.mpi.comm import Comm
from repro.solvers.base import (
    FIXED_SUBPROBLEM_FLOPS,
    SolverResult,
    check_finite_iterate,
)
from repro.solvers.lasso.common import LassoState, distributed_objective
from repro.solvers.outer import run_sa
from repro.utils.validation import check_vector

__all__ = ["bcd", "sa_bcd", "cd", "sa_cd"]


def _init_state(dist, b_local, x0):
    """The warm start ``x0`` (zeros when None) and its local residual."""
    if x0 is None:
        return np.zeros(dist.shape[1]), -b_local.copy()
    x = check_vector(x0, dist.shape[1], "x0").copy()
    return x, dist.matvec_local(x) - b_local


def _overlap_apply(idx_j: np.ndarray, idx_t: np.ndarray, delta_t: np.ndarray) -> np.ndarray:
    """``I_j^T I_t delta_t``: route past updates into the current block."""
    eq = idx_j[:, None] == idx_t[None, :]
    if not eq.any():
        return np.zeros(idx_j.shape[0])
    return eq.astype(np.float64) @ delta_t


class PlainState(LassoState):
    """Plain BCD's iterate: the replicated ``x`` and the local residual
    ``r_local = A_p x - b_p``."""

    family = "lasso-plain"

    def restore(self, ck) -> None:
        if ck is None:
            self.x, self.r_local = _init_state(self.dist, self.b_local, self.x0)
            return
        self.x = state_vector(ck, "x", self.params["n"])
        # the partitioned residual is recomputed from the replicated
        # iterate (instrumentation-free: the uninterrupted run carried it
        # incrementally and was charged during the iterations)
        with self.comm.ledger.paused():
            self.r_local = self.dist.matvec_local(self.x) - self.b_local

    def record(self) -> float:
        return distributed_objective(self.dist, self.r_local, self.x, self.pen)

    def state(self) -> dict:
        return {"x": self.x}

    def result(self) -> tuple:
        return self.x, {}

    def gram(self, idx, tail, priced):
        Y = self.dist.sample_columns(idx)
        return (Y, *self.dist.gram_and_project(Y, [self.r_local],
                                               symmetric=self.symmetric, tail=tail,
                                               tail_priced=priced))

    def step(self, batch, Y, G, R) -> int:
        blocks, widths, offsets = batch
        inner = _sa_outer_fast if self.fast else _sa_outer_naive
        # the stacked update: r_local moved by Y @ update
        self.update = inner(self.dist, self.pen, Y, G, R, blocks, widths,
                            offsets, self.x, self.r_local, memo=self.memo)
        return len(blocks)

    def correct(self, R, pairs) -> None:
        """``Yᵀr`` posted before some steps ran, brought up to date:
        each such step moved ``r`` by ``Y_t Δ_t``, so add ``C Δ_t``."""
        for C, delta in pairs:
            R[:, 0] += C @ delta
            self.comm.account_flops(2.0 * C.size, "blas2")

    def probe(self, it, pin=False):
        check_finite_iterate(self.tag, it, x=self.x)
        # pinned now: the ring completes the record after x has moved on,
        # and with ``pin`` may return to it
        xb, r = self.x.copy(), self.r_local
        restore = None
        if pin:
            rb = r.copy()

            def restore():
                self.x[:] = xb
                self.r_local[:] = rb

        return (lambda: np.array([r @ r]),
                lambda tail: distributed_objective(self.dist, r, xb, self.pen, tail),
                restore)

    def pipeline(self, depth):
        return self.dist.gram_pipeline(extra_cols=1, symmetric=self.symmetric,
                                       depth=depth)

    def arrays(self) -> list:
        return [self.r_local]


def bcd(
    A,
    b,
    penalty,
    *,
    mu: int = 1,
    max_iter: int = 100,
    seed=0,
    comm: Comm | None = None,
    x0=None,
    tol: float | None = None,
    record_every: int = 1,
    symmetric_pack: bool = True,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
) -> SolverResult:
    """Classical randomized proximal BCD (one Allreduce per iteration).

    Parameters
    ----------
    A, b:
        Data matrix (dense / CSR / :class:`RowPartitionedMatrix`) and
        global labels.
    penalty:
        A :class:`~repro.prox.penalties.Penalty` or a bare lambda
        (L1, the paper's default).
    mu:
        Block size (``mu = 1`` is the paper's CD).
    seed:
        Shared sampling seed (or a prebuilt sampler).
    record_every:
        Record the objective every this many iterations (0: ends only).
    checkpoint_every:
        Emit a resumable checkpoint every this many iterations (0: off).
        Requires an integer ``seed`` (resume replays the sampler).
    checkpoint_sink:
        Where checkpoints go: a callable (invoked on every rank with the
        payload dict) or a path (rank 0 writes atomically).
    resume_from:
        A checkpoint payload dict or JSON path to continue from; the run
        picks up at the checkpointed iteration with the same stream.
    """
    fam = PlainState(
        f"bcd(mu={mu})", A, b, penalty, mu=mu, comm=comm, x0=x0, seed=seed,
        max_iter=max_iter, tol=tol, record_every=record_every,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
    h, converged = fam.start()
    dist, pen, x, r_local = fam.dist, fam.pen, fam.x, fam.r_local
    while not converged and h < max_iter:
        h += 1
        idx = fam.sampler.next_block()
        S = dist.sample_columns(idx)
        G, R = dist.gram_and_project(S, [r_local], symmetric=symmetric_pack)
        v = largest_eigenvalue(G)
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS + 10.0 * float(idx.shape[0]) ** 3, "fixed"
        )
        if v > 0.0:
            eta = 1.0 / v
            g = x[idx] - eta * R[:, 0]
            x_new = pen.prox_block(g, eta, idx)
            delta = x_new - x[idx]
            x[idx] = x_new
            dist.apply_column_update(S, delta, r_local)
        converged = fam.after(h)
    return fam.finish(h, converged)


def _sa_outer_naive(
    dist, pen, Y, G, R, blocks, widths, offsets, x, r_local, memo=None,
):
    """Reference inner loop (the ``fast=False`` escape hatch); returns
    the step's stacked update, as the fused loops do."""
    s_eff = len(blocks)
    x_outer = x.copy()
    deltas: list[np.ndarray] = []
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        rho = R[sl_j, 0].copy()
        cur = x_outer[blocks[j]].copy()
        for t in range(j):
            sl_t = slice(offsets[t], offsets[t + 1])
            rho += G[sl_j, sl_t] @ deltas[t]
            cur += _overlap_apply(blocks[j], blocks[t], deltas[t])
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 3),
            "fixed",
        )
        v = largest_eigenvalue(G[sl_j, sl_j])
        if v > 0.0:
            eta = 1.0 / v
            g = cur - eta * rho
            new = pen.prox_block(g, eta, blocks[j])
            delta = new - cur
        else:
            delta = np.zeros(widths[j])
        deltas.append(delta)
        # incremental replicated/local updates (Alg. 2 lines 19-22)
        x[blocks[j]] += delta
        if np.any(delta):
            Sj = Y[:, sl_j]
            dist.apply_column_update(Sj, delta, r_local)
    return np.concatenate(deltas)


def _block_nnz(Y, Ycsc, widths, offsets) -> list:
    """Stored entries in each block's columns of the sampled ``Y``
    (``Ycsc`` its CSC view, None when dense: every entry counts)."""
    if Ycsc is None:
        return [Y.shape[0] * w for w in widths]
    return np.diff(Ycsc.indptr[offsets]).tolist()


def _sa_outer_fast(
    dist, pen, Y, G, R, blocks, widths, offsets, x, r_local, memo=None,
):
    """Fused inner loop: one prefix Gram GEMV per iteration.

    The correction sum ``sum_{t<j} G_{j,t} dz_t`` is applied as a single
    ``G[sl_j, :off] @ dz_all[:off]`` against the stacked update history.
    The ``s`` block Lipschitz constants come from one memoised, batched
    eigensolve of the stacked diagonal Gram blocks (one call per block
    when group blocks differ in width), and since no inner iteration
    reads the residual, ``r_local += Y @ dz_all`` runs once after the
    last one. BLAS re-associates both sums, so at ``mu > 1`` the
    iterates stay within 1e-9 relative of :func:`_sa_outer_naive`'s,
    with identical modelled charges in the same order; ``mu = 1`` runs
    the GEMV-free scalar loop, bit-identical.
    """
    s_eff = len(blocks)
    account = dist.comm.account_flops
    if max(widths) == 1:
        return _sa_inner_scalar(dist, pen, Y, G, R, blocks, offsets, x, r_local)
    dz_all = np.zeros(int(offsets[-1]))
    any_nz = False
    if min(widths) == max(widths):
        vs = largest_eigenvalue_cached(diag_blocks(G, widths[0]), memo)
    else:
        vs = [largest_eigenvalue_cached(G[a:b, a:b], memo)
              for a, b in zip(offsets[:-1], offsets[1:])]
    Ycsc = sparse_columns(Y)
    nnz = _block_nnz(Y, Ycsc, widths, offsets)
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        rho = R[sl_j, 0].copy()
        off = offsets[j]
        if off and any_nz:
            rho += G[sl_j, :off] @ dz_all[:off]
        account(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 3),
            "fixed",
        )
        v = vs[j]
        if v > 0.0:
            eta = 1.0 / v
            cur = x[blocks[j]].copy()
            g = cur - eta * rho
            new = pen.prox_block(g, eta, blocks[j])
            delta = new - cur
        else:
            delta = np.zeros(widths[j])
        nz = bool(np.any(delta))
        any_nz = any_nz or nz
        dz_all[sl_j] = delta
        x[blocks[j]] += delta
        if nz:
            # the residual scatter this iteration's update stands for
            account(2.0 * nnz[j], "blas1")
    if any_nz:
        r_local += (Y if Ycsc is None else Ycsc) @ dz_all
    return dz_all


def _sa_inner_scalar(dist, pen, Y, G, R, blocks, offsets, x, r_local):
    """mu = 1 fused loop: pure-scalar recurrence + sparse column scatter.

    Mirrors :func:`repro.solvers.lasso.acc._sa_acc_inner_scalar` minus
    the momentum tables.
    """
    s_eff = len(blocks)
    Gl = G.tolist()
    R0 = R[:, 0].tolist()
    cols = [int(b[0]) for b in blocks]
    dvals = [0.0] * s_eff
    Ycsc = sparse_columns(Y)
    if Ycsc is not None:
        Yp, Yi, Yd = Ycsc.indptr, Ycsc.indices, Ycsc.data
    m_loc = r_local.shape[0]
    account = dist.comm.account_flops
    fixed = FIXED_SUBPROBLEM_FLOPS + 10.0
    for j in range(s_eff):
        rho = R0[j]
        Grow = Gl[j]
        for t in range(j):
            d = dvals[t]
            if d != 0.0:
                rho += Grow[t] * d
        account(fixed + 2.0 * (offsets[j] + 3), "fixed")
        i = cols[j]
        v = Grow[j]
        if v > 0.0:
            eta = 1.0 / v
            cur = x[i]
            g = cur - eta * rho
            new = pen.prox_block(np.array([g]), eta, blocks[j])
            delta = new[0] - cur
        else:
            delta = 0.0
        dvals[j] = delta
        x[i] += delta
        if delta != 0.0:
            if Ycsc is not None:
                lo, hi = Yp[j], Yp[j + 1]
                r_local[Yi[lo:hi]] += Yd[lo:hi] * delta
                account(2.0 * (hi - lo), "blas1")
            else:
                r_local += Y[:, j] * delta
                account(2.0 * m_loc, "blas1")
    return np.array(dvals)


def sa_bcd(
    A,
    b,
    penalty,
    *,
    mu: int = 1,
    s: int = 8,
    max_iter: int = 100,
    seed=0,
    comm: Comm | None = None,
    x0=None,
    tol: float | None = None,
    record_every: int = 1,
    symmetric_pack: bool = True,
    fast: bool = True,
    pipeline: bool = False,
    async_: bool = False,
    tau: int = 1,
    eig_memo=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
    resume_from=None,
) -> SolverResult:
    """Synchronization-avoiding BCD: one Allreduce per ``s`` iterations.

    Same iterate sequence as :func:`bcd` for equal seeds (exact
    arithmetic); trades a factor-``s`` larger Gram/message for an
    ``s``-fold latency reduction (paper Table I). ``fast`` (default)
    selects the fused inner loop; ``fast=False`` runs the reference
    recurrences. The two are bit-identical at ``mu = 1``; at ``mu > 1``
    the fused loop applies each iteration's correction sum as one prefix
    Gram GEMV, which re-associates it (<= 1e-9 relative iterate drift,
    identical ledger).

    The outer loop is :mod:`repro.solvers.outer`'s. ``async_=True``
    keeps up to ``tau + 1`` outer-step reductions in flight and harvests
    the oldest, so each inner loop runs while the next ``tau`` reductions
    are in transit. A reduction posted before some steps ran carries,
    after ``Y_jᵀr`` at its post, the cross Grams ``Y_jᵀY_t`` of its block
    with the blocks of those steps (up to ``tau * k^2`` words at ``k = s
    * mu``, priced in full, their flops charged at prefetch), and its
    harvest adds ``Y_jᵀY_t Δ_t`` for each (charged ``blas2``). So every
    inner loop reads the current residual's projections, and the
    iterates equal the blocking run's to rounding at every ``tau``. The
    ledger splits each in-flight reduction's overlapped transit into
    fresh (``comm_seconds_hidden``) and superseded (``stale_seconds``)
    windows and records the observed depth (``max_staleness``). Needs a
    communicator ring of ``tau + 1`` nonblocking slots (``nb_depth`` on
    the thread/process backends — exceeding it raises
    :class:`~repro.errors.NbRingDepthError`).

    ``pipeline=True`` is the ``tau = 0`` case of ``async_`` (and
    mutually exclusive with it): the next outer step's block is sampled
    and Gram-packed while the current reduction is in flight. Same
    sampled blocks, same rank-ordered fold — the iterates equal the
    blocking run's bit for bit, and the ledger charges only the
    unoverlapped latency remainder. The prefetch is speculative: a run
    that converges via ``tol`` has already sampled + Gram-packed one
    block it will never use, and the ledger honestly charges that extra
    local work (the unused block is never posted). ``eig_memo`` supplies
    a private eigenvalue memo for the fused loop (default: the shared
    process-wide memo).

    Convergence records (``record_every``; see :mod:`repro.solvers.outer`)
    fall at iteration 0, at the outer-step boundaries that cross a
    multiple of ``record_every``, and at ``max_iter``. Each rank's
    ``||r_local||^2`` rides the next outer step's Gram reduction as one
    trailing word, charged as part of that message (iteration 0's rides
    the first reduction unpriced, as its own sync was never charged), so
    a record's value arrives one reduction after its boundary. The
    records no later reduction carries — the final iterate's, and under
    ``async_`` those of the last ``tau`` outer steps — ride one
    ledger-paused closing allreduce of their words (a scalar one for a
    single record). A solve therefore makes one collective per outer
    step plus exactly one closing exchange. With ``tol`` set, a
    converged solve returns exactly the iterate its converged record
    describes (``iterations == history.iterations[-1]``). The blocking
    and pipelined schedules test each record before the next inner loop
    runs, and have paid for one Gram reduction they never use;
    ``async_`` learns a record ``tau`` outer steps later, restores the
    iterate pinned at its boundary, and keeps the cost of the steps it
    ran past it charged.

    ``checkpoint_every``/``checkpoint_sink``/``resume_from`` follow
    :func:`bcd`; SA runs checkpoint at the outer-step boundary that
    crosses each cadence multiple, and a checkpoint written by either
    solver resumes under the other (the sampler stream is per-draw). A
    checkpoint holds every record taken before its boundary: under
    ``async_`` it is delivered once those have landed, up to ``tau``
    outer steps late. The boundary's own record, when it rides the next
    reduction, is taken again on resume from the restored iterate. So a
    resumed history has the interrupted run's rows up to the checkpoint,
    and under the blocking and pipelined schedules all of them.
    """
    fam = PlainState(
        f"sa-bcd(mu={mu}, s={s})", A, b, penalty, mu=mu, comm=comm, x0=x0,
        seed=seed, max_iter=max_iter, tol=tol, record_every=record_every,
        symmetric_pack=symmetric_pack, fast=fast, eig_memo=eig_memo,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
    return run_sa(fam, s=s, pipeline=pipeline, async_=async_, tau=tau)


def cd(A, b, penalty, **kwargs) -> SolverResult:
    """Single-coordinate CD: :func:`bcd` with ``mu = 1``."""
    kwargs["mu"] = 1
    res = bcd(A, b, penalty, **kwargs)
    res.solver = "cd"
    return res


def sa_cd(A, b, penalty, **kwargs) -> SolverResult:
    """Single-coordinate SA-CD: :func:`sa_bcd` with ``mu = 1``."""
    kwargs["mu"] = 1
    res = sa_bcd(A, b, penalty, **kwargs)
    res.solver = res.solver.replace("sa-bcd(mu=1, ", "sa-cd(")
    return res
