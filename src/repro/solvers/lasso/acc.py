"""Accelerated BCD (paper Alg. 1) and SA-accBCD (paper Alg. 2) for
Lasso-family problems.

Nesterov acceleration follows Fercoq-Richtarik's APPROX scheme: the
solution is carried implicitly as ``x_h = theta^2 y_h + z_h`` with two
auxiliary primal vectors (replicated) and their images under ``A``
(partitioned): ``ytil = A y`` and ``ztil = A z - b``.

Note on the theta index: the paper's Alg. 1 line 19 outputs
``theta_H^2 y_H + z_H`` with theta already advanced at line 18; Fercoq-
Richtarik define the iterate with the theta *used during* the iteration
(``theta_{h-1}``). The two coincide in the limit; we follow Fercoq-
Richtarik (``theta_{h-1}``) because it preserves the invariant
``x_0 = z_0`` at initialisation (``y_0 = 0``).

SA-accBCD re-arranges the recurrences exactly as eqs. (3)-(5):

    r_j  = th_{j-1}^2 ytil'_j + ztil'_j - sum_{t<j} c_{j,t} G_{j,t} dz_t
    g_j  = cur_j - eta_j r_j
    dz_j = prox(g_j, eta_j) - cur_j

with ``c_{j,t} = th_{j-1}^2 (1 - q th_{t-1}) / th_{t-1}^2 - 1`` and
``cur_j = z_sk[I_j] + sum_{t<j} I_j^T I_t dz_t``. One packed Allreduce
per outer step carries ``G = Y^T Y`` and ``Y^T [ytil, ztil]``
(Alg. 2 lines 11-12).

Fast inner loop (``fast=True``, the default): the theta/eta/momentum
coefficient tables are precomputed once per outer step
(:func:`repro.linalg.kernels.acc_coef_tables`), the overlap bookkeeping
``cur_j = z_sk[I_j] + sum I_j^T I_t dz_t`` collapses to a read of the
incrementally-updated ``z``, and the block Lipschitz eigensolve is
memoised per Gram-block bytes. At ``mu = 1`` the whole eq. (3)-(5)
recurrence runs on scalars with sparse column-scatter residual updates
(O(nnz of the sampled column) instead of O(nnz of all s columns) per
inner iteration), keeping the reference loop's operation order: its
iterates are bit-identical to ``fast=False``. At ``mu > 1`` eq. (3)'s
coefficient splits as ``c_{j,t} = theta_{j-1}^2 m_t - 1`` with
``m_t = (1 - q th_t)/th_t^2``, so the whole correction sum collapses to
one prefix apply of the preassembled ``(s mu) x (s mu)`` Gram per inner
iteration,

    sum_t c_{j,t} G_{j,t} dz_t
        = th^2 G[j,:off] (m .* dz) - G[j,:off] dz,

a single (mu x off) @ (off x 2) GEMM instead of ``j`` sliced GEMVs. The
same history ``U = [m .* dz, dz]`` updates the residual images once per
outer step, ``ztil += Y U[:, 1]`` and ``ytil -= Y U[:, 0]``, and the
``s`` block eigensolves run as one batched call. BLAS re-associates the
sums (that is the speed), which perturbs iterates at the rounding level:
within 1e-9 relative of ``fast=False``, with an identical modelled
ledger (the model charges the algorithm's work).
``tests/test_fast_parity.py`` enforces both contracts.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint import state_scalar, state_vector
from repro.linalg.eig import largest_eigenvalue
from repro.linalg.kernels import (
    acc_coef_tables,
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
from repro.solvers.lasso.common import (
    LassoState,
    distributed_objective,
    momentum_coef,
    theta_next,
    theta_schedule,
)
from repro.solvers.lasso.plain import _block_nnz, _init_state, _overlap_apply
from repro.solvers.outer import run_sa
from repro.utils.validation import nnz_of

__all__ = ["acc_bcd", "sa_acc_bcd", "acc_cd", "sa_acc_cd"]


def _init_acc_state(dist, b_local, x0):
    """y0 = 0, z0 = x0 (so x_0 = z_0 regardless of theta_0)."""
    z, ztil = _init_state(dist, b_local, x0)
    return np.zeros(dist.shape[1]), z, np.zeros_like(b_local), ztil


def _acc_iterate(theta, y, z, ytil, ztil):
    """The implicit iterate x = theta^2 y + z and its local residual."""
    t2 = theta * theta
    return t2 * y + z, t2 * ytil + ztil


class AccState(LassoState):
    """Accelerated BCD's iterate ``x = theta^2 y + z``: the replicated
    ``y``, ``z``, their local images ``ytil = A_p y`` and ``ztil = A_p z -
    b_p``, the momentum scalar ``theta`` and ``theta_used``, the one the
    last iteration used (``x`` is defined with it)."""

    family = "lasso-acc"

    def restore(self, ck) -> None:
        n, mu = self.params["n"], self.params["mu"]
        self.q = float(int(np.ceil(n / mu)))
        if ck is None:
            self.y, self.z, self.ytil, self.ztil = _init_acc_state(
                self.dist, self.b_local, self.x0)
            self.theta = self.theta_used = mu / n
            return
        self.y = state_vector(ck, "y", n)
        self.z = state_vector(ck, "z", n)
        with self.comm.ledger.paused():
            self.ytil = self.dist.matvec_local(self.y)
            self.ztil = self.dist.matvec_local(self.z) - self.b_local
        self.theta = state_scalar(ck, "theta")
        self.theta_used = state_scalar(ck, "theta_used")

    def record(self) -> float:
        x, r_local = _acc_iterate(self.theta_used, self.y, self.z, self.ytil, self.ztil)
        return distributed_objective(self.dist, r_local, x, self.pen)

    def state(self) -> dict:
        return {"y": self.y, "z": self.z, "theta": self.theta,
                "theta_used": self.theta_used}

    def result(self) -> tuple:
        t2 = self.theta_used * self.theta_used
        return t2 * self.y + self.z, {"theta": self.theta_used}

    def gram(self, idx, tail, priced):
        Y = self.dist.sample_columns(idx)
        # one message: G = Y^T Y and Y^T [ytil, ztil]  (Alg. 2 lines 11-12)
        return (Y, *self.dist.gram_and_project(Y, [self.ytil, self.ztil],
                                               symmetric=self.symmetric, tail=tail,
                                               tail_priced=priced))

    def step(self, batch, Y, G, R) -> int:
        blocks, widths, offsets = batch
        # the whole outer step's thetas depend only on theta_sk (Alg. 2
        # line 9), known fresh at harvest
        thetas = theta_schedule(self.theta, len(blocks))
        inner = _sa_acc_outer_fast if self.fast else _sa_acc_outer_naive
        # U = [m .* dz, dz]: ytil moved by -Y U[:, 0], ztil by +Y U[:, 1]
        self.update = inner(self.dist, self.pen, Y, G, R, blocks, widths,
                            offsets, thetas, self.q, self.y, self.z, self.ytil,
                            self.ztil, memo=self.memo)
        self.theta_used, self.theta = thetas[len(blocks) - 1], thetas[len(blocks)]
        return len(blocks)

    def correct(self, R, pairs) -> None:
        """``Yᵀ[ytil, ztil]`` posted before some steps ran, brought up to
        date: each step's ``U`` lowers ``Yᵀytil`` by ``C U[:, 0]`` and
        raises ``Yᵀztil`` by ``C U[:, 1]``."""
        for C, U in pairs:
            M = C @ U
            R[:, 0] -= M[:, 0]
            R[:, 1] += M[:, 1]
            self.comm.account_flops(4.0 * C.size, "blas2")

    def probe(self, it, pin=False):
        check_finite_iterate(self.tag, it, y=self.y, z=self.z)
        # pinned now: the ring completes the record after y, z move, and
        # with ``pin`` may return to them
        xb, rb = _acc_iterate(self.theta_used, self.y, self.z, self.ytil, self.ztil)
        restore = None
        if pin:
            arrays = (self.y, self.z, self.ytil, self.ztil)
            pinned = ([a.copy() for a in arrays], self.theta, self.theta_used)

            def restore():
                copies, self.theta, self.theta_used = pinned
                for a, c in zip(arrays, copies, strict=True):
                    a[:] = c

        return (lambda: np.array([rb @ rb]),
                lambda tail: distributed_objective(self.dist, rb, xb, self.pen, tail),
                restore)

    def pipeline(self, depth):
        return self.dist.gram_pipeline(extra_cols=2, symmetric=self.symmetric,
                                       depth=depth)

    def arrays(self) -> list:
        return [self.ytil, self.ztil]


def acc_bcd(
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
    """Accelerated BCD for Lasso (paper Algorithm 1).

    One Allreduce per iteration carries the mu x mu Gram block and the
    block gradient ``r_h = A_h^T (theta^2 ytil + ztil)``.

    ``checkpoint_every``/``checkpoint_sink``/``resume_from`` follow
    :func:`repro.solvers.lasso.plain.bcd`; accelerated checkpoints carry
    the (replicated) ``y``/``z`` pair plus the momentum scalar ``theta``,
    and their images ``ytil``/``ztil`` are recomputed on resume.
    """
    fam = AccState(
        f"accbcd(mu={mu})", A, b, penalty, mu=mu, comm=comm, x0=x0, seed=seed,
        max_iter=max_iter, tol=tol, record_every=record_every,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
    h, converged = fam.start()
    dist, pen, q = fam.dist, fam.pen, fam.q
    y, z, ytil, ztil = fam.y, fam.z, fam.ytil, fam.ztil
    while not converged and h < max_iter:
        h += 1
        idx = fam.sampler.next_block()
        S = dist.sample_columns(idx)
        fam.theta_used = theta = fam.theta
        t2 = theta * theta
        w_local = t2 * ytil + ztil
        # streaming combine over the local m-vector shard (memory bound)
        dist.comm.account_flops(2.0 * w_local.shape[0], "gather")
        G, R = dist.gram_and_project(S, [w_local], symmetric=symmetric_pack)
        v = largest_eigenvalue(G)
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS + 10.0 * float(idx.shape[0]) ** 3, "fixed"
        )
        if v > 0.0:
            eta = 1.0 / (q * theta * v)
            g = z[idx] - eta * R[:, 0]
            z_new = pen.prox_block(g, eta, idx)
            dz = z_new - z[idx]
            coef = momentum_coef(theta, q)
            z[idx] = z_new
            y[idx] -= coef * dz
            Sdz = np.asarray(S @ dz).ravel()
            dist.comm.account_flops(2.0 * nnz_of(S), "blas1")
            dist.comm.account_flops(3.0 * Sdz.shape[0], "gather")
            ztil += Sdz
            ytil -= coef * Sdz
        fam.theta = theta_next(theta)
        converged = fam.after(h)
    return fam.finish(h, converged)


def _sa_acc_outer_naive(
    dist, pen, Y, G, R, blocks, widths, offsets, thetas, q,
    y, z, ytil, ztil, memo=None,
):
    """Reference inner loop: eqs. (3)-(5) exactly as written.

    Kept as the ``fast=False`` escape hatch and as the ground truth for
    the fused loop's parity tests. Returns the step's update history
    ``U = [m .* dz, dz]``, as the fused loops do.
    """
    s_eff = len(blocks)
    z_outer = z.copy()
    deltas: list[np.ndarray] = []
    moms: list[np.ndarray] = []
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        th_prev = thetas[j]
        t2 = th_prev * th_prev
        # eq. (3): start from the projected history vectors
        r = t2 * R[sl_j, 0] + R[sl_j, 1]
        cur = z_outer[blocks[j]].copy()
        for t in range(j):
            sl_t = slice(offsets[t], offsets[t + 1])
            c_jt = t2 * (1.0 - q * thetas[t]) / (thetas[t] * thetas[t]) - 1.0
            r -= c_jt * (G[sl_j, sl_t] @ deltas[t])
            cur += _overlap_apply(blocks[j], blocks[t], deltas[t])
        dist.comm.account_flops(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 4),
            "fixed",
        )
        v = largest_eigenvalue(G[sl_j, sl_j])
        if v > 0.0:
            eta = 1.0 / (q * th_prev * v)
            g = cur - eta * r  # eq. (4)
            new = pen.prox_block(g, eta, blocks[j])
            dz = new - cur  # eq. (5)
        else:
            dz = np.zeros(widths[j])
        deltas.append(dz)
        coef = momentum_coef(th_prev, q)
        moms.append(coef * dz)
        # incremental updates (Alg. 2 lines 19-22); all local/replicated
        z[blocks[j]] += dz
        y[blocks[j]] -= coef * dz
        if np.any(dz):
            Sj = Y[:, sl_j]
            Sdz = np.asarray(Sj @ dz).ravel()
            dist.comm.account_flops(2.0 * nnz_of(Sj), "blas1")
            dist.comm.account_flops(3.0 * Sdz.shape[0], "gather")
            ztil += Sdz
            ytil -= coef * Sdz
    return np.column_stack([np.concatenate(moms), np.concatenate(deltas)])


def _sa_acc_outer_fast(
    dist, pen, Y, G, R, blocks, widths, offsets, thetas, q,
    y, z, ytil, ztil, memo=None,
):
    """Fused inner loop: one prefix Gram GEMM per iteration.

    Maintains the stacked update history ``U[:, 0] = m_t .* dz_t`` and
    ``U[:, 1] = dz_t`` (block-concatenated), so eq. (3)'s correction sum
    over ``t < j`` becomes a single ``G[sl_j, :off] @ U[:off]`` apply of
    the preassembled outer-step Gram — BLAS re-associates the reduction,
    hence the relaxed (<= 1e-9 relative drift) contract at ``mu > 1``.
    Work whose inputs exist once per outer step runs once: the ``s``
    block Lipschitz constants come from one memoised, batched eigensolve
    of the stacked diagonal Gram blocks (one call per block when group
    blocks differ in width), and since no inner iteration reads the
    residuals, ``ztil += Y @ U[:, 1]`` and ``ytil -= Y @ U[:, 0]`` run
    once after the last one, a second re-association. Charges the same
    modelled flops as :func:`_sa_acc_outer_naive`, in the same order:
    the algorithmic work is unchanged, only its association differs.
    ``mu = 1`` runs the GEMV-free scalar loop, bit-identical to the
    reference.
    """
    s_eff = len(blocks)
    t2v, qth, coefv, C = acc_coef_tables(thetas[:s_eff], q)
    if max(widths) == 1:
        return _sa_acc_inner_scalar(
            dist, pen, Y, G, R, blocks, offsets, t2v, qth, coefv, C,
            y, z, ytil, ztil,
        )
    account = dist.comm.account_flops
    U = np.zeros((int(offsets[-1]), 2))
    any_nz = False
    m_loc = ztil.shape[0]
    if min(widths) == max(widths):
        vs = largest_eigenvalue_cached(diag_blocks(G, widths[0]), memo)
    else:
        vs = [largest_eigenvalue_cached(G[a:b, a:b], memo)
              for a, b in zip(offsets[:-1], offsets[1:])]
    Ycsc = sparse_columns(Y)
    nnz = _block_nnz(Y, Ycsc, widths, offsets)
    for j in range(s_eff):
        sl_j = slice(offsets[j], offsets[j + 1])
        r = t2v[j] * R[sl_j, 0] + R[sl_j, 1]
        off = offsets[j]
        if off and any_nz:
            M = G[sl_j, :off] @ U[:off]
            r -= t2v[j] * M[:, 0] - M[:, 1]
        account(
            FIXED_SUBPROBLEM_FLOPS
            + 10.0 * float(widths[j]) ** 3
            + 2.0 * widths[j] * (offsets[j] + 4),
            "fixed",
        )
        v = vs[j]
        if v > 0.0:
            eta = 1.0 / (qth[j] * v)
            cur = z[blocks[j]].copy()
            g = cur - eta * r
            new = pen.prox_block(g, eta, blocks[j])
            dz = new - cur
        else:
            dz = np.zeros(widths[j])
        nz = bool(np.any(dz))
        any_nz = any_nz or nz
        U[sl_j, 0] = coefv[j] * dz
        U[sl_j, 1] = dz
        z[blocks[j]] += dz
        y[blocks[j]] -= coefv[j] * dz
        if nz:
            # the residual scatter this iteration's update stands for
            account(2.0 * nnz[j], "blas1")
            account(3.0 * m_loc, "gather")
    if any_nz:
        YU = (Y if Ycsc is None else Ycsc) @ U
        ztil += YU[:, 1]
        ytil -= YU[:, 0]
    return U


def _sa_acc_inner_scalar(
    dist, pen, Y, G, R, blocks, offsets, t2v, qth, coefv, C,
    y, z, ytil, ztil,
):
    """mu = 1 fused loop: pure-scalar recurrence + sparse column scatter."""
    s_eff = len(blocks)
    Gl = G.tolist()
    R0 = R[:, 0].tolist()
    R1 = R[:, 1].tolist()
    Cl = C.tolist()
    t2l = t2v.tolist()
    qthl = qth.tolist()
    coefl = coefv.tolist()
    cols = [int(b[0]) for b in blocks]
    dvals = [0.0] * s_eff
    m_loc = ztil.shape[0]
    Ycsc = sparse_columns(Y)
    if Ycsc is not None:
        Yp, Yi, Yd = Ycsc.indptr, Ycsc.indices, Ycsc.data
    account = dist.comm.account_flops
    fixed = FIXED_SUBPROBLEM_FLOPS + 10.0
    for j in range(s_eff):
        r = t2l[j] * R0[j] + R1[j]
        Crow = Cl[j]
        Grow = Gl[j]
        for t in range(j):
            d = dvals[t]
            if d != 0.0:
                r -= Crow[t] * (Grow[t] * d)
        account(fixed + 2.0 * (offsets[j] + 4), "fixed")
        i = cols[j]
        v = Grow[j]
        if v > 0.0:
            eta = 1.0 / (qthl[j] * v)
            cur = z[i]
            g = cur - eta * r
            new = pen.prox_block(np.array([g]), eta, blocks[j])
            dz = new[0] - cur
        else:
            dz = 0.0
        dvals[j] = dz
        coef = coefl[j]
        z[i] += dz
        y[i] -= coef * dz
        if dz != 0.0:
            if Ycsc is not None:
                lo, hi = Yp[j], Yp[j + 1]
                rows = Yi[lo:hi]
                upd = Yd[lo:hi] * dz
                ztil[rows] += upd
                ytil[rows] -= coef * upd
                account(2.0 * (hi - lo), "blas1")
            else:
                upd = Y[:, j] * dz
                ztil += upd
                ytil -= coef * upd
                account(2.0 * m_loc, "blas1")
            account(3.0 * m_loc, "gather")
    dz = np.array(dvals)
    return np.column_stack([coefv * dz, dz])


def sa_acc_bcd(
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
    """Synchronization-avoiding accelerated BCD (paper Algorithm 2).

    One packed Allreduce per ``s`` iterations; identical iterate sequence
    to :func:`acc_bcd` in exact arithmetic for equal seeds.

    ``fast`` selects the fused inner loop (default); ``fast=False`` runs
    the reference eq. (3)-(5) recurrences. The two are bit-identical at
    ``mu = 1``; at ``mu > 1`` the fused loop collapses each iteration's
    correction sums into one prefix Gram GEMM (BLAS re-association,
    <= 1e-9 relative iterate drift, identical ledger).

    The outer loop is :mod:`repro.solvers.outer`'s: blocking by default;
    ``async_=True`` keeps up to ``tau + 1`` reductions in flight and
    harvests the oldest, so each inner loop runs while the next ``tau``
    reductions are in transit. A reduction posted before some steps ran
    carries the cross Grams ``C`` of its block with theirs, and its
    harvest brings the ``[ytil, ztil]`` projections up to date with each
    such step's ``U = [m .* dz, dz]`` (``Yᵀytil`` falls by ``C U[:, 0]``,
    ``Yᵀztil`` rises by ``C U[:, 1]``; the momentum schedule ``thetas``
    is computed at harvest), so the iterates equal the blocking run's to
    rounding at every ``tau``. ``pipeline=True`` is the ``tau = 0`` case
    (mutually exclusive with ``async_``): the next step's block and
    partial Gram are computed while the current reduction is in flight,
    with iterates and message counts identical to the blocking run and
    only the unoverlapped latency remainder charged. See
    :func:`repro.solvers.lasso.plain.sa_bcd` for the staleness
    words and flops the cross Grams add, the staleness accounting
    (``stale_seconds`` / ``max_staleness``) and the ``nb_depth = tau +
    1`` communicator ring requirement. ``eig_memo``
    supplies a private eigenvalue memo for the fused loop (default: the
    shared process-wide memo).

    Convergence records follow :func:`repro.solvers.lasso.plain.sa_bcd`:
    at iteration 0 and the outer-step boundaries that cross a multiple
    of ``record_every`` (and at ``max_iter``), each rank's
    ``||r_local||^2`` at the implicit iterate ``theta^2 y + z`` riding
    the next Gram reduction as one trailing word (iteration 0's
    unpriced). One collective per outer step plus one closing allreduce
    for the records no reduction carries; with ``tol``, every schedule
    returns exactly the iterate its converged record describes
    (``async_`` restores it after running ``tau`` outer steps past it).
    """
    fam = AccState(
        f"sa-accbcd(mu={mu}, s={s})", A, b, penalty, mu=mu, comm=comm, x0=x0,
        seed=seed, max_iter=max_iter, tol=tol, record_every=record_every,
        symmetric_pack=symmetric_pack, fast=fast, eig_memo=eig_memo,
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink,
        resume_from=resume_from,
    )
    return run_sa(fam, s=s, pipeline=pipeline, async_=async_, tau=tau)


def acc_cd(A, b, penalty, **kwargs) -> SolverResult:
    """Accelerated single-coordinate CD (``mu = 1``)."""
    kwargs["mu"] = 1
    res = acc_bcd(A, b, penalty, **kwargs)
    res.solver = "acccd"
    return res


def sa_acc_cd(A, b, penalty, **kwargs) -> SolverResult:
    """SA accelerated single-coordinate CD (``mu = 1``)."""
    kwargs["mu"] = 1
    res = sa_acc_bcd(A, b, penalty, **kwargs)
    res.solver = res.solver.replace("sa-accbcd(mu=1, ", "sa-acccd(")
    return res
