"""Fast-path kernels for the hot loops of the (SA-)BCD/DCD solvers.

The paper's whole premise is that the SA methods trade ``s``
synchronizations for one packed Allreduce plus redundant local work — so
the *local* kernels (column/row sampling, Gram packing, the eq. (3)-(5)
correction recurrences) are where wall-clock is won or lost. This module
collects the allocation-free / cache-friendly versions of those kernels:

* :func:`gather_columns` / :func:`gather_rows` — compressed-axis slice
  gathers out of a CSC (resp. CSR) shard. A vectorised index plan
  replaces scipy's minor-axis fancy indexing (which scans *every* local
  non-zero); output arrays live in a reusable :class:`GatherWorkspace`
  so the steady-state path allocates almost nothing.
* :func:`tri_plan` / :func:`mirror_plan` — cached lower-triangle index
  plans for the packed symmetric Gram payload (paper footnote 3) and
  for unpacking it into a full block with one take, shared by
  :mod:`repro.linalg.packing`.
* :func:`slice_gram` / :func:`slice_project` — the packed Gram head and
  the projections of a sampled sparse block, straight from its
  compressed arrays and in scipy's summation order, for blocks sparse
  enough that their work stays near their nnz
  (:func:`slice_kernel_fits`).
* :class:`EigMemo` / :func:`largest_eigenvalue_cached` — bytes-keyed
  memo of the block Lipschitz constant, for one ``(k, k)`` block or an
  ``(s, k, k)`` stack of them. Sampled blocks repeat under fixed seeds
  and along regularization paths; a repeated block yields a
  byte-identical Gram block, so the memo returns the *exact* same float
  the eigensolver would. A stack is looked up block by block and its
  misses are solved in one batched LAPACK call
  (:func:`~repro.linalg.eig.largest_eigenvalues`). The memo is an LRU
  behind a lock, so thread-backend ranks can share it; the solve runs
  outside the lock. The module-level default memo persists across
  solves, which is what lets a warm regularization-path sweep skip the
  eigensolves its first point already paid for; its LRU bound keeps long
  sweeps from growing it without limit.
* :func:`diag_blocks` — the diagonal blocks of an outer step's Gram as
  one stack, so the fused ``mu > 1`` loops make one eigensolve call per
  outer step.
* :func:`acc_coef_tables` — the theta/eta/momentum coefficient tables of
  the fused SA-accBCD inner loop (paper eqs. (3)-(5)), vectorised with
  the same operation association as the scalar recurrences so the
  ``mu = 1`` fused loop reproduces the naive loop bit for bit.
* :func:`sparse_columns` — the CSC view of a sampled block that the
  fused Lasso loops read column ranges from.

Parity contract
---------------
The gathers, Gram plans, slice kernels, eigenvalue memo and coefficient
tables return exactly what the straightforward implementation
(``fast=False``, scipy's sparse products) would,
so the ``mu = 1`` and SVM fused loops keep the reference iterate
sequence bit for bit. The ``mu > 1`` Lasso loops trade that for speed:
they apply each iteration's correction sum as one prefix GEMV/GEMM over
the stacked update history, and apply the outer step's residual updates
as one product with that history after the last inner iteration; both
re-associate reductions. Their iterates stay within 1e-9 relative of the
reference; the modelled ledger is identical, since only the association
changes, not the work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple

import numpy as np
import scipy.sparse as sp

from repro.errors import SolverError
from repro.linalg.eig import largest_eigenvalues

__all__ = [
    "GatherWorkspace",
    "gather_columns",
    "gather_rows",
    "tri_plan",
    "mirror_plan",
    "slice_kernel_fits",
    "slice_gram",
    "slice_project",
    "EigMemo",
    "default_eig_memo",
    "largest_eigenvalue_cached",
    "eig_cache_info",
    "eig_cache_clear",
    "acc_coef_tables",
    "sparse_columns",
    "diag_blocks",
]


# ---------------------------------------------------------------------------
# compressed-axis gathers
# ---------------------------------------------------------------------------


class GatherWorkspace:
    """Reusable buffers for compressed-axis gathers.

    A gather returns array views into these buffers; they stay valid
    until the *next* gather through the same workspace. The solvers obey
    this lifetime: a sampled block is consumed within one (outer)
    iteration, before the next sampling call.
    """

    __slots__ = ("_data", "_indices", "_arange")

    def __init__(self) -> None:
        self._data = np.empty(0, dtype=np.float64)
        self._indices = np.empty(0, dtype=np.int32)
        self._arange = np.empty(0, dtype=np.int64)

    def _take(self, src: np.ndarray, flat: np.ndarray, which: str) -> np.ndarray:
        """``src[flat]`` into the reusable buffer for ``which``."""
        buf = getattr(self, which)
        n = flat.shape[0]
        if buf.dtype != src.dtype or buf.shape[0] < n:
            cap = max(n, 2 * buf.shape[0])
            buf = np.empty(cap, dtype=src.dtype)
            setattr(self, which, buf)
        out = buf[:n]
        np.take(src, flat, out=out)
        return out

    def arange(self, n: int) -> np.ndarray:
        """Read-only ``[0, n)`` ramp used to build gather plans."""
        if self._arange.shape[0] < n:
            self._arange = np.arange(max(n, 2 * self._arange.shape[0]), dtype=np.int64)
        return self._arange[:n]


def _compressed_gather(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    idx: np.ndarray,
    ws: GatherWorkspace | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the compressed-axis slices ``idx`` of a CSC/CSR triplet.

    Cost is O(k + output nnz) — independent of the shard's total nnz,
    unlike scipy's minor-axis fancy indexing.
    """
    starts = indptr[idx].astype(np.int64, copy=False)
    counts = indptr[idx + 1].astype(np.int64, copy=False) - starts
    out_indptr = np.empty(idx.shape[0] + 1, dtype=indptr.dtype)
    out_indptr[0] = 0
    np.cumsum(counts, out=out_indptr[1:])
    total = int(out_indptr[-1])
    if total == 0:
        return out_indptr, indices[:0].copy(), data[:0].copy()
    # flat[p] = starts[col(p)] + (p - out_indptr[col(p)]) for output slot p
    flat = np.repeat(starts - out_indptr[:-1].astype(np.int64), counts)
    if ws is None:
        flat += np.arange(total, dtype=np.int64)
        return out_indptr, indices[flat], data[flat]
    flat += ws.arange(total)
    return out_indptr, ws._take(indices, flat, "_indices"), ws._take(data, flat, "_data")


def gather_columns(
    csc: sp.csc_matrix, idx: np.ndarray, ws: GatherWorkspace | None = None
) -> sp.csc_matrix:
    """Columns ``idx`` of a CSC matrix as a CSC matrix (cheap slice-gather).

    With a workspace the returned matrix's arrays are views into reusable
    buffers — valid until the workspace's next gather.
    """
    indptr, indices, data = _compressed_gather(csc.indptr, csc.indices, csc.data, idx, ws)
    out = sp.csc_matrix(
        (data, indices, indptr), shape=(csc.shape[0], int(idx.shape[0])), copy=False
    )
    out.has_sorted_indices = csc.has_sorted_indices
    return out


def gather_rows(
    csr: sp.csr_matrix, idx: np.ndarray, ws: GatherWorkspace | None = None
) -> sp.csr_matrix:
    """Rows ``idx`` of a CSR matrix as a CSR matrix (cheap slice-gather)."""
    indptr, indices, data = _compressed_gather(csr.indptr, csr.indices, csr.data, idx, ws)
    out = sp.csr_matrix(
        (data, indices, indptr), shape=(int(idx.shape[0]), csr.shape[1]), copy=False
    )
    out.has_sorted_indices = csr.has_sorted_indices
    return out


def sparse_columns(Y) -> sp.csc_matrix | None:
    """CSC view of a sampled block, or None for dense blocks.

    Free when ``Y`` is already CSC (the fast sampling path); one
    conversion per outer step otherwise.
    """
    if not sp.issparse(Y):
        return None
    return Y.tocsc(copy=False)


# ---------------------------------------------------------------------------
# packed-collective index plans
# ---------------------------------------------------------------------------

_TRI_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_TRI_CACHE_MAX = 256


def tri_plan(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``(rows, cols, flat)`` lower-triangle index plan for k x k.

    ``flat = rows * k + cols`` ravels the plan for :func:`numpy.take`,
    which is much cheaper than re-building ``np.tril_indices`` (two
    O(k^2) allocations) on every pack/unpack.
    """
    plan = _TRI_CACHE.get(k)
    if plan is None:
        il, jl = np.tril_indices(k)
        plan = (il, jl, il * k + jl)
        if len(_TRI_CACHE) < _TRI_CACHE_MAX:
            _TRI_CACHE[k] = plan
    return plan


_MIRROR_CACHE: dict[int, np.ndarray] = {}


def mirror_plan(k: int) -> np.ndarray:
    """Cached ``(k, k)`` plan: entry ``(i, j)`` is the packed-triangle
    position of ``(max(i, j), min(i, j))``.

    One :func:`numpy.take` through it unpacks a packed lower triangle
    into the full symmetric block, or expands it to the full packing.
    """
    plan = _MIRROR_CACHE.get(k)
    if plan is None:
        r = np.arange(k)
        hi, lo = np.maximum.outer(r, r), np.minimum.outer(r, r)
        plan = hi * (hi + 1) // 2 + lo
        if len(_MIRROR_CACHE) < _TRI_CACHE_MAX:
            _MIRROR_CACHE[k] = plan
    return plan


# ---------------------------------------------------------------------------
# sampled-block Gram kernel
# ---------------------------------------------------------------------------

#: A sparse block takes the slice kernel while it holds at most this many
#: non-zeros per index of its other axis (rows of a sampled-column block,
#: features of a sampled-row one). The kernel's work and memory grow with
#: the pairs of slices sharing an index, about ``nnz * fill / 2``; scipy's
#: product pays about 0.2 ms of fixed overhead. Measured on a 2-core
#: x86-64 VM: 128 columns over 8,000 rows took 0.3-0.5x scipy's time at
#: fill 0.03-0.17 and 0.8x at fill 1, and 1.3x at fill 1.5; 16 rows over
#: 31,000 features broke even near fill 0.5 and took 1.4x at fill 1.
SLICE_KERNEL_MAX_FILL = 1.0


def slice_kernel_fits(Y) -> bool:
    """Whether :func:`slice_gram` and :func:`slice_project` serve ``Y``:
    a CSC (sampled columns) or CSR (sampled rows) block with sorted
    indices and at most :data:`SLICE_KERNEL_MAX_FILL` non-zeros per index
    of the other axis. Dense blocks keep BLAS and the rest keep scipy."""
    if not sp.issparse(Y) or Y.format not in ("csc", "csr"):
        return False
    other = Y.shape[0] if Y.format == "csc" else Y.shape[1]
    return Y.nnz <= SLICE_KERNEL_MAX_FILL * other and bool(Y.has_sorted_indices)


def _slice_ids(indptr: np.ndarray) -> np.ndarray:
    """The slice (compressed-axis index) of each stored entry."""
    return np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` below ``bound``,
    as 16-bit radix passes (numpy radix-sorts 16-bit keys, and
    merge-sorts wider ones several times slower)."""
    order, shift = None, 0
    while True:
        digit = keys if order is None else keys.take(order)
        step = np.argsort(((digit >> shift) & 0xFFFF).astype(np.uint16), kind="stable")
        order = step if order is None else order.take(step)
        shift += 16
        if bound <= 1 << shift:
            return order


def slice_gram(Y, symmetric: bool, out: np.ndarray) -> int:
    """Pack the Gram of ``Y``'s slices (``YᵀY`` for sampled columns,
    ``YYᵀ`` for sampled rows) into the head of ``out``; returns its
    length, as :func:`repro.linalg.packing.pack_gram_head` does.

    Bit for bit what packing scipy's product gives: scipy sums each
    entry over the other axis in ascending order, starting from 0.0, and
    so does this. The diagonal is one weighted ``bincount`` of the
    squares in stored order. An off-diagonal entry gathers products only
    from indices that two or more slices share: those entries, sorted
    stably by index, pair up within each index, and the pairs, in index
    order, join the same ``bincount``. Its work grows with the number of
    such pairs, and its calls with the most slices sharing one index.
    """
    indptr, indices, data = Y.indptr, Y.indices, Y.data
    k = indptr.shape[0] - 1
    size = k * (k + 1) // 2 if symmetric else k * k
    if not data.shape[0]:
        out[:size] = 0.0
        return size
    sid = _slice_ids(indptr)
    slots = (sid * (sid + 3)) >> 1  # (i, i) in the packed triangle
    with np.errstate(over="ignore"):  # scipy overflows silently too
        weights = data * data
    other = Y.shape[0] if Y.format == "csc" else Y.shape[1]
    mult = np.bincount(indices, minlength=other).take(indices)
    shared = np.flatnonzero(mult > 1)
    if shared.shape[0]:
        at = shared.take(_stable_order(indices.take(shared), other))
        key = indices.take(at)
        # pair each shared entry with the ones d places later in its group
        first, second = [], []
        for d in range(1, int(mult.take(shared).max())):
            p = np.flatnonzero(key[d:] == key[:-d])
            first.append(p)
            second.append(p + d)
        a, b = np.concatenate(first), np.concatenate(second)
        if len(first) > 1:  # back into index order
            order = _stable_order(a, at.shape[0])
            a, b = a.take(order), b.take(order)
        pa, pb = at.take(a), at.take(b)
        hi = sid.take(pb)  # the later slice of each pair
        slots = np.concatenate([slots, ((hi * (hi + 1)) >> 1) + sid.take(pa)])
        with np.errstate(over="ignore"):
            weights = np.concatenate([weights, data.take(pa) * data.take(pb)])
    head = np.bincount(slots, weights=weights, minlength=k * (k + 1) // 2)
    if symmetric:
        out[:size] = head
    else:
        np.take(head, mirror_plan(k).ravel(), out=out[:size], mode="clip")
    return size


def slice_project(Y, vectors, out: np.ndarray) -> None:
    """``Y``'s slices times each of ``vectors`` (other-axis length) into
    ``out`` (``k * c`` words, row-major): ``Yᵀ[v_1 ... v_c]`` for sampled
    columns, ``Y @ x`` for sampled rows.

    Each sum runs over the slice's entries in stored order from 0.0, as
    scipy's ``csr_matvec``/``csr_matvecs`` do, so the words equal scipy's
    product bit for bit.
    """
    k, c = Y.indptr.shape[0] - 1, len(vectors)
    sid = _slice_ids(Y.indptr)
    for j, v in enumerate(vectors):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = Y.data * v.take(Y.indices)
        out[j:k * c:c] = np.bincount(sid, weights=vals, minlength=k)


# ---------------------------------------------------------------------------
# block Lipschitz-constant cache
# ---------------------------------------------------------------------------


CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class EigMemo:
    """Bounded bytes-keyed memo of block Lipschitz constants.

    Keyed on the raw bytes of the (contiguous, float64) Gram block, so a
    hit returns the exact float the eigensolver produced for the
    identical input — repeated sampled blocks (fixed seeds, repeated
    block streams along a regularization path) skip the LAPACK call
    without perturbing the iterate sequence. Least-recently-used entries
    are evicted past ``maxsize``, so the memo stays bounded during long
    sweeps.

    Lookups, inserts and evictions hold a lock (thread-backend ranks
    share the default memo); the eigensolve runs outside it, so two
    threads missing the same block may both solve it. A stack counts
    one hit or miss per block and leaves the LRU order that ``s``
    single-block calls would; a block repeated within one stack is
    solved once, and its repeats count as hits.
    """

    __slots__ = ("maxsize", "_entries", "_lock", "_hits", "_misses")

    def __init__(self, maxsize: int = 1024) -> None:
        self.maxsize = max(int(maxsize), 0)
        self._entries: OrderedDict[bytes, float] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def eig(self, G: np.ndarray) -> float | np.ndarray:
        """Memoised :func:`~repro.linalg.eig.largest_eigenvalue` of a
        ``(k, k)`` block (a float), or of each block of an ``(s, k, k)``
        stack (an array of ``s`` floats)."""
        G = np.ascontiguousarray(G, dtype=np.float64)
        shape = G.shape
        if len(shape) == 2 and shape[0] == shape[1] > 1:
            # one block's hit, kept lean (acquire/release beats ``with``)
            key = G.tobytes()
            self._lock.acquire()
            try:
                v = self._entries.get(key)
                if v is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return v
            finally:
                self._lock.release()
        elif len(shape) not in (2, 3) or shape[-1] != shape[-2] or shape[-1] == 0:
            raise SolverError(
                f"G must be a square block or a stack of them, got {shape}")
        k = shape[-1]
        stack = G.reshape(-1, k, k)
        # scalar Gram blocks: the eigenvalue is the entry itself
        vals = largest_eigenvalues(stack) if k == 1 else self._lookup(stack)
        return vals if G.ndim == 3 else float(vals[0])

    def _lookup(self, stack: np.ndarray) -> np.ndarray:
        """Each block's value (order >= 2); the misses solved in one call."""
        keys = [blk.tobytes() for blk in stack]
        vals: list = [None] * len(keys)
        todo: dict[bytes, int] = {}  # missed key -> index of its first block
        with self._lock:
            for i, key in enumerate(keys):
                v = self._entries.get(key)
                if v is None and key not in todo:
                    todo[key] = i
                    self._misses += 1
                    continue
                self._hits += 1
                if v is not None:
                    self._entries.move_to_end(key)
                    vals[i] = v
        if todo:
            first = list(todo.values())
            solved = largest_eigenvalues(stack if len(first) == len(keys) else stack[first])
            solved = dict(zip(todo, solved.tolist()))
            vals = [solved[key] if v is None else v for key, v in zip(keys, vals)]
            with self._lock:
                # touch every block in stack order, as single calls would
                for key, v in zip(keys, vals):
                    self._entries[key] = v
                    self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        return np.array(vals)

    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics (lru_cache-compatible shape)."""
        with self._lock:
            return CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo so far."""
        info = self.cache_info()
        total = info.hits + info.misses
        return info.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


_DEFAULT_EIG_MEMO = EigMemo(maxsize=1024)


def default_eig_memo() -> EigMemo:
    """The process-wide memo the solvers share (persists across solves)."""
    return _DEFAULT_EIG_MEMO


def largest_eigenvalue_cached(
    G: np.ndarray, memo: EigMemo | None = None
) -> float | np.ndarray:
    """Memoised largest eigenvalue of a ``(k, k)`` block, or of each block
    of an ``(s, k, k)`` stack, through ``memo`` (default: shared memo)."""
    return (memo if memo is not None else _DEFAULT_EIG_MEMO).eig(G)


def eig_cache_info() -> CacheInfo:
    """Hit/miss statistics of the shared eigenvalue memo (diagnostics)."""
    return _DEFAULT_EIG_MEMO.cache_info()


def eig_cache_clear() -> None:
    """Drop every entry of the shared eigenvalue memo (cold-start runs)."""
    _DEFAULT_EIG_MEMO.clear()


def diag_blocks(G: np.ndarray, width: int) -> np.ndarray:
    """The diagonal ``width x width`` blocks of ``G`` as an ``(s, width,
    width)`` stack (a copy), for an outer step of ``s`` equal blocks."""
    s = G.shape[0] // width
    at = np.arange(s)
    return G.reshape(s, width, s, width)[at, :, at, :]


# ---------------------------------------------------------------------------
# fused SA-accBCD coefficient tables
# ---------------------------------------------------------------------------


def acc_coef_tables(
    thetas, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-outer-step coefficient tables for the fused inner loop.

    Parameters
    ----------
    thetas:
        ``theta_{sk+j-1}`` for the ``s_eff`` inner iterations (the first
        ``s_eff`` entries of the theta schedule).
    q:
        ``ceil(n / mu)`` as a float (paper's 1/q sampling probability).

    Returns
    -------
    (t2, qth, coefs, C):
        ``t2[j] = theta_j^2``; ``qth[j] = q * theta_j`` (so the step size
        is ``1 / (qth[j] * v)``); ``coefs[j] = (1 - q theta_j)/theta_j^2``
        (the y-momentum coefficient, Alg. 2 line 20); and the correction
        table ``C[j, t] = theta_j^2 (1 - q theta_t)/theta_t^2 - 1`` of
        eq. (3), of which only the strict lower triangle is used.

    Every entry is computed with the same operation association as the
    scalar expressions in the naive loop, so the fused loop's arithmetic
    is bit-identical.
    """
    thv = np.asarray(thetas, dtype=np.float64)
    t2 = thv * thv
    qth = q * thv
    one_minus = 1.0 - qth
    coefs = one_minus / t2
    C = (t2[:, None] * one_minus[None, :]) / t2[None, :] - 1.0
    return t2, qth, coefs, C
