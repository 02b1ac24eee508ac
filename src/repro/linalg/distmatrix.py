"""Distributed matrices: 1-D row partition (Lasso) and column partition (SVM).

These classes own the two communication kernels of the paper:

* :meth:`RowPartitionedMatrix.gram_and_project` — partial
  ``G = SᵀS`` and ``R = SᵀV`` summed in **one packed Allreduce**
  (paper Fig. 1 steps 3-4; Alg. 1 lines 8-9; Alg. 2 lines 11-12);
* :meth:`ColPartitionedMatrix.gram_rows_and_project` — the transposed
  analogue for dual SVM (Alg. 3 lines 7-8; Alg. 4 lines 9-10).

Flops are charged to the communicator's ledger with the kernel class that
drives the paper's Fig. 4 computation-speedup analysis: Gram formation is
a BLAS-3 (cache-friendly) kernel, single dot products are BLAS-1.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import PartitionError, SolverError
from repro.linalg.kernels import (
    GatherWorkspace,
    gather_columns,
    gather_rows,
    slice_gram,
    slice_kernel_fits,
    slice_project,
)
from repro.linalg.packing import (
    pack_extras,
    pack_gram_head,
    packed_length,
    tri_length,
    unpack_gram,
)
from repro.linalg.partition import Partition1D, balanced_nnz_partition
from repro.mpi.comm import Comm
from repro.mpi.ops import SUM
from repro.utils.validation import check_dense_or_csr, nnz_of

__all__ = ["RowPartitionedMatrix", "ColPartitionedMatrix", "GramPipeline"]


def _densify_small(M) -> np.ndarray:
    """Sampled blocks are tall-skinny; dense math on them is the fast path."""
    if sp.issparse(M):
        return np.asarray(M.todense())
    return np.asarray(M)


def _check_gram_finite(head: np.ndarray) -> None:
    """Raise if the reduced Gram (the packed payload's head) overflowed.

    The Gram depends only on the data, so a non-finite entry blames the
    input (entries too large to square in float64), never a diverging
    iterate; it is replicated, so every rank raises at the same
    collective. A guard, not algorithm work: not charged.
    """
    if not np.isfinite(head).all():
        raise SolverError(
            "the reduced Gram block overflowed float64 (non-finite entries): "
            "the data's entries are too large to square; rescale A")


class _Shard:
    """One rank's row range of a global CSR matrix, as :meth:`RowPartitioned
    Matrix.from_global` slices it, plus the CSC sampling view the first
    matrix that samples columns from it builds (lazily)."""

    __slots__ = ("offsets", "lo", "hi", "dtypes", "local", "csc")

    def __init__(self, A, offsets: tuple, lo: int, hi: int) -> None:
        self.offsets, self.lo, self.hi = offsets, lo, hi
        self.dtypes = (A.indptr.dtype, A.indices.dtype)
        self.local = A[lo:hi]
        self.csc = None

    def matches(self, A, offsets: tuple) -> bool:
        """Whether slicing ``A`` afresh would give this shard: the same
        partition, and the row range's rebased ``indptr``, ``indices`` and
        ``data`` equal to the shard's (an in-place edit of ``A`` since the
        slice shows here)."""
        if offsets != self.offsets or (A.indptr.dtype, A.indices.dtype) != self.dtypes:
            return False
        local, ip = self.local, A.indptr[self.lo:self.hi + 1]
        start, end = ip[0], ip[-1]
        return (local.shape[1] == A.shape[1]
                and np.array_equal(ip - start, local.indptr)
                and np.array_equal(A.indices[start:end], local.indices)
                and np.array_equal(A.data[start:end], local.data))


class _ShardMemo:
    """Per-process memo of the row shards the last global matrix was cut
    into, so a matrix solved again skips the slice and the CSC view.

    Holds at most one matrix, weakly (its entries die with it), and one
    :class:`_Shard` per rank: memory of one shard plus its CSC view per
    rank, about twice that rank's slice of ``A``. Every hit first checks
    the shard against ``A``'s current contents (:meth:`_Shard.matches`),
    so an in-place edit of ``A`` between solves forces a rebuild. Thread
    ranks share it under a lock; the slice and the check run outside it.
    """

    def __init__(self) -> None:
        # reentrant: the weakref callback may fire in a thread holding it
        self._lock = threading.RLock()
        self._ref = None
        self._shards: dict[int, _Shard] = {}

    def _held(self):
        return None if self._ref is None else self._ref()

    def _forget(self, ref) -> None:
        """Weakref callback: the matrix died, so its shards go with it."""
        with self._lock:
            if self._ref is ref:
                self._ref, self._shards = None, {}

    def shard(self, A, rank: int, offsets: tuple, lo: int, hi: int) -> _Shard:
        """Rank ``rank``'s shard ``A[lo:hi]``, reused when still valid."""
        with self._lock:
            found = self._shards.get(rank) if self._held() is A else None
        if found is not None and found.matches(A, offsets):
            return found
        fresh = _Shard(A, offsets, lo, hi)
        with self._lock:
            if self._held() is not A:
                self._ref, self._shards = weakref.ref(A, self._forget), {}
            self._shards[rank] = fresh
        return fresh


_SHARDS = _ShardMemo()


class _PartitionedBase:
    """Shared plumbing for the two layouts.

    Construction normalises sparse shards to canonical CSR and builds the
    layout's sampling view (see subclasses). Packed collectives reuse a
    pair of per-instance send/receive buffers — with the fold-inside-
    collective backends this is the zero-allocation steady-state path.
    """

    def __init__(self, comm: Comm, partition: Partition1D, local, shape) -> None:
        self.comm = comm
        self.partition = partition
        if sp.issparse(local):
            local = local.tocsr()
        self.local = local
        self.shape = tuple(shape)
        self.local_nnz = nnz_of(local)
        self._gather_ws = GatherWorkspace()
        self._send_buf: np.ndarray | None = None
        self._recv_buf: np.ndarray | None = None
        self._gram_out: np.ndarray | None = None
        self._proj_out: np.ndarray | None = None
        self._build_sampling_view()

    def _build_sampling_view(self) -> None:
        """Hook: cache the layout's cheap-slice-gather view of the shard."""

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.local)

    def _coerce_like_local(self, block):
        """Match an appended block to the shard's storage (CSR or dense)."""
        if self.is_sparse:
            return sp.csr_matrix(block) if not sp.issparse(block) else block.tocsr()
        if sp.issparse(block):
            return np.asarray(block.todense())
        return np.asarray(block)

    def _stack_local(self, share) -> None:
        """Grow the shard by ``share`` rows; refresh the nnz bookkeeping."""
        share = self._coerce_like_local(share)
        if self.is_sparse:
            self.local = sp.vstack([self.local, share], format="csr")
        else:
            self.local = np.vstack([self.local, share])
        self.local_nnz = nnz_of(self.local)

    def _validate_remove_idx(self, idx) -> np.ndarray:
        """Normalise row indices for a removal: unique (set semantics),
        in-range, and not the entire matrix. Empty is a legal no-op the
        caller handles."""
        idx = np.unique(np.asarray(idx, dtype=np.intp))
        if idx.size == 0:
            return idx
        m = self.shape[0]
        if idx[0] < 0 or idx[-1] >= m:
            raise PartitionError(
                f"row indices to remove must lie in [0, {m}), got range "
                f"[{int(idx[0])}, {int(idx[-1])}]"
            )
        if idx.size >= m:
            raise PartitionError("cannot remove every row of the matrix")
        return idx

    def _packed_buffers(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Reusable (send, recv) float64 views of exactly ``length``."""
        if self._send_buf is None or self._send_buf.shape[0] < length:
            self._send_buf = np.empty(length, dtype=np.float64)
            self._recv_buf = np.empty(length, dtype=np.float64)
        return self._send_buf[:length], self._recv_buf[:length]

    def _gram_outputs(self, k: int, c: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Reusable ``(G, R)`` output arrays for the unpacked reduction.

        Like the gather workspace, the returned arrays stay valid until
        the *next* Gram collective through this matrix — the solvers
        consume (G, R) within one outer step, so the steady state
        allocates nothing. The buffers are reallocated only when the
        block shape changes (e.g. a truncated final outer step).
        """
        if self._gram_out is None or self._gram_out.shape != (k, k):
            self._gram_out = np.empty((k, k), dtype=np.float64)
        if c == 0:
            return self._gram_out, None
        if self._proj_out is None or self._proj_out.shape != (k, c):
            self._proj_out = np.empty((k, c), dtype=np.float64)
        return self._gram_out, self._proj_out

    def _charge_gram_only(self, nnz_block: float, k: int, symmetric: bool,
                          k_other: int | None = None) -> None:
        """Charge the (residual-independent) Gram-formation flops: of the
        block's own Gram or, with ``k_other``, of its cross Gram with a
        block of ``k_other`` slices, priced as a non-symmetric Gram."""
        cols = k if k_other is None else k_other
        if symmetric and k_other is None:
            gram_flops = nnz_block * (k + 1)
        else:
            gram_flops = 2.0 * nnz_block * cols
        # working set: sampled block + Gram output
        ws = 12.0 * nnz_block + 8.0 * k * cols
        kind = "blas3" if cols > 1 else "blas1"
        self.comm.account_flops(gram_flops, kind, working_set_bytes=ws)

    def _charge_proj(self, nnz_block: float, k: int, extra_cols: int) -> None:
        """Charge the (residual-dependent) projection flops."""
        if extra_cols:
            ws = 12.0 * nnz_block + 8.0 * k * k
            self.comm.account_flops(
                2.0 * nnz_block * extra_cols, "blas2", working_set_bytes=ws
            )

    def _charge_gram(self, nnz_block: float, k: int, extra_cols: int, symmetric: bool) -> None:
        """Charge Gram + projection flops for a sampled block.

        Split into :meth:`_charge_gram_only` + :meth:`_charge_proj` so
        the pipelined path (which computes the two halves at different
        times) charges the identical total.
        """
        self._charge_gram_only(nnz_block, k, symmetric)
        self._charge_proj(nnz_block, k, extra_cols)

    def _pack_head(self, Y, symmetric: bool, out: np.ndarray) -> int:
        """Pack block ``Y``'s partial Gram into the head of ``out``; returns
        the head's length. Sparse enough blocks take the slice kernel, the
        rest scipy's product (dense ones BLAS); the words are the same."""
        if slice_kernel_fits(Y):
            return slice_gram(Y, symmetric, out)
        return pack_gram_head(_densify_small(self._block_gram(Y)), symmetric, out)

    def _pack_cross(self, Y, Z, out: np.ndarray) -> None:
        """Pack the dense cross Gram of blocks ``Y`` and ``Z`` (``YᵀZ`` /
        ``YZᵀ``, row-major) into the head of ``out``."""
        cross = _densify_small(self._block_cross(Y, Z))
        out[:cross.size] = cross.ravel()

    def _pack_proj(self, Y, vectors: list, symmetric: bool, out: np.ndarray) -> None:
        """Pack block ``Y``'s partial projections of ``vectors`` after the
        head, the same way."""
        k = self._block_len(Y)
        if slice_kernel_fits(Y):
            slice_project(Y, vectors, out[tri_length(k) if symmetric else k * k:])
        else:
            pack_extras(_densify_small(self._block_proj(Y, vectors)), k, symmetric, out)

    def _tail_rides(self, n: int, tail, nonblocking: bool) -> bool:
        """Whether ``tail`` rides a reduction of ``n`` packed words. It
        does wherever the whole payload fits the communicator's slot;
        otherwise it is summed now in its own ledger-paused Allreduce
        (the carrier still prices it), so a large record never makes a
        reduction overflow. Every rank decides alike: ``n``, the tail's
        length and the slot size are the same on all of them."""
        if tail is None or self.comm.payload_fits(n + tail.shape[0], nonblocking):
            return tail is not None
        with self.comm.ledger.paused():
            tail[:] = self.comm.Allreduce(tail, timeout=self.comm.timeout)
        return False

    def _reduce_block(self, Y, vectors: list, symmetric: bool, tail=None,
                      tail_priced: bool = True):
        """Pack block ``Y``'s partial Gram and projections of ``vectors``
        and sum them across ranks in one packed Allreduce.

        ``tail`` (optional float64 buffer) holds this rank's partials of
        a convergence record (:class:`repro.solvers.outer.Checks`); they
        ride the same message after the projections and are overwritten
        in place with their sums. ``tail_priced=False`` charges the
        message at its Gram-plus-projection length, as for an SA solve's
        iteration-0 record. Returns ``(G, extras-or-None)`` in the
        reusable output buffers.
        """
        k, c = self._block_len(Y), len(vectors)
        n = packed_length(k, c, symmetric)
        words = float(n if tail is None or not tail_priced else n + tail.shape[0])
        rides = self._tail_rides(n, tail, nonblocking=False)
        send, recv = self._packed_buffers(n + tail.shape[0] if rides else n)
        self._pack_head(Y, symmetric, send)
        if c:
            self._pack_proj(Y, vectors, symmetric, send)
        if rides:
            send[n:] = tail
        total = self.comm.Allreduce(send, out=recv, timeout=self.comm.timeout,
                                    words=words)
        _check_gram_finite(total[:packed_length(k, 0, symmetric)])
        if rides:
            tail[:] = total[n:]
        out_g, out_r = self._gram_outputs(k, c)
        return unpack_gram(total[:n], k, c, symmetric, out_g=out_g, out_extras=out_r)


class _PipeSlot:
    """One buffer set of a :class:`GramPipeline`'s ring.

    Owns everything whose lifetime spans one in-flight reduction: the
    gather workspace holding the sampled block, the packed send buffer
    (which peers may still be reading), the receive buffer, the unpacked
    (G, R) outputs the inner loop consumes, the slice counts of the
    earlier blocks its post carries cross Grams with, and the record
    tail the post carried, if any.
    """

    __slots__ = ("ws", "send", "recv", "out_g", "out_r", "Y", "k", "req",
                 "tail", "lags")

    def __init__(self) -> None:
        self.ws = GatherWorkspace()
        self.send: np.ndarray | None = None
        self.recv: np.ndarray | None = None
        self.out_g: np.ndarray | None = None
        self.out_r: np.ndarray | None = None
        self.Y = None
        self.k = 0
        self.req = None
        self.tail: np.ndarray | None = None
        self.lags: list = []


class GramPipeline:
    """Nonblocking Gram + projection reductions on a ring of buffers.

    The communication engine of the ring-scheduled SA solvers (paper
    Alg. 2/4 with the one synchronization per outer step made
    *asynchronous*). Per outer step the driver calls, in order:

    1. :meth:`prefetch` for a later step — sample its block and pack its
       partial Gram (``Y^T Y`` / ``Y Y^T``, residual-independent) **while
       earlier reductions are still in flight**;
    2. :meth:`wait` for this step — block on its reduction, unpack
       ``(G, R)``;
    3. run the inner loop (updates the residual);
    4. :meth:`post` the prefetched step — compute the residual-dependent
       projections, complete the packed payload, post the nonblocking
       Allreduce.

    ``depth`` :class:`_PipeSlot` buffer sets rotate round-robin (default
    2, the classic double buffer) so a prefetch never touches buffers
    that an in-flight reduction or the running inner loop still reads.
    A post made ``lag`` outer steps before its harvest (``lag`` of at
    most ``depth - 2``) carries the dense cross Grams of its block with
    the ``lag`` blocks prefetched just before it — the steps that run
    between its post and its harvest — so the harvest can bring its
    projections up to date with those steps' updates; the cross Grams
    are packed after the projections and before the record tail.
    Without a lag the values are bit-identical to the blocking
    ``gram_and_project`` / ``gram_rows_and_project`` path: same sampled
    blocks, same partial products, same rank-ordered fold, same unpack.
    Each send buffer keeps ``spare`` words for the record tail a post
    may carry, fixed at construction: one (``||r_local||^2``) on the
    Lasso layout, ``m + 1`` (``A_p x_p`` and ``||x_p||^2``) on the SVM one.
    """

    def __init__(
        self, dist, extra_cols: int, symmetric: bool, axis: str,
        depth: int = 2,
    ) -> None:
        self.dist = dist
        self.extra_cols = int(extra_cols)
        self.symmetric = bool(symmetric)
        if axis not in ("cols", "rows"):
            raise PartitionError(f"unknown pipeline axis {axis!r}")
        if int(depth) < 2:
            raise PartitionError(f"pipeline depth must be >= 2, got {depth}")
        self.axis = axis
        self.spare = 1 if axis == "cols" else dist.shape[0] + 1
        self._slots = [_PipeSlot() for _ in range(int(depth))]
        self._next = 0
        # the slots of the latest prefetches, newest last: the blocks a
        # later post may carry cross Grams with
        self._recent: deque = deque(maxlen=int(depth) - 2)

    def prefetch(self, idx: np.ndarray, lag: int = 0) -> _PipeSlot:
        """Sample block ``idx``, pack its partial Gram and, for a post
        ``lag`` steps ahead of its harvest, its cross Grams with the
        ``lag`` latest blocks, newest first (no collective)."""
        slot = self._slots[self._next]
        self._next = (self._next + 1) % len(self._slots)
        dist = self.dist
        if self.axis == "cols":
            Y = dist.sample_columns(idx, ws=slot.ws)
        else:
            Y = dist.sample_rows(idx, ws=slot.ws)
        k, nnz = dist._block_len(Y), nnz_of(Y)
        dist._charge_gram_only(nnz, k, self.symmetric)
        lagged = [self._recent[-i] for i in range(1, lag + 1)]
        head = packed_length(k, self.extra_cols, self.symmetric)
        length = head + k * sum(t.k for t in lagged) + self.spare
        if slot.send is None or slot.send.shape[0] != length:
            slot.send = np.empty(length, dtype=np.float64)
            slot.recv = np.empty(length, dtype=np.float64)
        dist._pack_head(Y, self.symmetric, slot.send)
        slot.Y, slot.k = Y, k
        at = head
        for t in lagged:
            dist._charge_gram_only(nnz, k, self.symmetric, k_other=t.k)
            dist._pack_cross(Y, t.Y, slot.send[at:])
            at += k * t.k
        slot.lags = [t.k for t in lagged]
        self._recent.append(slot)
        return slot

    def post(
        self, slot: _PipeSlot, vectors: Sequence[np.ndarray], tail=None,
        tail_priced: bool = True,
    ) -> None:
        """Pack the projections ``Y^T V`` (resp. ``Y x``), post the reduce.

        ``tail`` (optional float64 buffer of at most ``spare`` words)
        rides the same message after the projections and cross Grams, as
        in :meth:`RowPartitionedMatrix.gram_and_project` (``tail_priced``
        too); :meth:`wait` overwrites it with its sums across ranks. The
        cross Grams' words are priced in full.
        """
        dist = self.dist
        dist._charge_proj(nnz_of(slot.Y), slot.k, self.extra_cols)
        dist._pack_proj(slot.Y, [np.asarray(v) for v in vectors], self.symmetric, slot.send)
        n = slot.send.shape[0] - self.spare
        words = float(n if tail is None or not tail_priced else n + tail.shape[0])
        slot.tail = tail if dist._tail_rides(n, tail, nonblocking=True) else None
        if slot.tail is not None:
            slot.send[n:n + tail.shape[0]] = tail
            n += tail.shape[0]
        slot.req = dist.comm.Iallreduce(slot.send[:n], out=slot.recv[:n], words=words)

    def wait(self, slot: _PipeSlot) -> tuple:
        """Complete the reduction; returns ``(Y, G, R, cross)``.

        ``Y`` is the slot's sampled block (valid until this slot's next
        ``prefetch``, a full ring cycle later); ``(G, R)`` live in the
        slot's own output buffers with the same lifetime. ``cross`` lists
        the summed cross Grams the post carried, newest block first (an
        empty list for a post made just before its harvest); they are
        views of the receive buffer, valid until the slot's next post.
        """
        total = slot.req.wait()
        slot.req = None
        _check_gram_finite(total[:packed_length(slot.k, 0, self.symmetric)])
        n = slot.send.shape[0] - self.spare
        if slot.tail is not None:
            slot.tail[:] = total[n:]
            slot.tail = None
        k, c = slot.k, self.extra_cols
        if slot.out_g is None or slot.out_g.shape != (k, k):
            slot.out_g = np.empty((k, k), dtype=np.float64)
        if c and (slot.out_r is None or slot.out_r.shape != (k, c)):
            slot.out_r = np.empty((k, c), dtype=np.float64)
        at = packed_length(k, c, self.symmetric)
        G, R = unpack_gram(
            total[:at], k, c, self.symmetric,
            out_g=slot.out_g, out_extras=slot.out_r if c else None,
        )
        cross = []
        for kt in slot.lags:
            cross.append(total[at:at + k * kt].reshape(k, kt))
            at += k * kt
        return slot.Y, G, (R if c else np.zeros((k, 0))), cross


class RowPartitionedMatrix(_PartitionedBase):
    """``A`` (m x n) with rows partitioned across ranks (Lasso layout).

    Vectors in R^m (residuals) are partitioned like the rows; vectors in
    R^n (solutions) are replicated — exactly the layout of paper Fig. 1.
    """

    @classmethod
    def from_global(
        cls,
        A,
        comm: Comm,
        partition: Partition1D | None = None,
    ) -> "RowPartitionedMatrix":
        """Each rank slices its own rows from the full matrix ``A``.

        In thread-SPMD mode all ranks call this with the same global
        matrix (read-only) and keep only their shard, mimicking a
        parallel read of the dataset.

        A sparse ``A`` handed in again (the same validated matrix, rank
        and partition) reuses the shard and its CSC sampling view from a
        per-process memo, once the shard still matches ``A``'s contents;
        see :class:`_ShardMemo`. Validation runs on every call.
        """
        A = check_dense_or_csr(A)
        m, n = A.shape
        if partition is None:
            partition = balanced_nnz_partition(A, comm.size, axis=0)
        if partition.n != m or partition.size != comm.size:
            raise PartitionError(
                f"partition ({partition.size} ranks over {partition.n} rows) does not"
                f" match matrix ({m} rows) / communicator ({comm.size} ranks)"
            )
        lo, hi = partition.range_of(comm.rank)
        if not sp.issparse(A):
            return cls(comm, partition, A[lo:hi], (m, n))
        shard = _SHARDS.shard(A, comm.rank, partition.offsets, lo, hi)
        dist = cls(comm, partition, shard.local, (m, n))
        dist._shard = shard
        return dist

    def append_rows(
        self,
        B,
        partition: Partition1D | None = None,
    ) -> Partition1D:
        """Extend the matrix in place with the global batch ``B`` (k x n).

        SPMD-collective like :meth:`from_global`: every rank calls with
        the same batch and keeps only its contiguous share (``partition``
        over the batch's ``k`` rows; default nnz-balanced), appended at
        the end of its local shard. The matrix's global row order after
        the append is therefore *rank-blocked*: rank 0's old rows, then
        rank 0's new rows, then rank 1's, ... — a fixed permutation of
        arrival order that callers tracking the global label vector must
        mirror (see :class:`repro.streaming.StreamingSweep`).

        Only the caches the batch actually touches are invalidated: the
        CSC sampling view (its row dimension changed) is dropped and
        rebuilt lazily on the next :meth:`sample_columns`. The gather
        workspace, packed send/receive buffers, and Gram output buffers
        survive — they are sized by (k, extra_cols), not by the row
        count, and hold no row-indexed state.

        Returns the partition of the batch that was applied.
        """
        B = check_dense_or_csr(B)
        k, n = B.shape
        if n != self.shape[1]:
            raise PartitionError(
                f"appended rows must have {self.shape[1]} columns, got {n}"
            )
        size = self.comm.size
        if partition is None:
            partition = balanced_nnz_partition(B, size, axis=0)
        if partition.n != k or partition.size != size:
            raise PartitionError(
                f"batch partition ({partition.size} ranks over {partition.n} "
                f"rows) does not match batch ({k} rows) / communicator "
                f"({size} ranks)"
            )
        if k == 0:
            # empty batch: a defined no-op — nothing is stacked and no
            # cache is invalidated (the CSC view is still valid)
            return partition
        lo, hi = partition.range_of(self.comm.rank)
        self._stack_local(B[lo:hi])
        counts = self.partition.counts() + partition.counts()
        self.partition = Partition1D(
            tuple(int(o) for o in np.concatenate([[0], np.cumsum(counts)]))
        )
        self.shape = (self.shape[0] + k, self.shape[1])
        # row dimension changed: the CSC sampling view is stale, and the
        # shard no longer mirrors the memo's
        self._csc_cache = self._shard = None
        return partition

    def remove_rows(self, idx) -> np.ndarray:
        """Drop the global rows ``idx`` in place (per-rank shard compaction).

        SPMD-collective like :meth:`append_rows`: every rank calls with
        the same global row indices — in the matrix's *current* global
        (rank-blocked) row order — and compacts its own shard, keeping
        the surviving rows in order. The partition shrinks by the removed
        counts per rank; a rank's shard may legally become empty.
        Duplicate indices are merged (set semantics); an empty ``idx`` is
        a defined no-op that invalidates nothing.

        Mirroring the append, only the cache the eviction actually
        touches is invalidated: the CSC sampling view (its row dimension
        changed) is dropped and rebuilt lazily. The gather workspace,
        packed send/receive buffers, and Gram output buffers survive.
        The compaction cost — an index scan over the old local rows plus
        a copy of the surviving non-zeros — is charged to the ledger.

        Returns the per-rank removed counts (length ``comm.size``).
        """
        idx = self._validate_remove_idx(idx)
        size = self.comm.size
        if idx.size == 0:
            return np.zeros(size, dtype=np.intp)
        m = self.shape[0]
        offsets = np.asarray(self.partition.offsets, dtype=np.intp)
        removed_per_rank = np.diff(np.searchsorted(idx, offsets))
        lo, hi = self.partition.range_of(self.comm.rank)
        mine = idx[(idx >= lo) & (idx < hi)] - lo
        keep = np.setdiff1d(np.arange(hi - lo), mine, assume_unique=True)
        old_rows = self.local.shape[0]
        self.local = self.local[keep]
        self.local_nnz = nnz_of(self.local)
        # compaction: index scan over the old rows + copy of the survivors
        self.comm.account_flops(2.0 * old_rows, "gather")
        self.comm.account_flops(6.0 * self.local_nnz, "scalar")
        counts = self.partition.counts() - removed_per_rank
        self.partition = Partition1D(
            tuple(int(o) for o in np.concatenate([[0], np.cumsum(counts)]))
        )
        self.shape = (m - idx.size, self.shape[1])
        # row dimension changed: the CSC sampling view is stale, and the
        # shard no longer mirrors the memo's
        self._csc_cache = self._shard = None
        return removed_per_rank

    # -- sampling -------------------------------------------------------------
    def _build_sampling_view(self) -> None:
        # Column sampling out of a CSR shard is the classical method's
        # dominant local cost (scipy scans every local non-zero). A CSC
        # view turns it into a cheap slice-gather, at the price of
        # holding the shard twice (CSR for matvecs, CSC for sampling).
        # Built on first use so matvec-only workloads don't pay the 2x;
        # a shard from the memo shares its view with later solves.
        self._csc_cache = None
        self._shard: _Shard | None = None

    @property
    def _local_csc(self):
        if self._csc_cache is None and sp.issparse(self.local):
            shard = self._shard
            if shard is None:
                self._csc_cache = self.local.tocsc()
            else:
                if shard.csc is None:
                    shard.csc = self.local.tocsc()
                self._csc_cache = shard.csc
        return self._csc_cache

    @staticmethod
    def _block_len(S) -> int:
        return S.shape[1]

    @staticmethod
    def _block_gram(S):
        return S.T @ S

    @staticmethod
    def _block_cross(S, T):
        return S.T @ T

    @staticmethod
    def _block_proj(S, vectors):
        return S.T @ np.column_stack(vectors)

    def sample_columns(self, idx: np.ndarray, ws: GatherWorkspace | None = None):
        """Local rows of the sampled columns ``A I_h`` (m_loc x k).

        Sparse shards gather out of the cached CSC view in
        O(k + extracted nnz) — the returned block is CSC, with its arrays
        living in a reusable workspace (valid until the next sampling
        call, which is how every solver consumes it). ``ws`` overrides
        the matrix's own workspace: the pipelined solvers gather the next
        outer step's block into a second workspace while the previous
        block is still in use.

        Charges the gather cost of pulling ``k`` columns out of the
        row-major local shard (an index scan over the local rows plus a
        copy of the extracted non-zeros) — a memory-bound operation that
        dominates the classical method's local work at scale and is the
        reason the paper's Fig. 4 shows *computation* speedups for the
        blocked SA Gram formation.
        """
        idx = np.asarray(idx, dtype=np.intp)
        if self._local_csc is not None:
            S = gather_columns(self._local_csc, idx, ws or self._gather_ws)
        else:
            S = self.local[:, idx]
        # row-scan term grows with local rows; copy term with extracted nnz
        self.comm.account_flops(2.0 * self.local.shape[0], "gather")
        self.comm.account_flops(6.0 * nnz_of(S), "scalar")
        return S

    # -- communication kernels ---------------------------------------------------
    def gram_and_project(
        self,
        sampled,
        vectors: Sequence[np.ndarray],
        symmetric: bool = True,
        tail: np.ndarray | None = None,
        tail_priced: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compute ``G = SᵀS`` and ``R = SᵀV`` with one packed Allreduce.

        Parameters
        ----------
        sampled:
            Local block ``S`` (m_loc x k), from :meth:`sample_columns`.
        vectors:
            Sequence of local (m_loc,) vectors forming ``V``'s columns.
        symmetric:
            Pack only G's lower triangle (paper footnote 3's 2x saving).
        tail:
            Optional float64 buffer of this rank's partials of a
            convergence record, riding the same message after the
            projections and charged as part of it (the SA Lasso solvers'
            ``[||r_local||^2]``); overwritten in place with their sums.
            Where the whole message would not fit the communicator's
            slot, the tail is summed on its own first, ledger-paused.
        tail_priced:
            False leaves the tail's words out of the message's charge:
            an SA solve's iteration-0 record, whose own sync the model
            never priced, rides the first reduction that way.

        Returns
        -------
        (G, R):
            Replicated k x k Gram matrix and k x c projections. Both live
            in reusable per-instance output buffers — valid until the
            next Gram collective through this matrix, which is how every
            solver consumes them (within one outer step).
        """
        S = sampled
        k, vectors = S.shape[1], [np.asarray(v) for v in vectors]
        c = len(vectors)
        self._charge_gram(nnz_of(S), k, c, symmetric)
        G, R = self._reduce_block(S, vectors, symmetric, tail, tail_priced)
        return G, (R if c else np.zeros((k, 0)))

    def gram_pipeline(
        self, extra_cols: int, symmetric: bool = True, depth: int = 2
    ) -> GramPipeline:
        """A ``depth``-buffered nonblocking pipeline over this matrix.

        The asynchronous counterpart of :meth:`gram_and_project`; see
        :class:`GramPipeline`. The default ``depth=2`` is the classic
        double buffer; the ring at depth ``tau`` passes ``tau + 2``.
        """
        return GramPipeline(self, extra_cols, symmetric, axis="cols", depth=depth)

    def matvec_local(self, x: np.ndarray) -> np.ndarray:
        """Local rows of ``A @ x`` for replicated ``x`` (no communication)."""
        y = self.local @ x
        self.comm.account_flops(2.0 * self.local_nnz, "spmv")
        return np.asarray(y).ravel()

    def apply_column_update(self, sampled, delta: np.ndarray, out: np.ndarray) -> None:
        """``out += S @ delta`` on the local row range (residual updates)."""
        upd = sampled @ delta
        out += np.asarray(upd).ravel()
        self.comm.account_flops(2.0 * nnz_of(sampled), "blas1")

    # -- reductions over the partitioned dimension ---------------------------------
    def dot_partitioned(self, u_local: np.ndarray, v_local: np.ndarray) -> float:
        """Global dot product of two row-partitioned vectors."""
        part = float(np.dot(u_local, v_local))
        self.comm.account_flops(2.0 * u_local.shape[0], "blas1")
        return float(self.comm.allreduce(part, timeout=self.comm.timeout))

    def norm2_partitioned(self, u_local: np.ndarray) -> float:
        """Global squared 2-norm of a row-partitioned vector."""
        return self.dot_partitioned(u_local, u_local)

    def gather_rows(self, u_local: np.ndarray) -> np.ndarray:
        """Reassemble a row-partitioned vector on every rank (diagnostics)."""
        return self.comm.Allgather(np.asarray(u_local, dtype=np.float64),
                                   timeout=self.comm.timeout)


class ColPartitionedMatrix(_PartitionedBase):
    """``A`` (m x n) with columns partitioned across ranks (SVM layout).

    Vectors in R^n (primal ``x``) are partitioned like the columns;
    vectors in R^m (dual ``alpha``, labels ``b``) are replicated
    (paper §V: "unlike Lasso, SVM requires 1D-column partitioning").
    """

    @classmethod
    def from_global(
        cls,
        A,
        comm: Comm,
        partition: Partition1D | None = None,
    ) -> "ColPartitionedMatrix":
        A = check_dense_or_csr(A)
        m, n = A.shape
        if partition is None:
            partition = balanced_nnz_partition(A, comm.size, axis=1)
        if partition.n != n or partition.size != comm.size:
            raise PartitionError(
                f"partition ({partition.size} ranks over {partition.n} cols) does not"
                f" match matrix ({n} cols) / communicator ({comm.size} ranks)"
            )
        lo, hi = partition.range_of(comm.rank)
        # a canonical CSR's column slice keeps its rows' sorted order
        return cls(comm, partition, A[:, lo:hi], (m, n))

    def append_rows(self, B) -> None:
        """Extend the matrix in place with the global batch ``B`` (k x n).

        SPMD-collective like :meth:`from_global`: every rank calls with
        the same batch and keeps the rows of its own *column* range,
        appended below its local shard. Unlike the row-partitioned
        layout, the column partition is untouched and the global row
        order stays exactly arrival order — new data points land at
        indices ``[m, m + k)``, which is what lets SVM streaming zero-pad
        the replicated dual vector.

        Nothing needs invalidating beyond the nnz bookkeeping: the CSR
        shard *is* the row-sampling view, and the gather/packed/Gram
        buffers are sized by (s, 1), not by the row count.
        """
        B = check_dense_or_csr(B)
        k, n = B.shape
        if n != self.shape[1]:
            raise PartitionError(
                f"appended rows must have {self.shape[1]} columns, got {n}"
            )
        if k == 0:
            return  # empty batch: a defined no-op
        lo, hi = self.partition.range_of(self.comm.rank)
        self._stack_local(B[:, lo:hi])
        self.shape = (self.shape[0] + k, self.shape[1])

    def remove_rows(self, idx) -> int:
        """Drop the global rows ``idx`` in place (local shard compaction).

        SPMD-collective like :meth:`append_rows`: rows are replicated
        across the column shards, so every rank calls with the same
        global row indices (exact arrival order in this layout) and
        drops those rows from its own shard — the column partition is
        untouched and the surviving rows keep their order, which is what
        lets SVM streaming drop the evicted rows' dual coordinates by
        position. Duplicate indices are merged (set semantics); an empty
        ``idx`` is a defined no-op.

        Nothing needs invalidating beyond the nnz bookkeeping (the CSR
        shard *is* the row-sampling view); the compaction cost — index
        scan plus survivor copy — is charged to the ledger. Returns the
        number of rows removed.
        """
        idx = self._validate_remove_idx(idx)
        if idx.size == 0:
            return 0
        m = self.shape[0]
        keep = np.setdiff1d(np.arange(m), idx, assume_unique=True)
        self.local = self.local[keep]
        self.local_nnz = nnz_of(self.local)
        self.comm.account_flops(2.0 * m, "gather")
        self.comm.account_flops(6.0 * self.local_nnz, "scalar")
        self.shape = (m - idx.size, self.shape[1])
        return int(idx.size)

    @staticmethod
    def _block_len(Y) -> int:
        return Y.shape[0]

    @staticmethod
    def _block_gram(Y):
        return Y @ Y.T

    @staticmethod
    def _block_cross(Y, Z):
        return Y @ Z.T

    @staticmethod
    def _block_proj(Y, vectors):
        (x_local,) = vectors
        return Y @ x_local

    def sample_rows(self, idx: np.ndarray, ws: GatherWorkspace | None = None):
        """Local columns of the sampled rows (k x n_loc).

        The shard is kept in CSR (compressed along the sampled axis), so
        sampling is a slice-gather in O(k + extracted nnz) with reusable
        output buffers (``ws`` selects an alternate workspace for the
        pipelined solvers). Row extraction is cheaper than the Lasso
        layout's column gather, but still charged (index lookup plus
        non-zero copy).
        """
        idx = np.asarray(idx, dtype=np.intp)
        if sp.issparse(self.local):
            Y = gather_rows(self.local, idx, ws or self._gather_ws)
        else:
            Y = self.local[idx, :]
        self.comm.account_flops(2.0 * idx.shape[0], "gather")
        self.comm.account_flops(6.0 * nnz_of(Y), "scalar")
        return Y

    def gram_rows_and_project(
        self,
        sampled,
        x_local: np.ndarray,
        symmetric: bool = True,
        tail: np.ndarray | None = None,
        tail_priced: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``G = Y Yᵀ`` (k x k over the feature dimension) and ``Y x``.

        One packed Allreduce, matching Alg. 4 lines 9-10 (the caller adds
        ``gamma I`` *after* the reduction, once). ``tail`` and
        ``tail_priced`` are as in
        :meth:`RowPartitionedMatrix.gram_and_project` (SA-SVM's duality-gap
        record, ``[A_p x_p, ||x_p||^2]``). The outputs live in
        reusable per-instance buffers, valid until the next Gram
        collective through this matrix.
        """
        Y = sampled
        self._charge_gram(nnz_of(Y), Y.shape[0], 1, symmetric)
        G, R = self._reduce_block(Y, [x_local], symmetric, tail, tail_priced)
        return G, R[:, 0]

    def gram_rows_pipeline(
        self, symmetric: bool = True, depth: int = 2
    ) -> GramPipeline:
        """A ``depth``-buffered nonblocking pipeline over this matrix.

        The asynchronous counterpart of :meth:`gram_rows_and_project`;
        see :class:`GramPipeline`. As in the blocking path the caller
        adds ``gamma I`` after the reduction and reads ``R[:, 0]``. The
        default ``depth=2`` is the classic double buffer; the ring at
        depth ``tau`` passes ``tau + 2``.
        """
        return GramPipeline(self, 1, symmetric, axis="rows", depth=depth)

    def apply_row_update(self, sampled, coeffs: np.ndarray, x_local: np.ndarray) -> None:
        """``x_local += sampledᵀ @ coeffs`` (primal update, local only)."""
        upd = sampled.T @ coeffs
        x_local += np.asarray(upd).ravel()
        self.comm.account_flops(2.0 * nnz_of(sampled), "blas1")

    def dot_with_x(self, row_sampled, x_local: np.ndarray) -> np.ndarray:
        """Global ``Y @ x`` via partial products + Allreduce (non-SA path)."""
        part = np.asarray(row_sampled @ x_local).ravel()
        self.comm.account_flops(2.0 * nnz_of(row_sampled), "blas1")
        return self.comm.Allreduce(part, timeout=self.comm.timeout)

    def matvec_full(self, x_local: np.ndarray, total=None) -> np.ndarray:
        """Global ``A @ x`` (m-vector, replicated). Diagnostic helper.

        ``total`` is ``A x`` already summed across ranks (an SA-SVM
        record's partials, which rode a reduction or
        :meth:`sum_and_gather`): it is returned as is, with no
        communication and no charge.
        """
        if total is not None:
            return total
        part = np.asarray(self.local @ x_local).ravel()
        self.comm.account_flops(2.0 * self.local_nnz, "spmv")
        return self.comm.Allreduce(part, timeout=self.comm.timeout)

    def norm2_cols(self, x_local: np.ndarray, total=None) -> float:
        """Global squared norm of a column-partitioned vector; ``total``
        is that norm already summed across ranks, read as in
        :meth:`matvec_full`."""
        if total is not None:
            return float(total)
        part = float(np.dot(x_local, x_local))
        self.comm.account_flops(2.0 * x_local.shape[0], "blas1")
        return float(self.comm.allreduce(part, timeout=self.comm.timeout))

    def gather_cols(self, x_local: np.ndarray) -> np.ndarray:
        """Reassemble a column-partitioned vector on every rank."""
        return self.comm.Allgather(np.asarray(x_local, dtype=np.float64),
                                   timeout=self.comm.timeout)

    def sum_and_gather(self, partials: np.ndarray, x_local: np.ndarray) -> tuple:
        """``(partials summed across ranks, x gathered)`` in one Allgather.

        Each rank sends its ``partials`` followed by its shard of the
        column-partitioned ``x``; every rank then folds the partials in
        rank order, which is the Allreduce fold bit for bit, and
        concatenates the shards. Where the largest shard's payload would
        not fit the communicator's slot, the two go in an Allreduce and
        an Allgather; every rank decides on that shared largest shard,
        never on its own, so all of them make the same collectives.
        Charged like any collective: SA-SVM's records call it
        ledger-paused.
        """
        t = partials.shape[0]
        if not self.comm.payload_fits(t + int(self.partition.counts().max())):
            return (self.comm.Allreduce(partials, timeout=self.comm.timeout),
                    self.gather_cols(x_local))
        flat = self.comm.Allgather(np.concatenate([partials, x_local]),
                                   timeout=self.comm.timeout)
        starts = np.concatenate([[0], np.cumsum(self.partition.counts() + t)])
        total = SUM.fold([flat[a:a + t] for a in starts[:-1]])
        x = np.concatenate([flat[a + t:z] for a, z in zip(starts[:-1], starts[1:])])
        return total, x
