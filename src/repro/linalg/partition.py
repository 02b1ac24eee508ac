"""1-D contiguous data partitions.

The paper partitions the data matrix 1-D row-wise for Lasso (lowest
per-iteration communication, §IV-B) and 1-D column-wise for SVM (§V).
Both are contiguous range partitions; :func:`balanced_nnz_partition`
additionally balances stored non-zeros across ranks, the load-balancing
concern §VI raises for rcv1/news20.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import PartitionError

__all__ = ["Partition1D", "block_partition", "balanced_nnz_partition"]


@dataclass(frozen=True)
class Partition1D:
    """A contiguous partition of ``[0, n)`` into ``size`` ranges.

    ``offsets`` has length ``size + 1`` with ``offsets[0] == 0`` and
    ``offsets[-1] == n``; rank ``r`` owns ``[offsets[r], offsets[r+1])``.
    Empty ranges are allowed (more ranks than items).
    """

    offsets: tuple

    def __post_init__(self) -> None:
        off = self.offsets
        if len(off) < 2:
            raise PartitionError("offsets must have at least two entries")
        if off[0] != 0:
            raise PartitionError(f"offsets must start at 0, got {off[0]}")
        for a, b in zip(off, off[1:], strict=False):
            if b < a:
                raise PartitionError(f"offsets must be non-decreasing: {off}")

    # -- basic queries ------------------------------------------------------
    @property
    def n(self) -> int:
        """Total number of items partitioned."""
        return self.offsets[-1]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.offsets) - 1

    def range_of(self, rank: int) -> tuple[int, int]:
        """Half-open global index range owned by ``rank``."""
        self._check_rank(rank)
        return self.offsets[rank], self.offsets[rank + 1]

    def count_of(self, rank: int) -> int:
        lo, hi = self.range_of(rank)
        return hi - lo

    def counts(self) -> np.ndarray:
        return np.diff(np.asarray(self.offsets))

    def local_slice(self, rank: int) -> slice:
        lo, hi = self.range_of(rank)
        return slice(lo, hi)

    def owner_of(self, index: int) -> int:
        """Rank owning global ``index``."""
        if not (0 <= index < self.n):
            raise PartitionError(f"index {index} out of range [0, {self.n})")
        # offsets is sorted; rightmost offset <= index
        return bisect_right(self.offsets, index) - 1

    def to_local(self, rank: int, index: int) -> int:
        """Translate a global index owned by ``rank`` to a local index."""
        lo, hi = self.range_of(rank)
        if not (lo <= index < hi):
            raise PartitionError(
                f"global index {index} not owned by rank {rank} (range [{lo},{hi}))"
            )
        return index - lo

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            # repro: lint-ignore[collective-in-rank-branch] -- rank arg validation; no comm
            raise PartitionError(f"rank {rank} out of range for size {self.size}")


def block_partition(n: int, size: int) -> Partition1D:
    """Evenly sized contiguous partition (first ``n % size`` ranks get +1)."""
    if n < 0:
        raise PartitionError(f"n must be non-negative, got {n}")
    if size < 1:
        raise PartitionError(f"size must be >= 1, got {size}")
    base, extra = divmod(n, size)
    offsets = [0]
    for r in range(size):
        offsets.append(offsets[-1] + base + (1 if r < extra else 0))
    return Partition1D(tuple(offsets))


def balanced_nnz_partition(A, size: int, axis: int = 0) -> Partition1D:
    """Contiguous partition of rows (axis=0) or columns (axis=1) of ``A``
    that approximately balances stored non-zeros per rank.

    Uses the greedy prefix rule: cut after the first item whose running
    nnz reaches the next quota, where the quotas are ``nnz/size`` added
    up once per cut, but no later than the item that leaves one item for
    each rank still to come (so a trailing rank is not starved). Ranks
    past the last item get empty ranges. Dense matrices reduce to
    :func:`block_partition`.
    """
    if axis not in (0, 1):
        raise PartitionError(f"axis must be 0 or 1, got {axis}")
    n = A.shape[axis]
    if not sp.issparse(A):
        return block_partition(n, size)
    if size < 1:
        raise PartitionError(f"size must be >= 1, got {size}")
    # stored entries per item: the compressed axis's pointer differences,
    # or a count of the other axis's indices (no layout conversion)
    if A.format not in ("csr", "csc"):
        A = A.tocsr()
    if (A.format == "csr") == (axis == 0):
        counts = np.diff(A.indptr)
    else:
        counts = np.bincount(A.indices, minlength=n)
    total = float(counts.sum())
    if total == 0:
        return block_partition(n, size)
    # exact in float64 (integer sums below 2**53), like a running sum
    running = np.cumsum(counts, dtype=np.float64)
    target = total / size
    quota = target
    offsets = [0]
    for k in range(1, size):
        # cut k falls after item i: the first item past cut k - 1 whose
        # running nnz reaches the quota, or the one that leaves one item
        # for each of the size - k ranks after the cut, if that is sooner
        i = max(offsets[-1],
                min(int(np.searchsorted(running, quota)), n - 1 - size + k))
        if i >= n:
            break
        offsets.append(i + 1)
        quota += target
    offsets += [n] * (size + 1 - len(offsets))
    return Partition1D(tuple(offsets))
