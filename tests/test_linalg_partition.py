"""Tests for 1-D partitions, including hypothesis invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.linalg.partition import (
    Partition1D,
    balanced_nnz_partition,
    block_partition,
)


class TestBlockPartition:
    def test_even_split(self):
        p = block_partition(12, 3)
        assert p.offsets == (0, 4, 8, 12)

    def test_remainder_goes_first(self):
        p = block_partition(10, 3)
        assert tuple(p.counts()) == (4, 3, 3)

    def test_more_ranks_than_items(self):
        p = block_partition(2, 5)
        assert p.n == 2 and p.size == 5
        assert sum(p.counts()) == 2

    def test_zero_items(self):
        p = block_partition(0, 3)
        assert all(c == 0 for c in p.counts())

    def test_invalid(self):
        with pytest.raises(PartitionError):
            block_partition(-1, 2)
        with pytest.raises(PartitionError):
            block_partition(5, 0)


class TestQueries:
    def test_owner_of(self):
        p = block_partition(10, 3)
        assert p.owner_of(0) == 0 and p.owner_of(3) == 0
        assert p.owner_of(4) == 1 and p.owner_of(9) == 2

    def test_owner_out_of_range(self):
        p = block_partition(10, 3)
        with pytest.raises(PartitionError):
            p.owner_of(10)

    def test_to_local(self):
        p = block_partition(10, 3)
        assert p.to_local(1, 4) == 0
        with pytest.raises(PartitionError):
            p.to_local(0, 4)

    def test_local_slice(self):
        p = block_partition(10, 2)
        assert p.local_slice(1) == slice(5, 10)

    def test_bad_rank(self):
        with pytest.raises(PartitionError):
            block_partition(4, 2).range_of(2)

    def test_invalid_offsets(self):
        with pytest.raises(PartitionError):
            Partition1D((1, 3))
        with pytest.raises(PartitionError):
            Partition1D((0, 5, 3))
        with pytest.raises(PartitionError):
            Partition1D((0,))


class TestBalancedNnz:
    def test_dense_falls_back_to_block(self):
        A = np.ones((10, 4))
        p = balanced_nnz_partition(A, 2, axis=0)
        assert p.offsets == block_partition(10, 2).offsets

    def test_balances_skewed_rows(self):
        # first row holds almost all non-zeros
        rows = [0] * 90 + list(range(1, 11))
        cols = list(range(90)) + [0] * 10
        A = sp.coo_matrix((np.ones(100), (rows, cols)), shape=(11, 90)).tocsr()
        p = balanced_nnz_partition(A, 2, axis=0)
        counts = np.diff(A.indptr)
        nnz0 = counts[p.local_slice(0)].sum()
        nnz1 = counts[p.local_slice(1)].sum()
        # naive row split would be 95/5; balanced should be ~90/10
        assert nnz0 <= 92

    def test_column_axis(self):
        A = sp.random(20, 30, density=0.3, random_state=0, format="csr")
        p = balanced_nnz_partition(A, 4, axis=1)
        assert p.n == 30 and p.size == 4

    def test_empty_matrix(self):
        A = sp.csr_matrix((5, 5))
        p = balanced_nnz_partition(A, 2, axis=0)
        assert p.n == 5 and p.size == 2

    def test_invalid_axis(self):
        with pytest.raises(PartitionError):
            balanced_nnz_partition(sp.eye(3, format="csr"), 2, axis=2)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 300), size=st.integers(1, 17))
def test_block_partition_covers_everything(n, size):
    p = block_partition(n, size)
    assert p.n == n and p.size == size
    assert sum(p.counts()) == n
    # contiguity + monotonicity
    for r in range(size):
        lo, hi = p.range_of(r)
        assert 0 <= lo <= hi <= n
    # near-even: counts differ by at most 1
    counts = p.counts()
    assert counts.max() - counts.min() <= 1 if n else True


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 200),
    size=st.integers(1, 9),
    density=st.floats(0.01, 0.9),
    seed=st.integers(0, 5),
)
def test_balanced_partition_is_valid_partition(n, size, density, seed):
    A = sp.random(n, 13, density=density, random_state=seed, format="csr")
    p = balanced_nnz_partition(A, size, axis=0)
    assert p.n == n and p.size == size
    assert sum(p.counts()) == n
    for i in range(n):
        r = p.owner_of(i)
        lo, hi = p.range_of(r)
        assert lo <= i < hi


def _loop_partition(A, size: int, axis: int = 0) -> Partition1D:
    """The per-item loop :func:`balanced_nnz_partition` replaced, kept as
    its oracle: walk every row (axis 0) or column (axis 1) with a running
    float sum, cut when it reaches the next quota (quotas grow by
    repeated addition of ``nnz/size``) or when the items left would
    starve the ranks left."""
    n = A.shape[axis]
    if not sp.issparse(A):
        return block_partition(n, size)
    counts = np.diff(A.tocsr().indptr if axis == 0 else A.tocsc().indptr)
    total = float(counts.sum())
    if total == 0:
        return block_partition(n, size)
    target = total / size
    offsets = [0]
    running = 0.0
    quota = target
    for i, c in enumerate(counts):
        running += float(c)
        remaining_cuts = size - len(offsets)
        remaining_items = n - (i + 1)
        if len(offsets) < size and (running >= quota
                                    or remaining_items <= remaining_cuts):
            offsets.append(i + 1)
            quota += target
    while len(offsets) < size:
        offsets.append(n)
    offsets.append(n)
    return Partition1D(tuple(offsets))


def _as_format(dense: np.ndarray, fmt: str):
    if fmt == "dense":
        return dense
    return sp.csr_matrix(dense) if fmt == "csr" else sp.csc_matrix(dense)


class TestBalancedNnzMatchesLoop:
    """The cumulative-sum cut gives today's loop's offsets exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(0, 40),
        n=st.integers(0, 40),
        size=st.integers(1, 9),
        density=st.sampled_from([0.0, 0.03, 0.2, 0.6, 1.0]),
        heavy=st.booleans(),
        fmt=st.sampled_from(["csr", "csc", "dense"]),
        axis=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**16),
    )
    def test_random(self, m, n, size, density, heavy, fmt, axis, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < density
        if heavy and m and n:
            mask[rng.integers(m), :] = True
            mask[:, rng.integers(n)] = True
        A = _as_format(np.where(mask, 1.0 + rng.random((m, n)), 0.0), fmt)
        assert (balanced_nnz_partition(A, size, axis=axis).offsets
                == _loop_partition(A, size, axis=axis).offsets)

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_larger_random(self, fmt, axis):
        # quotas that are not whole numbers, cuts far from the edges
        A = sp.random(700, 300, density=0.02, random_state=1, format=fmt)
        for size in range(1, 10):
            assert (balanced_nnz_partition(A, size, axis=axis).offsets
                    == _loop_partition(A, size, axis=axis).offsets)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_quotas_add_up(self, axis):
        # 21 items over 9 ranks: the sixth quota is 14.000000000000002
        # by repeated addition of 21/9, but 14.0 as 6 * (21/9), so the
        # sixth cut falls one item later than a multiplied quota puts it
        A = sp.eye(21, format="csr")
        got = balanced_nnz_partition(A, 9, axis=axis).offsets
        assert got == _loop_partition(A, 9, axis=axis).offsets
        assert got[6] == 15

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("size", range(1, 10))
    def test_all_zero(self, size, axis):
        A = sp.csr_matrix((5, 7))
        assert (balanced_nnz_partition(A, size, axis=axis).offsets
                == _loop_partition(A, size, axis=axis).offsets)

    @pytest.mark.parametrize("where", [0, 3, 6])
    @pytest.mark.parametrize("size", range(1, 10))
    def test_single_heavy_row(self, size, where):
        dense = np.zeros((7, 50))
        dense[where] = 1.0
        dense[(where + 1) % 7, 0] = 1.0
        for fmt in ("csr", "csc"):
            A = _as_format(dense, fmt)
            for axis in (0, 1):
                assert (balanced_nnz_partition(A, size, axis=axis).offsets
                        == _loop_partition(A, size, axis=axis).offsets)

    def test_columns_of_csr_are_counted_without_a_csc_copy(self, monkeypatch):
        A = sp.random(60, 40, density=0.1, random_state=2, format="csr")
        want = _loop_partition(A, 4, axis=1)

        def no_copy(*args, **kwargs):
            raise AssertionError("counted columns through tocsc()")

        monkeypatch.setattr(sp.csr_matrix, "tocsc", no_copy)
        assert balanced_nnz_partition(A, 4, axis=1).offsets == want.offsets
