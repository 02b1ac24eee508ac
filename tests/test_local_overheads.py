"""A solve's local work without its fixed overheads, pinned bit for bit.

Four mechanisms, each against what it replaces:

* the slice Gram kernel (:func:`repro.linalg.kernels.slice_gram` and
  :func:`~repro.linalg.kernels.slice_project`) against packing scipy's
  ``SᵀS`` / ``SᵀV`` (``YYᵀ`` / ``Yx`` for sampled rows), and its
  selection rule;
* ``unpack_gram``'s one-take mirror against the two-assignment mirror;
* the batched samplers against one draw at a time, generator state
  included;
* the row-shard memo behind :meth:`RowPartitionedMatrix.from_global`:
  hits, rebuilds after in-place edits, misses, lifetime and thread ranks.

Plus the column-range slice of :meth:`ColPartitionedMatrix.from_global`
against the CSC round trip it replaces.
"""

from __future__ import annotations

import gc
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import dense_of as _dense
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_classification, make_sparse_regression, registry
from repro.errors import CommError, SolverError
from repro.linalg import kernels
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.linalg.kernels import (
    gather_columns,
    gather_rows,
    slice_gram,
    slice_kernel_fits,
    slice_project,
    tri_plan,
)
from repro.linalg.packing import pack_gram, pack_gram_head, packed_length, unpack_gram
from repro.linalg.partition import Partition1D
from repro.mpi.process_backend import process_spmd_run
from repro.mpi.thread_backend import spmd_run
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers import lasso
from repro.solvers.sampling import BlockSampler, GroupBlockSampler, RowSampler
from repro.solvers.svm import sa_dcd


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# slice Gram kernel
# ---------------------------------------------------------------------------


@st.composite
def blocks(draw):
    """A sampled block as the solvers gather it, from a random shard.

    Covers empty slices and all-empty blocks (density 0), duplicate
    sampled slices (more draws than the shard has), one index on the
    other axis, int64 indices, tiny data, and both layouts.
    """
    other = draw(st.integers(1, 40))
    width = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    rows = draw(st.booleans())  # True: sampled rows (SVM), else columns
    shape = (width, other) if rows else (other, width)
    shard = sp.random(*shape, density=density, format="csr", random_state=rng)
    shard.data = rng.standard_normal(shard.nnz) * draw(st.sampled_from([1.0, 1e-150]))
    shard = shard if rows else shard.tocsc()
    k = draw(st.integers(1, 2 * width))
    idx = rng.integers(0, width, size=k)
    Y = gather_rows(shard, idx) if rows else gather_columns(shard, idx)
    if draw(st.booleans()):
        Y.indices, Y.indptr = Y.indices.astype(np.int64), Y.indptr.astype(np.int64)
    return Y


def _scipy_gram(Y) -> np.ndarray:
    return _dense(Y @ Y.T if Y.format == "csr" else Y.T @ Y)


@settings(max_examples=150, deadline=None)
@given(Y=blocks(), symmetric=st.booleans(), c=st.integers(1, 3))
def test_slice_kernel_equals_scipy_bitwise(Y, symmetric, c):
    k = Y.indptr.shape[0] - 1
    other = Y.shape[1] if Y.format == "csr" else Y.shape[0]
    want = np.empty(packed_length(k, 0, symmetric))
    pack_gram_head(_scipy_gram(Y), symmetric, want)
    got = np.full(want.shape[0] + 2, np.nan)
    assert slice_gram(Y, symmetric, got) == want.shape[0]
    assert _bits(got[:want.shape[0]]) == _bits(want)
    assert np.isnan(got[want.shape[0]:]).all()  # nothing written past the head

    rng = np.random.default_rng(k)
    if Y.format == "csr":  # sampled rows times the local primal x
        vectors = [rng.standard_normal(other)]
        want_r = np.asarray(Y @ vectors[0]).ravel()
    else:
        vectors = [rng.standard_normal(other) for _ in range(c)]
        want_r = _dense(Y.T @ np.column_stack(vectors)).ravel()
    got_r = np.empty(want_r.shape[0])
    slice_project(Y, vectors, got_r)
    assert _bits(got_r) == _bits(want_r)


def test_slice_kernel_fits_by_fill():
    """The kernel serves sorted sparse blocks up to SLICE_KERNEL_MAX_FILL
    non-zeros per index of the other axis; dense and unsorted blocks
    and fuller ones keep scipy."""
    fill = kernels.SLICE_KERNEL_MAX_FILL
    rng = np.random.default_rng(0)
    tall = sp.random(400, 8, density=0.5 * fill / 8, format="csc", random_state=rng)
    full = sp.random(40, 8, density=min(1.0, 2.0 * fill / 8), format="csc", random_state=rng)
    assert tall.nnz <= fill * 400 and slice_kernel_fits(tall)
    assert full.nnz > fill * 40 and not slice_kernel_fits(full)
    # rows: the other axis is the features
    assert slice_kernel_fits(tall.T.tocsr())
    assert not slice_kernel_fits(full.T.tocsr())
    assert not slice_kernel_fits(tall.toarray())
    unsorted = tall.copy()
    unsorted.has_sorted_indices = False
    assert not slice_kernel_fits(unsorted)
    assert not slice_kernel_fits(tall.tocoo())


def _problem(task):
    if task == "lasso":
        A, b, _ = make_sparse_regression(300, 90, density=0.04, seed=2)
    else:
        A, b = make_classification(120, 300, density=0.04, seed=2)
    return sp.csr_matrix(A), b


def _solve(task, A, b, comm, **kw):
    if task == "lasso":
        res = lasso.sa_acc_bcd(A, b, 0.1, mu=2, s=4, max_iter=64, seed=1, comm=comm,
                               record_every=4, **kw)
    else:
        res = sa_dcd(A, b, lam=1.0, s=6, max_iter=96, seed=1, comm=comm,
                     record_every=6, **kw)
    h = res.history
    return (_bits(res.x), res.iterations, res.cost.to_dict(),
            _bits(np.r_[h.metric, h.seconds, h.flops]))


@pytest.mark.parametrize("task", ["lasso", "svm"])
@pytest.mark.parametrize("schedule", [{}, {"pipeline": True}, {"async_": True, "tau": 1}])
@pytest.mark.parametrize("symmetric", [True, False])
def test_solves_match_the_scipy_path(monkeypatch, task, schedule, symmetric):
    """Whole solves on either side of the fill rule end bit-identical:
    iterate, iterations, modelled ledger and history."""
    A, b = _problem(task)
    knob = {"symmetric_pack": symmetric}
    kernel = _solve(task, A, b, VirtualComm(4), **schedule, **knob)
    monkeypatch.setattr(kernels, "SLICE_KERNEL_MAX_FILL", -1.0)
    scipy_path = _solve(task, A, b, VirtualComm(4), **schedule, **knob)
    assert kernel == scipy_path


@pytest.mark.parametrize("task", ["lasso", "svm"])
@pytest.mark.parametrize("schedule", [{}, {"pipeline": True}])
def test_gram_overflow_still_raises(task, schedule):
    A, b = _problem(task)
    A = A * 1e200
    block = gather_columns(A.tocsc(), np.arange(8)) if task == "lasso" \
        else gather_rows(A, np.arange(6))
    assert slice_kernel_fits(block)
    with pytest.raises(SolverError, match="Gram block overflowed"):
        _solve(task, A, b, VirtualComm(2), **schedule)


# ---------------------------------------------------------------------------
# unpack
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 5, 128])
def test_unpack_equals_two_assignment_mirror(k):
    rng = np.random.default_rng(k)
    buf = pack_gram(rng.standard_normal((k, k)), rng.standard_normal((k, 2)), True)
    want = np.empty((k, k))
    il, jl, _ = tri_plan(k)
    want[il, jl] = buf[:il.shape[0]]
    want[jl, il] = buf[:il.shape[0]]
    out = np.full((k, k), np.nan)
    G, E = unpack_gram(buf, k, 2, True, out_g=out)
    assert G is out and _bits(G) == _bits(want)
    assert _bits(E) == _bits(buf[il.shape[0]:])
    assert _bits(unpack_gram(buf, k, 2, True)[0]) == _bits(want)


def test_unpack_rejects_a_strided_out_g():
    buf = pack_gram(np.eye(4), None, True)
    with pytest.raises(CommError, match="C-contiguous"):
        unpack_gram(buf, 4, 0, True, out_g=np.empty((4, 8))[:, ::2])
    with pytest.raises(CommError, match="C-contiguous"):
        unpack_gram(buf, 4, 0, True, out_g=np.empty((4, 4)).T[:, :])
    unpack_gram(buf, 4, 0, True, out_g=np.empty((4, 4)))


# ---------------------------------------------------------------------------
# batched samplers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, mu", [
    (8826, 8), (62061, 8), (500, 8), (20, 8), (60, 1), (100, 2), (3, 3),
    (10000, 200), (10000, 10000),              # n <= 10000: Floyd at any mu
    (10001, 200), (10001, 201), (30000, 600),  # mu = n // 50 and one past it
    (30000, 601), (20001, 20001),              # numpy's tail shuffle
])
@pytest.mark.parametrize("seed", [0, 7])
def test_next_blocks_equals_next_block(n, mu, seed):
    one, batched = BlockSampler(n, mu, seed), BlockSampler(n, mu, seed)
    for k in (1, 16, 3):
        want = [one.next_block() for _ in range(k)]
        got = batched.next_blocks(k)
        assert len(got) == k
        for w, g in zip(want, got):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    assert one.rng.bit_generator.state == batched.rng.bit_generator.state


def test_group_next_blocks_equals_next_block():
    gid = np.repeat(np.arange(7), [1, 3, 2, 2, 4, 1, 2])
    one, batched = GroupBlockSampler(gid, 2, 3), GroupBlockSampler(gid, 2, 3)
    want = [one.next_block() for _ in range(5)]
    got = batched.next_blocks(5)
    assert all(np.array_equal(w, g) for w, g in zip(want, got, strict=True))
    assert one.rng.bit_generator.state == batched.rng.bit_generator.state


@pytest.mark.parametrize("m", [1, 2, 7, 2000, 2**31 - 1, 2**32, 2**32 + 5, 10**12])
@pytest.mark.parametrize("seed", [0, 4])
def test_next_indices_equals_next_index(m, seed):
    one, batched = RowSampler(m, seed), RowSampler(m, seed)
    want = np.array([one.next_index() for _ in range(9)], dtype=np.intp)
    got = batched.next_indices(9)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert one.rng.bit_generator.state == batched.rng.bit_generator.state


# ---------------------------------------------------------------------------
# row-shard memo
# ---------------------------------------------------------------------------


def _lasso_fit(A, b, comm):
    res = lasso.sa_acc_bcd(A, b, 0.1, mu=4, s=4, max_iter=64, seed=0, comm=comm,
                           record_every=8)
    return _bits(res.x), res.cost.to_dict(), _bits(res.history.metric)


@pytest.fixture
def regression():
    A, b, _ = make_sparse_regression(200, 60, density=0.05, seed=4)
    return sp.csr_matrix(A), b


class TestShardMemo:
    def test_second_solve_hits_and_matches(self, regression):
        A, b = regression
        first = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        first.sample_columns(np.arange(3))
        again = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        assert again.local is first.local
        assert again._local_csc is first._local_csc  # the view is shared
        assert _lasso_fit(A, b, VirtualComm(1)) == _lasso_fit(A, b, VirtualComm(1))
        assert _lasso_fit(A, b, VirtualComm(1)) == _lasso_fit(A.copy(), b, VirtualComm(1))

    def test_view_is_built_lazily(self, regression):
        A, _ = regression
        dist = RowPartitionedMatrix.from_global(A.copy(), VirtualComm(1))
        assert dist._shard.csc is None
        dist.sample_columns(np.arange(2))
        assert dist._shard.csc is dist._csc_cache is not None

    def test_in_place_edit_rebuilds(self, regression):
        A, b = regression
        before = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        _lasso_fit(A, b, VirtualComm(1))
        A.data *= 2
        after = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        assert after.local is not before.local
        assert _bits(after.local.data) == _bits(A.data)
        assert _lasso_fit(A, b, VirtualComm(1)) == _lasso_fit(A.copy(), b, VirtualComm(1))
        shard = RowPartitionedMatrix.from_global(A, VirtualComm(1))._shard
        assert shard.matches(A, after.partition.offsets)
        A.indices[0] = (A.indices[0] + 1) % A.shape[1]  # a structural edit shows too
        assert not shard.matches(A, after.partition.offsets)

    def test_validation_still_runs_on_a_hit(self, regression):
        A, _ = regression
        RowPartitionedMatrix.from_global(A, VirtualComm(1))
        A.data[0] = np.inf
        with pytest.raises(SolverError, match="non-finite"):
            RowPartitionedMatrix.from_global(A, VirtualComm(1))

    def test_other_rank_or_partition_misses(self, regression):
        A, _ = regression
        moved = Partition1D((0, 10, A.shape[0]))

        def job(comm, rank):
            mine = RowPartitionedMatrix.from_global(A, comm)
            comm.barrier()
            other = RowPartitionedMatrix.from_global(A, comm, partition=moved)
            back = RowPartitionedMatrix.from_global(A, comm)
            lo, hi = moved.range_of(rank)
            return (mine.local, other.local, back.local,
                    _bits(other.local.data) == _bits(A[lo:hi].data))

        (a0, b0, c0, ok0), (a1, b1, c1, ok1) = spmd_run(job, 2).values
        assert a0 is not a1  # another rank
        assert b0 is not a0 and b1 is not a1 and ok0 and ok1  # another partition
        assert c0 is not b0 and c1 is not b1  # and back: one shard per rank
        assert _bits(c0.data) == _bits(a0.data) and _bits(c1.data) == _bits(a1.data)

    def test_entry_dies_with_the_matrix(self, regression):
        A, _ = regression
        A = A.copy()
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        dist.sample_columns(np.arange(2))
        shard, view = weakref.ref(dist.local), weakref.ref(dist._csc_cache)
        del dist
        gc.collect()
        assert shard() is not None and view() is not None  # the memo holds them
        del A
        gc.collect()
        assert shard() is None and view() is None

    def test_one_matrix_at_a_time(self, regression):
        A, _ = regression
        B = A.copy()
        a = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        RowPartitionedMatrix.from_global(B, VirtualComm(1))
        assert RowPartitionedMatrix.from_global(A, VirtualComm(1)).local is not a.local

    def test_append_and_evict_detach(self, regression):
        A, _ = regression
        dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        dist.sample_columns(np.arange(2))
        shard = dist._shard
        view = shard.csc
        dist.append_rows(A[:5])
        assert dist._shard is None and dist._csc_cache is None
        dist.sample_columns(np.arange(2))
        assert shard.csc is view and dist._csc_cache is not view
        again = RowPartitionedMatrix.from_global(A, VirtualComm(1))
        assert again.local is shard.local and again._local_csc is view
        again.remove_rows([0])
        assert again._shard is None and shard.csc is view

    def test_dense_matrices_bypass_the_memo(self, regression):
        A, _ = regression
        dist = RowPartitionedMatrix.from_global(A.toarray(), VirtualComm(1))
        assert dist._shard is None

    def test_two_thread_ranks(self, regression):
        A, b = regression

        def job(comm, rank):
            def fit(mat):
                comm.reset()
                return _lasso_fit(mat, b, comm)

            first = RowPartitionedMatrix.from_global(A, comm)
            fits = [fit(A) for _ in range(2)]
            hit = RowPartitionedMatrix.from_global(A, comm).local is first.local
            comm.barrier()  # before either rank moves the memo to a copy
            return hit, fits, fit(A.copy())

        values = spmd_run(job, 2).values
        for hit, (one, two), fresh in values:
            assert hit and one == two == fresh

    def test_thread_stress(self, regression):
        """More thread ranks than cores, switching often, alternate between
        two matrices: every rank always gets its own rows of the matrix it
        passed, and a view of them."""
        A, _ = regression
        B = A.copy()
        B.data *= -1.0
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def job(comm, rank):
                ok = True
                for i in range(40):
                    mat = (A, B)[(i + rank) % 2]
                    dist = RowPartitionedMatrix.from_global(mat, comm)
                    lo, hi = dist.partition.range_of(rank)
                    want = mat[lo:hi]
                    ok &= _bits(dist.local.data) == _bits(want.data)
                    ok &= np.array_equal(dist.local.indices, want.indices)
                    ok &= _bits(dist._local_csc.toarray()) == _bits(want.toarray())
                return ok

            assert all(spmd_run(job, 6, timeout=60.0).values)
        finally:
            sys.setswitchinterval(switch)


# ---------------------------------------------------------------------------
# column-range slices
# ---------------------------------------------------------------------------


def _old_col_slice(A, lo, hi):
    return A.tocsc()[:, lo:hi].tocsr() if sp.issparse(A) else A[:, lo:hi]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 30), n=st.integers(1, 30), density=st.sampled_from([0.0, 0.1, 0.6]),
       seed=st.integers(0, 999), data=st.data())
def test_col_slice_equals_csc_round_trip(m, n, density, seed, data):
    A = sp.random(m, n, density=density, format="csr",
                  random_state=np.random.default_rng(seed))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))  # lo == hi: an empty range
    want, got = _old_col_slice(A, lo, hi), A[:, lo:hi]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.shape == want.shape and got.has_sorted_indices


@pytest.mark.parametrize("dense", [False, True])
def test_col_partition_shards_and_appends_match(dense):
    A, _ = make_classification(40, 25, density=0.2, seed=3)
    A = sp.csr_matrix(A)
    B = sp.random(6, 25, density=0.3, format="csr", random_state=np.random.default_rng(1))
    if dense:
        A, B = A.toarray(), B.toarray()
    offsets = (0, 10, 10, 25)  # the middle rank owns no columns

    def job(comm, rank):
        dist = ColPartitionedMatrix.from_global(A, comm, partition=Partition1D(offsets))
        lo, hi = offsets[rank], offsets[rank + 1]
        same = np.array_equal(_dense(dist.local), _dense(_old_col_slice(A, lo, hi)))
        dist.append_rows(B)
        want = np.vstack([_dense(_old_col_slice(A, lo, hi)), _dense(_old_col_slice(B, lo, hi))])
        return same and np.array_equal(_dense(dist.local), want)

    assert all(spmd_run(job, 3).values)


# ---------------------------------------------------------------------------
# forked ranks
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_fig3_style_second_solve_on_forked_ranks():
    """Two fig3-style solves (mu=8, s=16) on one matrix on 2 forked ranks:
    the second reuses each rank's shard and equals a solve on a copy."""
    A, b, _ = registry.generate("news20", scale=2e-3, max_side=70000, seed=0)
    kw = dict(mu=8, s=16, max_iter=256, seed=0, record_every=0)

    def job(comm, rank):
        fits = []
        for mat in (A, A, A.copy()):
            comm.reset()
            res = lasso.sa_acc_bcd(mat, b, 1.0, comm=comm, **kw)
            fits.append((_bits(res.x), res.cost.to_dict()))
        hit = RowPartitionedMatrix.from_global(A, comm).local is \
            RowPartitionedMatrix.from_global(A, comm).local
        return hit, fits

    for hit, (one, two, fresh) in process_spmd_run(job, 2, timeout=120.0).values:
        assert hit and one == two == fresh
