"""Tests for the fast-path kernel layer (:mod:`repro.linalg.kernels`)."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.linalg.eig import largest_eigenvalue
from repro.linalg.kernels import (
    EigMemo,
    GatherWorkspace,
    acc_coef_tables,
    default_eig_memo,
    diag_blocks,
    eig_cache_clear,
    eig_cache_info,
    gather_columns,
    gather_rows,
    largest_eigenvalue_cached,
    sparse_columns,
    tri_plan,
)
from repro.solvers.lasso.common import theta_schedule


def _csr(m, n, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    return sp.random(m, n, density=density, format="csr", random_state=rng)


class TestGather:
    @pytest.mark.parametrize("idx", [[0], [3, 1, 4], [2, 2, 0], []])
    def test_gather_columns_matches_fancy_indexing(self, idx):
        A = _csr(30, 8, seed=1)
        csc = A.tocsc()
        idx = np.asarray(idx, dtype=np.intp)
        got = gather_columns(csc, idx)
        want = A[:, idx] if idx.size else sp.csr_matrix((30, 0))
        assert got.shape == (30, idx.size)
        assert np.array_equal(got.toarray(), want.toarray())

    def test_gather_rows_matches_fancy_indexing(self):
        A = _csr(12, 40, seed=2)
        idx = np.array([7, 0, 7, 11], dtype=np.intp)
        got = gather_rows(A, idx)
        assert got.shape == (4, 40)
        assert np.array_equal(got.toarray(), A[idx, :].toarray())

    def test_gather_preserves_values_bitwise(self):
        A = _csr(25, 10, seed=3)
        csc = A.tocsc()
        idx = np.array([4, 9, 0], dtype=np.intp)
        got = gather_columns(csc, idx)
        for out_j, src_j in enumerate(idx):
            lo, hi = csc.indptr[src_j], csc.indptr[src_j + 1]
            glo, ghi = got.indptr[out_j], got.indptr[out_j + 1]
            assert np.array_equal(got.data[glo:ghi], csc.data[lo:hi])
            assert np.array_equal(got.indices[glo:ghi], csc.indices[lo:hi])

    def test_empty_columns(self):
        A = sp.csc_matrix((8, 5))
        got = gather_columns(A, np.array([1, 3], dtype=np.intp))
        assert got.nnz == 0
        assert got.shape == (8, 2)

    def test_workspace_reuse_no_regrow(self):
        ws = GatherWorkspace()
        A = _csr(50, 20, density=0.4, seed=4).tocsc()
        idx = np.arange(10, dtype=np.intp)
        gather_columns(A, idx, ws)
        data_buf = ws._data
        indices_buf = ws._indices
        got = gather_columns(A, idx, ws)
        # steady state: same backing buffers, correct values
        assert ws._data is data_buf
        assert ws._indices is indices_buf
        assert np.array_equal(got.toarray(), A[:, idx].toarray())

    def test_workspace_output_invalidated_by_next_gather(self):
        # the documented lifetime contract: a gather's output aliases the
        # workspace, so the *next* gather may overwrite it
        ws = GatherWorkspace()
        A = sp.csc_matrix(np.arange(1.0, 10.0).reshape(3, 3))
        first = gather_columns(A, np.array([0], dtype=np.intp), ws)
        before = first.toarray().copy()
        gather_columns(A, np.array([2], dtype=np.intp), ws)
        assert not np.array_equal(first.toarray(), before)

    def test_matvec_and_gram_consistency(self):
        A = _csr(40, 15, seed=5)
        csc = A.tocsc()
        idx = np.array([3, 8, 14, 0], dtype=np.intp)
        S = gather_columns(csc, idx)
        ref = A[:, idx]
        x = np.random.default_rng(0).standard_normal(4)
        assert np.allclose(S @ x, ref @ x)
        assert np.allclose((S.T @ S).toarray(), (ref.T @ ref).toarray())


class TestTriPlan:
    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_matches_tril_indices(self, k):
        il, jl, flat = tri_plan(k)
        ref_il, ref_jl = np.tril_indices(k)
        assert np.array_equal(il, ref_il)
        assert np.array_equal(jl, ref_jl)
        assert np.array_equal(flat, ref_il * k + ref_jl)

    def test_cached_identity(self):
        assert tri_plan(7)[2] is tri_plan(7)[2]


class TestEigCache:
    def test_matches_uncached(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((10, 6))
        G = M.T @ M
        assert largest_eigenvalue_cached(G) == largest_eigenvalue(G)

    def test_scalar_block(self):
        assert largest_eigenvalue_cached(np.array([[3.5]])) == 3.5
        assert largest_eigenvalue_cached(np.array([[-1.0]])) == 0.0

    def test_repeat_hits_cache(self):
        rng = np.random.default_rng(9)
        M = rng.standard_normal((12, 5))
        G = M.T @ M
        v1 = largest_eigenvalue_cached(G)
        hits_before = eig_cache_info().hits
        v2 = largest_eigenvalue_cached(G.copy())  # same bytes, new array
        assert v1 == v2
        assert eig_cache_info().hits == hits_before + 1

    def test_noncontiguous_input(self):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((16, 16))
        big = M @ M.T
        view = big[2:6, 2:6]  # non-contiguous slice, like G[sl_j, sl_j]
        assert largest_eigenvalue_cached(view) == largest_eigenvalue(view)

    def test_explicit_memo_is_isolated(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((8, 4))
        G = M.T @ M
        memo = EigMemo(maxsize=8)
        assert largest_eigenvalue_cached(G, memo=memo) == largest_eigenvalue(G)
        assert memo.cache_info().misses == 1
        largest_eigenvalue_cached(G, memo=memo)
        assert memo.cache_info().hits == 1

    def test_default_memo_clear(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((9, 4))
        G = M.T @ M
        largest_eigenvalue_cached(G)
        eig_cache_clear()
        info = eig_cache_info()
        assert info.currsize == 0 and info.hits == 0 and info.misses == 0
        assert default_eig_memo().hit_rate == 0.0


class TestEigMemoBound:
    """Satellite: the memo cannot grow unbounded during long sweeps."""

    def _gram(self, seed, k=4):
        M = np.random.default_rng(seed).standard_normal((k + 3, k))
        return M.T @ M

    def test_size_bounded_with_lru_eviction(self):
        memo = EigMemo(maxsize=5)
        for i in range(20):
            memo.eig(self._gram(i))
        info = memo.cache_info()
        assert info.currsize == 5
        assert info.misses == 20
        # the 5 most recent entries survive, older ones were evicted
        hits0 = memo.cache_info().hits
        for i in range(15, 20):
            memo.eig(self._gram(i))
        assert memo.cache_info().hits == hits0 + 5
        memo.eig(self._gram(0))  # evicted: recomputed, not served
        assert memo.cache_info().misses == 21

    def test_lru_refresh_on_hit(self):
        memo = EigMemo(maxsize=2)
        a, b, c = self._gram(1), self._gram(2), self._gram(3)
        memo.eig(a)
        memo.eig(b)
        memo.eig(a)  # refresh a: b becomes LRU
        memo.eig(c)  # evicts b
        misses = memo.cache_info().misses
        memo.eig(a)
        assert memo.cache_info().misses == misses  # a still cached
        memo.eig(b)
        assert memo.cache_info().misses == misses + 1  # b was evicted

    def test_clear_resets_counters(self):
        memo = EigMemo(maxsize=3)
        memo.eig(self._gram(0))
        memo.eig(self._gram(0))
        memo.clear()
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def _gram(seed, k=4):
    M = np.random.default_rng(seed).standard_normal((k + 3, k))
    return M.T @ M


class TestEigStack:
    """An ``(s, k, k)`` stack: one lookup per block, misses solved in one
    batched call, every value the per-block eigensolve's float."""

    def test_matches_per_block_with_duplicates(self):
        grams = [_gram(i, k=6) for i in range(5)]
        stack = np.stack(grams + [grams[1], grams[3]])
        memo = EigMemo()
        got = memo.eig(stack)
        assert got.tolist() == [largest_eigenvalue(g) for g in stack]
        # served from the memo the second time: the same floats
        assert memo.eig(stack).tolist() == got.tolist()

    @pytest.mark.parametrize("k", [1, 2, 65])
    def test_orders(self, k):
        # k = 1 reads the entry; k = 65 is past the direct solve's limit
        # and runs the power iteration
        stack = np.stack([_gram(i, k) for i in range(3)])
        want = [largest_eigenvalue(g) for g in stack]
        assert largest_eigenvalue_cached(stack, EigMemo()).tolist() == want

    def test_negative_top_eigenvalue_clamps_to_zero(self):
        tiny = np.diag([-1e-17, -3e-17])  # roundoff below a zero block
        stack = np.stack([tiny, _gram(0, k=2)])
        got = EigMemo().eig(stack).tolist()
        assert got == [largest_eigenvalue(g) for g in stack]
        assert got[0] == 0.0 and got[1] > 0.0
        assert EigMemo().eig(np.array([[[-2.0]]])).tolist() == [0.0]

    def test_diag_blocks_stacks_the_outer_step(self):
        G = _gram(5, k=12)
        D = diag_blocks(G, 4)
        assert D.shape == (3, 4, 4)
        for j in range(3):
            assert np.array_equal(D[j], G[4 * j:4 * j + 4, 4 * j:4 * j + 4])

    def test_counts_once_per_block(self):
        memo = EigMemo(maxsize=8)
        a, b = _gram(1), _gram(2)
        memo.eig(np.stack([a, b, a]))  # the repeat is solved once: a hit
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
        memo.eig(np.stack([b, a]))
        memo.eig(a)
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 2, 2)

    def test_size_bounded_with_lru_eviction(self):
        # TestEigMemoBound's case, one stack per call
        memo = EigMemo(maxsize=5)
        memo.eig(np.stack([_gram(i) for i in range(20)]))
        info = memo.cache_info()
        assert info.currsize == 5 and info.misses == 20
        memo.eig(np.stack([_gram(i) for i in range(15, 20)]))
        assert memo.cache_info().hits == 5
        memo.eig(_gram(0))  # evicted: recomputed, not served
        assert memo.cache_info().misses == 21

    def test_lru_refresh_on_hit(self):
        memo = EigMemo(maxsize=2)
        a, b, c = _gram(1), _gram(2), _gram(3)
        memo.eig(np.stack([a, b]))
        memo.eig(np.stack([a, c]))  # refresh a, then c evicts b
        misses = memo.cache_info().misses
        memo.eig(a)
        assert memo.cache_info().misses == misses  # a still cached
        memo.eig(b)
        assert memo.cache_info().misses == misses + 1  # b was evicted

    def test_stack_and_single_calls_leave_the_same_order(self):
        grams = [_gram(i) for i in range(6)]
        order = [0, 1, 2, 1, 3, 0, 4]
        single, stacked = EigMemo(maxsize=4), EigMemo(maxsize=4)
        for i in order:
            single.eig(grams[i])
        stacked.eig(np.stack([grams[i] for i in order]))
        assert single.cache_info() == stacked.cache_info()
        # the same four survive, in the same order: probes hit and evict alike
        for i in [5, *range(6)]:
            single.eig(grams[i])
            stacked.eig(grams[i])
            assert single.cache_info() == stacked.cache_info()

    @pytest.mark.parametrize("shape", [(2, 3), (1,), (), (2, 2, 3),
                                       (1, 2, 2, 2), (0, 0), (3, 0, 0)])
    def test_bad_shapes_raise(self, shape):
        with pytest.raises(SolverError, match="square"):
            largest_eigenvalue_cached(np.ones(shape), EigMemo())

    def test_two_by_two_by_two_is_a_stack(self):
        G = np.stack([np.eye(2), 2.0 * np.eye(2)])
        assert largest_eigenvalue_cached(G, EigMemo()).tolist() == [1.0, 2.0]

    def test_threads_share_a_small_memo(self):
        """8 threads on 10 blocks through a 4-entry memo, switching every
        microsecond: no lookup lost, no error, every value exact."""
        grams = [_gram(i) for i in range(10)]
        want = [largest_eigenvalue(g) for g in grams]
        memo = EigMemo(maxsize=4)
        errors: list = []
        lookups = [0] * 8

        def work(t):
            rng = np.random.default_rng(t)
            try:
                for _ in range(150):
                    pick = rng.integers(0, 10, size=int(rng.integers(1, 6)))
                    if pick.size == 1:
                        got = [memo.eig(grams[pick[0]])]
                    else:
                        got = memo.eig(np.stack([grams[i] for i in pick])).tolist()
                    if got != [want[i] for i in pick]:
                        raise AssertionError(f"thread {t}: {got}")
                    lookups[t] += pick.size
            except BaseException as exc:  # reported below, not swallowed
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        info = memo.cache_info()
        assert info.hits + info.misses == sum(lookups)
        assert info.currsize <= 4


class TestCoefTables:
    def test_matches_scalar_recurrences(self):
        q = 11.0
        thetas = theta_schedule(0.17, 6)[:6]
        t2, qth, coefs, C = acc_coef_tables(thetas, q)
        for j, th in enumerate(thetas):
            assert t2[j] == th * th
            assert qth[j] == q * th
            assert coefs[j] == (1.0 - q * th) / (th * th)
            for t in range(j):
                tt = thetas[t]
                c_jt = (th * th) * (1.0 - q * tt) / (tt * tt) - 1.0
                assert C[j, t] == c_jt

    def test_single_step(self):
        t2, qth, coefs, C = acc_coef_tables([0.5], 2.0)
        assert t2.shape == (1,) and C.shape == (1, 1)


class TestSparseColumns:
    def test_dense_passthrough(self):
        assert sparse_columns(np.ones((3, 2))) is None

    def test_csc_is_free(self):
        A = _csr(5, 5).tocsc()
        assert sparse_columns(A) is A
