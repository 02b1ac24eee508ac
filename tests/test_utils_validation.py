"""Tests for repro.utils.validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.utils.validation import (
    as_float64_array,
    check_dense_or_csr,
    check_in_range,
    check_positive,
    check_vector,
    is_sparse,
    nnz_of,
)


class TestCheckDenseOrCsr:
    def test_dense_passthrough(self):
        A = check_dense_or_csr([[1.0, 2.0], [3.0, 4.0]])
        assert isinstance(A, np.ndarray) and A.dtype == np.float64

    def test_sparse_to_csr(self):
        A = check_dense_or_csr(sp.coo_matrix(np.eye(3)))
        assert sp.issparse(A) and A.format == "csr"

    def test_sparse_dtype_coerced(self):
        A = check_dense_or_csr(sp.csr_matrix(np.eye(3, dtype=np.float32)))
        assert A.dtype == np.float64

    def test_1d_rejected(self):
        with pytest.raises(SolverError):
            check_dense_or_csr(np.arange(4.0))

    def test_nan_rejected(self):
        with pytest.raises(SolverError):
            check_dense_or_csr(np.array([[np.nan, 1.0]]))
        with pytest.raises(SolverError, match="non-finite"):
            check_dense_or_csr(sp.csr_matrix(np.array([[np.inf, 1.0]])))

    def test_duplicates_summed(self):
        A = sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(1, 1))
        out = check_dense_or_csr(A)
        assert out[0, 0] == 3.0


class TestCheckVector:
    def test_accepts_list(self):
        v = check_vector([1, 2, 3], 3)
        assert v.dtype == np.float64

    def test_wrong_length(self):
        with pytest.raises(SolverError):
            check_vector([1, 2], 3)

    def test_inf_rejected(self):
        with pytest.raises(SolverError):
            check_vector([1.0, np.inf], 2)


class TestScalarChecks:
    def test_positive_ok(self):
        assert check_positive(2.5, "x") == 2.5

    def test_zero_rejected_strict(self):
        with pytest.raises(SolverError):
            check_positive(0.0, "x")

    def test_zero_ok_nonstrict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_in_range(self):
        assert check_in_range(3, 1, 5, "k") == 3
        with pytest.raises(SolverError):
            check_in_range(6, 1, 5, "k")


class TestHelpers:
    def test_nnz_of_sparse(self):
        assert nnz_of(sp.eye(4, format="csr")) == 4

    def test_nnz_of_dense(self):
        assert nnz_of(np.zeros((2, 3))) == 6

    def test_is_sparse(self):
        assert is_sparse(sp.eye(2)) and not is_sparse(np.eye(2))

    def test_as_float64(self):
        out = as_float64_array([1, 2])
        assert out.dtype == np.float64 and out.flags["C_CONTIGUOUS"]
