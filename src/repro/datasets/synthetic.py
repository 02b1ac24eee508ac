"""Synthetic dataset generators.

These stand in for the LIBSVM datasets the paper evaluates on (not
redistributable / too large for this environment). Generators match the
*shape statistics that drive the experiments*: dimensions, density,
over/under-determination, and (for classification) separability — see
README's "Paper-figure benchmarks" for how the stand-ins are used.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import DatasetError
from repro.utils.seeds import shared_generator

__all__ = [
    "make_sparse_regression",
    "make_classification",
    "sparse_random_matrix",
]


def sparse_random_matrix(
    m: int,
    n: int,
    density: float,
    rng: np.random.Generator,
    value_dist: str = "gaussian",
) -> sp.csr_matrix | np.ndarray:
    """Random m x n matrix with the given density.

    ``density >= 0.95`` returns a dense ndarray (the paper's epsilon /
    leu / gisette datasets are effectively dense and were benchmarked
    through dense BLAS).
    """
    if m <= 0 or n <= 0:
        raise DatasetError(f"matrix dims must be positive, got {m}x{n}")
    if not (0.0 < density <= 1.0):
        raise DatasetError(f"density must be in (0, 1], got {density}")
    if value_dist not in ("gaussian", "uniform", "binary"):
        raise DatasetError(f"unknown value_dist {value_dist!r}")

    def draw(k: int) -> np.ndarray:
        if value_dist == "gaussian":
            return rng.standard_normal(k)
        if value_dist == "uniform":
            return rng.uniform(0.0, 1.0, size=k)
        return np.ones(k)

    if density >= 0.95:
        return draw(m * n).reshape(m, n)

    nnz_target = max(m, int(round(density * m * n)))
    # Guarantee no empty rows (empty samples break row-partition balance
    # and never happen in the real datasets): one entry per row, then the
    # remainder uniformly.
    rows = [np.arange(m)]
    cols = [rng.integers(0, n, size=m)]
    remaining = nnz_target - m
    if remaining > 0:
        rows.append(rng.integers(0, m, size=remaining))
        cols.append(rng.integers(0, n, size=remaining))
    i = np.concatenate(rows)
    j = np.concatenate(cols)
    v = draw(i.shape[0])
    A = sp.coo_matrix((v, (i, j)), shape=(m, n)).tocsr()
    A.sum_duplicates()
    if value_dist == "binary":
        # duplicate (i, j) draws would otherwise sum to 2
        A.data[:] = 1.0
    return A


def make_sparse_regression(
    m: int,
    n: int,
    density: float = 0.1,
    k_nonzero: int | None = None,
    noise: float = 0.01,
    seed: int | None = 0,
    value_dist: str = "gaussian",
) -> tuple[sp.csr_matrix | np.ndarray, np.ndarray, np.ndarray]:
    """Lasso test problem: ``b = A x_true + noise`` with sparse ``x_true``.

    Returns ``(A, b, x_true)``. ``k_nonzero`` defaults to
    ``max(1, n // 20)`` active features.
    """
    rng = shared_generator(seed)
    A = sparse_random_matrix(m, n, density, rng, value_dist)
    k = k_nonzero if k_nonzero is not None else max(1, n // 20)
    if not (1 <= k <= n):
        raise DatasetError(f"k_nonzero must be in [1, {n}], got {k_nonzero}")
    support = rng.choice(n, size=k, replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.standard_normal(k) * 2.0
    b = np.asarray(A @ x_true).ravel()
    if noise > 0:
        b = b + noise * np.linalg.norm(b) / np.sqrt(m) * rng.standard_normal(m)
    return A, b, x_true


def make_classification(
    m: int,
    n: int,
    density: float = 0.1,
    margin: float = 0.1,
    label_noise: float = 0.0,
    seed: int | None = 0,
    value_dist: str = "gaussian",
) -> tuple[sp.csr_matrix | np.ndarray, np.ndarray]:
    """Binary classification problem with labels in {-1, +1}.

    Labels come from a random ground-truth hyperplane; samples inside the
    ``margin`` band are pushed out (so the problem is realisable), and
    ``label_noise`` flips a fraction of labels to keep the SVM's
    soft-margin path exercised.
    """
    if not (0.0 <= label_noise < 0.5):
        raise DatasetError(f"label_noise must be in [0, 0.5), got {label_noise}")
    rng = shared_generator(seed)
    A = sparse_random_matrix(m, n, density, rng, value_dist)
    w = rng.standard_normal(n)
    w /= np.linalg.norm(w)
    scores = np.asarray(A @ w).ravel()
    scale = float(np.median(np.abs(scores)))
    if scale == 0.0:
        scale = 1.0
    scores = scores / scale
    b = np.where(scores >= 0.0, 1.0, -1.0)
    # enforce margin: |score| >= margin for the kept labels
    weak = np.abs(scores) < margin
    b[weak] = np.where(rng.uniform(size=int(weak.sum())) < 0.5, 1.0, -1.0)
    if label_noise > 0:
        flips = rng.uniform(size=m) < label_noise
        b[flips] *= -1.0
    return A, b
