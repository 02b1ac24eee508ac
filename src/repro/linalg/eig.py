"""Largest-eigenvalue computation for small Gram blocks.

Each (SA-)BCD iteration needs the optimal block Lipschitz constant: the
largest eigenvalue of the mu x mu Gram block (paper Alg. 1 line 10 / Alg. 2
line 14). G is replicated after the Allreduce, so this never communicates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError

__all__ = ["largest_eigenvalue", "largest_eigenvalues", "power_iteration"]

#: below this order, direct symmetric eigensolve is cheapest and exact
_DIRECT_MAX = 64


def largest_eigenvalue(G: np.ndarray, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Largest eigenvalue of a symmetric PSD matrix ``G``.

    Exact (LAPACK ``eigvalsh``) for small blocks, power iteration with a
    deterministic start vector otherwise. Returns a float >= 0 for PSD
    inputs (tiny negative values from roundoff are clamped to 0).
    """
    G = np.asarray(G, dtype=np.float64)
    k = G.shape[0]
    if G.shape != (k, k):
        raise SolverError(f"G must be square, got {G.shape}")
    if k == 0:
        raise SolverError("G must be non-empty")
    if k == 1:
        return max(float(G[0, 0]), 0.0)
    if k <= _DIRECT_MAX:
        return max(float(np.linalg.eigvalsh(G)[-1]), 0.0)
    return max(power_iteration(G, tol=tol, max_iter=max_iter), 0.0)


def largest_eigenvalues(G: np.ndarray) -> np.ndarray:
    """:func:`largest_eigenvalue` of each block of an ``(s, k, k)`` stack.

    Blocks up to order 64 go to one batched LAPACK ``eigvalsh`` call,
    which applies the same routine to each block, so every value equals
    the per-block one bit for bit; larger blocks run the power iteration
    one at a time.
    """
    G = np.asarray(G, dtype=np.float64)
    k = G.shape[-1] if G.ndim == 3 else 0
    if G.ndim != 3 or G.shape[1] != k or k == 0:
        raise SolverError(f"G must be a stack of non-empty square blocks, got {G.shape}")
    if k > _DIRECT_MAX:
        return np.array([largest_eigenvalue(g) for g in G])
    top = G[:, 0, 0] if k == 1 else np.linalg.eigvalsh(G)[:, -1]
    # max(v, 0.0) per block, bit for bit (a -0.0 or NaN passes through)
    return np.where(top < 0.0, 0.0, top)


def power_iteration(G: np.ndarray, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Power iteration on symmetric ``G`` with a fixed, dense start vector.

    The start vector is deterministic (ones normalised) so that every
    rank computes bit-identical constants without communication.
    """
    G = np.asarray(G, dtype=np.float64)
    k = G.shape[0]
    v = np.ones(k) / np.sqrt(k)
    lam = 0.0
    for _ in range(max_iter):
        w = G @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_next = w / norm
        lam_next = float(v_next @ (G @ v_next))
        if abs(lam_next - lam) <= tol * max(1.0, abs(lam_next)):
            return lam_next
        v, lam = v_next, lam_next
    return lam
