"""Packing Gram matrices and projections into one Allreduce payload.

The SA methods synchronise once per outer iteration by packing the
(partial) Gram matrix together with the (partial) projection vectors into
a single buffer (paper Alg. 2 lines 11-12; Alg. 4 lines 9-10). Footnote 3
notes G is symmetric, so sending the lower triangle halves the message —
implemented here as ``symmetric=True``.

Steady-state path: the lower-triangle index plan is cached per ``k``
(:func:`repro.linalg.kernels.tri_plan`) and ``pack_gram`` accepts an
``out`` buffer, so packing a Gram block allocates nothing after the
first iteration. The packed values and their order are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CommError
from repro.linalg.kernels import mirror_plan, tri_plan

__all__ = [
    "pack_gram",
    "pack_gram_head",
    "pack_extras",
    "unpack_gram",
    "packed_length",
    "tri_length",
]


def tri_length(k: int) -> int:
    """Entries in the lower triangle (incl. diagonal) of a k x k matrix."""
    return k * (k + 1) // 2


def packed_length(k: int, extra_cols: int, symmetric: bool) -> int:
    """Total packed payload length in doubles."""
    gram = tri_length(k) if symmetric else k * k
    return gram + k * extra_cols


def pack_gram(
    G: np.ndarray,
    extras: np.ndarray | None,
    symmetric: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pack ``G`` (k x k) and ``extras`` (k x c, optional) into one vector.

    ``symmetric=True`` stores only the lower triangle of ``G``. With
    ``out`` (a preallocated float64 vector of exactly the packed length)
    the payload is written in place — zero allocations on the hot path.
    """
    G = np.asarray(G, dtype=np.float64)
    k = G.shape[0]
    if G.shape != (k, k):
        raise CommError(f"G must be square, got {G.shape}")
    if extras is not None:
        extras = np.asarray(extras, dtype=np.float64)
        if extras.ndim == 1:
            extras = extras[:, None]
        if extras.shape[0] != k:
            raise CommError(
                f"extras must have {k} rows to match G, got {extras.shape}"
            )
    c = 0 if extras is None else extras.shape[1]
    t = tri_length(k) if symmetric else k * k
    length = t + k * c
    if out is None:
        out = np.empty(length, dtype=np.float64)
    elif out.shape != (length,) or out.dtype != np.float64:
        raise CommError(
            f"out buffer must be a float64 vector of length {length}, "
            f"got {out.dtype}{out.shape}"
        )
    pack_gram_head(G, symmetric, out)
    if c:
        out[t:] = np.ravel(extras)
    return out


def pack_gram_head(G: np.ndarray, symmetric: bool, out: np.ndarray) -> int:
    """Pack only the Gram region (the payload head) into ``out``.

    The split half of :func:`pack_gram` used by the pipelined solvers:
    the Gram block ``Y^T Y`` depends only on the sampled columns, so it
    is packed while the *previous* reduction is still in flight; the
    residual-dependent projections land later via :func:`pack_extras`.
    Returns the head length (where the extras region starts).
    """
    G = np.asarray(G, dtype=np.float64)
    k = G.shape[0]
    t = tri_length(k) if symmetric else k * k
    if symmetric:
        _, _, flat = tri_plan(k)
        np.take(np.ravel(G), flat, out=out[:t])
    else:
        out[:t] = np.ravel(G)
    return t


def pack_extras(
    extras: np.ndarray, k: int, symmetric: bool, out: np.ndarray
) -> None:
    """Pack the projection columns into the tail region of ``out``.

    Completes a payload started with :func:`pack_gram_head`; byte-for-
    byte the same buffer contents as one :func:`pack_gram` call.
    """
    extras = np.asarray(extras, dtype=np.float64)
    if extras.ndim == 1:
        extras = extras[:, None]
    if extras.shape[0] != k:
        raise CommError(f"extras must have {k} rows to match G, got {extras.shape}")
    t = tri_length(k) if symmetric else k * k
    out[t:t + k * extras.shape[1]] = np.ravel(extras)


def unpack_gram(
    buf: np.ndarray,
    k: int,
    extra_cols: int,
    symmetric: bool,
    out_g: np.ndarray | None = None,
    out_extras: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse of :func:`pack_gram`; returns ``(G, extras-or-None)``.

    The symmetric path mirrors the lower triangle into the upper one with
    one take through the cached :func:`~repro.linalg.kernels.mirror_plan`.
    The outputs are never views of ``buf``, so callers may reuse ``buf``
    as a receive buffer on the next collective. With ``out_g`` (a
    C-contiguous k x k array) and ``out_extras`` (k x extra_cols) the
    values are written in place — the zero-allocation steady-state path
    of the solvers' outer loops.
    """
    buf = np.asarray(buf, dtype=np.float64).ravel()
    expect = packed_length(k, extra_cols, symmetric)
    if buf.shape[0] != expect:
        raise CommError(
            f"packed buffer has length {buf.shape[0]}, expected {expect}"
        )
    if out_g is not None and (out_g.shape != (k, k) or out_g.dtype != np.float64
                              or not out_g.flags.c_contiguous):
        raise CommError(
            f"out_g must be a C-contiguous float64 ({k}, {k}) array, "
            f"got {out_g.dtype}{out_g.shape}"
        )
    if symmetric:
        t = tri_length(k)
        G = np.empty((k, k)) if out_g is None else out_g
        np.take(buf[:t], mirror_plan(k), out=G, mode="clip")
        rest = buf[t:]
    else:
        G = buf[: k * k].reshape(k, k).copy() if out_g is None else out_g
        if out_g is not None:
            G[:] = buf[: k * k].reshape(k, k)
        rest = buf[k * k :]
    if not extra_cols:
        return G, None
    if out_extras is None:
        extras = rest.reshape(k, extra_cols).copy()
    else:
        if out_extras.shape != (k, extra_cols) or out_extras.dtype != np.float64:
            raise CommError(
                f"out_extras must be a float64 ({k}, {extra_cols}) array, "
                f"got {out_extras.dtype}{out_extras.shape}"
            )
        extras = out_extras
        extras[:] = rest.reshape(k, extra_cols)
    return G, extras
