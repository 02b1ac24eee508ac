"""Hot-path kernel benchmark: before/after the kernel fast-path layer.

Times the three local kernels the SA methods live on — sparse column
sampling, Gram packing, and the eq. (3)-(5) inner-loop recurrences —
against faithful re-implementations of the pre-kernel-layer code, plus
full solves on the Fig. 3 benchmark configuration. Wall-clock seconds
(best of ``repeats``), not modelled seconds.

Run as a script (not collected by pytest):

    PYTHONPATH=src python benchmarks/bench_hot_paths.py

Emits ``BENCH_hot_paths.json`` at the repo root; CI uploads it as an
artifact so the perf trajectory is tracked per PR.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.utils.io import atomic_write_json  # noqa: E402

from repro.datasets import make_sparse_regression  # noqa: E402
from repro.experiments.runner import load_scaled, run_lasso  # noqa: E402
from repro.linalg.eig import largest_eigenvalue  # noqa: E402
from repro.linalg.kernels import (  # noqa: E402
    GatherWorkspace,
    gather_columns,
    largest_eigenvalue_cached,
)
from repro.linalg.packing import pack_gram, packed_length, unpack_gram  # noqa: E402
from repro.mpi.virtual_backend import VirtualComm  # noqa: E402
from repro.solvers.lasso import acc as acc_mod  # noqa: E402
from repro.solvers.lasso.common import (  # noqa: E402
    as_penalty,
    make_sampler,
    setup_problem,
    theta_schedule,
)

OUT_PATH = REPO_ROOT / "BENCH_hot_paths.json"


def best_of(fn, repeats: int, inner: int = 1) -> float:
    """Best wall-clock seconds of ``repeats`` timings of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _entry(name: str, before: float, after: float, note: str) -> dict:
    speedup = before / after if after > 0 else float("inf")
    print(f"{name:34s} before {before * 1e3:9.3f} ms   after {after * 1e3:9.3f} ms"
          f"   speedup {speedup:6.2f}x")
    return {
        "before_seconds": before,
        "after_seconds": after,
        "speedup": speedup,
        "note": note,
    }


# ---------------------------------------------------------------------------
# kernel 1: sparse column sampling
# ---------------------------------------------------------------------------


def bench_sample_columns() -> dict:
    m, n, k = 8000, 2000, 64
    rng = np.random.default_rng(0)
    A = sp.random(m, n, density=0.02, format="csr", random_state=rng)
    A.data[:] = rng.standard_normal(A.nnz)
    csc = A.tocsc()
    ws = GatherWorkspace()
    idx = rng.choice(n, size=k, replace=False).astype(np.intp)

    before = best_of(lambda: A[:, idx], repeats=30, inner=3)  # seed code path
    after = best_of(lambda: gather_columns(csc, idx, ws), repeats=30, inner=3)
    return _entry(
        "sample_columns (CSR 8000x2000)", before, after,
        f"gather k={k} columns; before = scipy CSR minor-axis fancy indexing, "
        "after = cached-CSC slice gather with reusable buffers",
    )


# ---------------------------------------------------------------------------
# kernel 2: Gram packing
# ---------------------------------------------------------------------------


def _pack_before(G, extras, symmetric):
    """The seed implementation: fresh tril_indices + concatenate per call."""
    k = G.shape[0]
    parts = [G[np.tril_indices(k)] if symmetric else G.ravel()]
    if extras is not None:
        parts.append(extras.ravel())
    return np.concatenate(parts)


def _unpack_before(buf, k, extra_cols, symmetric):
    t = k * (k + 1) // 2
    G = np.zeros((k, k))
    il, jl = np.tril_indices(k)
    G[il, jl] = buf[:t]
    G[jl, il] = buf[:t]
    rest = buf[t:]
    extras = rest.reshape(k, extra_cols).copy() if extra_cols else None
    return G, extras


def bench_pack_gram() -> dict:
    k, c = 128, 2
    rng = np.random.default_rng(1)
    M = rng.standard_normal((k, k))
    G = M @ M.T
    extras = rng.standard_normal((k, c))
    out = np.empty(packed_length(k, c, True))

    def before():
        buf = _pack_before(G, extras, True)
        _unpack_before(buf, k, c, True)

    def after():
        pack_gram(G, extras, True, out=out)
        unpack_gram(out, k, c, True)

    b = best_of(before, repeats=50, inner=20)
    a = best_of(after, repeats=50, inner=20)
    return _entry(
        "pack+unpack gram (k=128, c=2)", b, a,
        "before = per-call np.tril_indices + concatenate; after = cached "
        "triangular-index plan + preallocated packed buffer",
    )


# ---------------------------------------------------------------------------
# kernel 3: the fused SA-accBCD inner loop (eqs. (3)-(5))
# ---------------------------------------------------------------------------


def bench_sa_inner_loop(s: int = 16) -> dict:
    m, n = 3000, 800
    A, b, _ = make_sparse_regression(m, n, density=0.05, seed=2)
    dist, b_local = setup_problem(A, b, VirtualComm(1))
    pen = as_penalty(0.01)  # small lam: most inner updates are non-zero
    sampler = make_sampler(n, 1, 0, pen)
    y, z, ytil, ztil = acc_mod._init_acc_state(dist, b_local, None)
    # a few warm iterations so the state is representative
    warm = acc_mod.sa_acc_bcd(A, b, pen, mu=1, s=s, max_iter=4 * s,
                              seed=0, record_every=0)
    z = warm.x.copy()
    ztil = dist.matvec_local(z) - b_local
    theta = 1.0 / n
    q = float(n)

    blocks = [sampler.next_block() for _ in range(s)]
    widths = [int(blk.shape[0]) for blk in blocks]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    thetas = theta_schedule(theta, s)
    Y = dist.sample_columns(np.concatenate(blocks))
    G, R = dist.gram_and_project(Y, [ytil, ztil])

    def run(step):
        step(
            dist, pen, Y, G, R, blocks, widths, offsets, thetas, q,
            y.copy(), z.copy(), ytil.copy(), ztil.copy(),
        )

    before = best_of(lambda: run(acc_mod._sa_acc_outer_naive), repeats=30, inner=3)
    after = best_of(lambda: run(acc_mod._sa_acc_outer_fast), repeats=30, inner=3)
    return _entry(
        f"sa_acc_bcd inner loop (mu=1, s={s})", before, after,
        "one outer step's s inner iterations on identical (Y, G, R); "
        "before = reference eq. (3)-(5) loop, after = fused scalar "
        "recurrence + sparse column scatter (bit-identical iterates)",
    )


# ---------------------------------------------------------------------------
# kernel 4: cached block eigensolves (repeated sampled blocks)
# ---------------------------------------------------------------------------


def bench_eig_cache() -> dict:
    rng = np.random.default_rng(3)
    M = rng.standard_normal((16, 8))
    G = np.ascontiguousarray(M.T @ M)
    largest_eigenvalue_cached(G)  # prime the memo

    b = best_of(lambda: largest_eigenvalue(G), repeats=50, inner=50)
    a = best_of(lambda: largest_eigenvalue_cached(G), repeats=50, inner=50)
    return _entry(
        "largest_eigenvalue repeat (k=8)", b, a,
        "repeated sampled block (fixed seeds / regularization paths); "
        "before = LAPACK eigvalsh every time, after = bytes-keyed memo",
    )


# ---------------------------------------------------------------------------
# end to end: the Fig. 3 benchmark configuration
# ---------------------------------------------------------------------------


def bench_end_to_end() -> dict:
    results = {}
    cases = [
        ("news20", "sa-acccd", dict(s=16, max_iter=384, P=768)),
        ("news20", "sa-accbcd", dict(s=16, mu=8, max_iter=384, P=768)),
    ]
    for name, solver, kw in cases:
        ds = load_scaled(name, target_cells=20_000.0, seed=0)
        common = dict(seed=3, record_every=32, lam=1.0, **kw)

        def naive():
            run_lasso(ds, solver, fast=False, **common)

        def fast():
            run_lasso(ds, solver, fast=True, **common)

        b = best_of(naive, repeats=3)
        a = best_of(fast, repeats=3)
        label = f"{solver}(s={kw['s']}) {name} fig3"
        results[label] = _entry(
            label, b, a,
            "full solve, bench_fig3 configuration (H=384, record_every=32); "
            "identical iterate sequences, wall-clock only",
        )
    return results


def main() -> int:
    print("hot-path kernels: before = seed implementation, after = kernel layer\n")
    kernels = {
        "sample_columns": bench_sample_columns(),
        "pack_gram": bench_pack_gram(),
        "sa_inner_loop_s16": bench_sa_inner_loop(16),
        "sa_inner_loop_s64": bench_sa_inner_loop(64),
        "eig_cache_repeat": bench_eig_cache(),
    }
    end_to_end = bench_end_to_end()
    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "kernels": kernels,
        "end_to_end": end_to_end,
    }
    atomic_write_json(OUT_PATH, payload)
    print(f"\nwrote {OUT_PATH}")

    # acceptance gates (ISSUE 1): >= 2x on sampling and the fused inner
    # loop at s >= 8; end-to-end fig3 must improve
    ok = (
        kernels["sample_columns"]["speedup"] >= 2.0
        and kernels["sa_inner_loop_s16"]["speedup"] >= 2.0
        and all(e["speedup"] > 1.0 for e in end_to_end.values())
    )
    print("acceptance:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
