"""Regularization-path sweep benchmark: warm+shared-cache vs cold solves,
and the fp-tolerant fused mu>1 inner loop vs the reference recurrences.

Two workloads:

* a 16-point Lasso path solved through one :class:`~repro.path.
  SweepContext` with warm starts, against 16 independent cold
  ``fit_lasso`` calls (fresh communicator, fresh partitioned matrix,
  cold eigenvalue memo, ``x0 = 0`` — what independent processes would
  pay);
* one outer step of the SA-accBCD inner loop at ``mu = 8, s = 32``:
  the fused loop's prefix-GEMM correction against the ``fast=False``
  reference eq. (3)-(5) loop, plus the same comparison end-to-end on
  the fig3 configuration.

Wall-clock seconds (best of ``repeats``), not modelled seconds. Run as a
script (not collected by pytest):

    PYTHONPATH=src python benchmarks/bench_path_sweep.py

Emits ``BENCH_path_sweep.json`` at the repo root; CI uploads it as an
artifact and ``benchmarks/check_regression.py`` gates PRs against the
recorded trajectory.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.utils.io import atomic_write_json  # noqa: E402

from repro._api import fit_lasso  # noqa: E402
from repro.datasets import make_sparse_regression  # noqa: E402
from repro.experiments.runner import load_scaled, run_lasso  # noqa: E402
from repro.linalg.kernels import eig_cache_clear  # noqa: E402
from repro.mpi.virtual_backend import VirtualComm  # noqa: E402
from repro.path import lambda_grid, lasso_path  # noqa: E402
from repro.solvers.lasso import acc as acc_mod  # noqa: E402
from repro.solvers.lasso.common import (  # noqa: E402
    as_penalty,
    make_sampler,
    setup_problem,
    theta_schedule,
)
from repro.solvers.objectives import lambda_max  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_path_sweep.json"


def best_of(fn, repeats: int, inner: int = 1) -> float:
    """Best wall-clock seconds of ``repeats`` timings of ``inner`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _entry(name: str, before: float, after: float, note: str, **extra) -> dict:
    speedup = before / after if after > 0 else float("inf")
    print(f"{name:40s} before {before * 1e3:9.3f} ms   after {after * 1e3:9.3f} ms"
          f"   speedup {speedup:6.2f}x")
    return {
        "before_seconds": before,
        "after_seconds": after,
        "speedup": speedup,
        "note": note,
        **extra,
    }


# ---------------------------------------------------------------------------
# workload 1: 16-point warm+shared-cache path vs 16 independent cold solves
# ---------------------------------------------------------------------------


def bench_warm_path(n_points: int = 16) -> dict:
    m, n = 2500, 800
    A, b, _ = make_sparse_regression(m, n, density=0.03, k_nonzero=20,
                                     noise=0.02, seed=4)
    grid = lambda_grid(lambda_max(A, b), n_lambdas=n_points, eps=1e-3)
    kw = dict(solver="sa-accbcd", mu=8, s=16, max_iter=2000, tol=1e-5,
              record_every=20, seed=0)
    iters = {"cold": 0, "warm": 0}

    def cold():
        # what n_points independent processes pay: fresh communicator and
        # partitioned matrix (CSC view, buffers) and a cold eig memo per
        # solve, every solve from x0 = 0
        iters["cold"] = 0
        for lam in grid:
            eig_cache_clear()
            res = fit_lasso(A, b, float(lam), **kw)
            iters["cold"] += res.iterations

    def warm():
        eig_cache_clear()  # cold start; the sweep itself re-warms it
        path = lasso_path(A, b, grid, warm_start=True, **kw)
        iters["warm"] = sum(path.iterations)

    before = best_of(cold, repeats=2)
    after = best_of(warm, repeats=2)
    return _entry(
        f"lasso path ({n_points} pts, mu=8, s=16)", before, after,
        "16-point descending lambda grid; before = independent cold "
        "fit_lasso calls (fresh comm/dist/buffers, cold eig memo, x0=0), "
        "after = lasso_path through one SweepContext with warm starts",
        cold_iterations=iters["cold"],
        warm_iterations=iters["warm"],
    )


# ---------------------------------------------------------------------------
# workload 2: the fused mu>1 inner loop
# ---------------------------------------------------------------------------


def bench_fused_mu_inner(mu: int = 8, s: int = 32) -> dict:
    m, n = 3000, 800
    A, b, _ = make_sparse_regression(m, n, density=0.05, seed=2)
    dist, b_local = setup_problem(A, b, VirtualComm(1))
    pen = as_penalty(0.01)  # small lam: most inner updates are non-zero
    sampler = make_sampler(n, mu, 0, pen)
    y, z, ytil, ztil = acc_mod._init_acc_state(dist, b_local, None)
    warm = acc_mod.sa_acc_bcd(A, b, pen, mu=mu, s=s, max_iter=4 * s,
                              seed=0, record_every=0)
    z = warm.x.copy()
    ztil = dist.matvec_local(z) - b_local
    theta = mu / n
    q = float(int(np.ceil(n / mu)))

    blocks = [sampler.next_block() for _ in range(s)]
    widths = [int(blk.shape[0]) for blk in blocks]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    thetas = theta_schedule(theta, s)
    Y = dist.sample_columns(np.concatenate(blocks))
    G, R = dist.gram_and_project(Y, [ytil, ztil])
    G, R = G.copy(), R.copy()  # the timed loops outlive the reused buffers

    def run(step):
        step(
            dist, pen, Y, G, R, blocks, widths, offsets, thetas, q,
            y.copy(), z.copy(), ytil.copy(), ztil.copy(),
        )

    before = best_of(lambda: run(acc_mod._sa_acc_outer_naive), repeats=20, inner=3)
    after = best_of(lambda: run(acc_mod._sa_acc_outer_fast), repeats=20, inner=3)
    return _entry(
        f"sa_acc_bcd mu>1 inner loop (mu={mu}, s={s})", before, after,
        "one outer step's s inner iterations on identical (Y, G, R); "
        "before = reference eq. (3)-(5) loop (per-t sliced GEMVs + "
        "overlap bookkeeping), after = fused loop (one "
        "prefix GEMM of the preassembled (s*mu)^2 Gram per iteration)",
    )


def bench_fused_end_to_end(mu: int = 8, s: int = 32) -> dict:
    ds = load_scaled("news20", target_cells=20_000.0, seed=0)
    common = dict(s=s, mu=mu, max_iter=384, P=768, seed=3,
                  record_every=32, lam=1.0)

    def naive():
        run_lasso(ds, "sa-accbcd", fast=False, **common)

    def fused():
        run_lasso(ds, "sa-accbcd", fast=True, **common)

    before = best_of(naive, repeats=3)
    after = best_of(fused, repeats=3)
    return _entry(
        f"sa-accbcd(mu={mu}, s={s}) news20 fig3 e2e", before, after,
        "full solve, bench_fig3 configuration (H=384, record_every=32); "
        "before = fast=False reference, after = fused loop "
        "(<= 1e-9 relative iterate drift), wall-clock only",
    )


def main() -> int:
    print("path sweep: before = cold / reference, after = warm / fused\n")
    path = {"warm_path_16pt": bench_warm_path(16)}
    fused = {
        "fused_inner_mu8_s32": bench_fused_mu_inner(8, 32),
        "fused_e2e_mu8_s32": bench_fused_end_to_end(8, 32),
    }
    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "machine": platform.machine(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "path": path,
        "fused": fused,
    }
    atomic_write_json(OUT_PATH, payload)
    print(f"\nwrote {OUT_PATH}")

    # acceptance gates (ISSUE 2): warm+shared-cache 16-point path >= 2.5x
    # over independent cold solves; fused mu>1 inner loop >= 3x over the
    # fast=False reference at mu=8, s=32
    ok = (
        path["warm_path_16pt"]["speedup"] >= 2.5
        and fused["fused_inner_mu8_s32"]["speedup"] >= 3.0
    )
    print("acceptance:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
