"""Communication/computation overlap benchmark: nonblocking pipelined SA
solvers vs their blocking references, on real multi-process parallelism.

Three workloads:

* **backend parity** — the same blocking SA solve on P thread ranks vs P
  forked process ranks (wall-clock). Thread ranks share one GIL for the
  Python-level inner loops; process ranks genuinely compute in parallel.
  (On a single-core host the process backend instead pays fork and
  inter-process barriers with no parallelism to win back — the entry
  records whatever the host offers, honestly.)
* **pipelined vs blocking** — `pipeline=True` SA solves against blocking
  ones on the process backend at several (s, mu, P) points, with an
  emulated per-collective transit latency (GbE-class, 2 ms): the
  blocking path pays two barriers + transit per outer step on the
  critical path (its pickled payload enters the shared slab in one
  buffer copy, microseconds for a packed Gram); the pipelined path posts
  the packed Gram reduction nonblocking (raw shared-memory doubles, no
  pickle) and samples + Gram-packs the next outer step while it is in
  flight.
* **ledger honesty** — modelled costs at virtual P: the pipelined run
  must charge the identical traffic (messages/words/flops) and split the
  blocking run's comm seconds exactly into charged + hidden.

Acceptance (ISSUE 3): pipelined >= 1.3x over blocking on the process
backend at (s=32, mu=8, P=4), iterate drift <= 1e-9 vs the blocking
reference, and charged + hidden == blocking comm seconds.

The 1.3x bar was set while the blocking side also wrote its ~267 KB
packed Gram into the slab one byte at a time. With that copy a single
buffer copy, the pipeline can hide at most one 2 ms transit per outer
step (16 ms over the 8 outer steps), and the gate reads FAIL on a
2-core host; re-deriving it is an open ROADMAP item.

Wall-clock seconds (best of ``repeats``). Run as a script (not collected
by pytest):

    PYTHONPATH=src python benchmarks/bench_overlap.py

Emits ``BENCH_overlap.json`` at the repo root; CI uploads it as an
artifact and gates PRs via ``benchmarks/check_regression.py`` (with a
looser ratio than the single-process benches — these numbers move with
the runner's core count).
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.utils.io import atomic_write_json  # noqa: E402

from repro.datasets import make_sparse_regression  # noqa: E402
from repro.machine.spec import CRAY_XC30  # noqa: E402
from repro.mpi.process_backend import process_spmd_run  # noqa: E402
from repro.mpi.thread_backend import spmd_run  # noqa: E402
from repro.mpi.virtual_backend import VirtualComm  # noqa: E402
from repro.solvers.lasso import sa_acc_bcd  # noqa: E402
from repro.solvers.svm import sa_dcd  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_overlap.json"

#: emulated per-collective transit (GbE-class allreduce of a ~260 KB
#: packed Gram payload); paid on the critical path by blocking
#: collectives, hidden behind the prefetch by pipelined ones
LATENCY = 2e-3

LAM = 0.01


def _lasso_problem():
    return make_sparse_regression(6000, 1200, density=0.05, seed=2)[:2]


def _svm_problem():
    rng = np.random.default_rng(7)
    import scipy.sparse as sp

    A = sp.random(3000, 900, density=0.05, random_state=7, format="csr")
    b = np.where(rng.standard_normal(3000) > 0, 1.0, -1.0)
    return A, b


def best_of(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best, result = dt, out
    return best, result


def _entry(name: str, before: float, after: float, note: str, **extra) -> dict:
    speedup = before / after if after > 0 else float("inf")
    print(f"{name:44s} before {before * 1e3:9.1f} ms   after {after * 1e3:9.1f} ms"
          f"   speedup {speedup:6.2f}x")
    return {
        "before_seconds": before,
        "after_seconds": after,
        "speedup": speedup,
        "note": note,
        **extra,
    }


# ---------------------------------------------------------------------------
# workload 1: process ranks vs thread ranks (blocking SA solve)
# ---------------------------------------------------------------------------


def bench_backend_parity(P: int = 4) -> dict:
    A, b = _lasso_problem()
    kw = dict(mu=8, s=32, max_iter=256, seed=3, record_every=0)

    def fn(comm, rank):
        sa_acc_bcd(A, b, LAM, comm=comm, **kw)

    thread_t, _ = best_of(lambda: spmd_run(fn, P), repeats=2)
    process_t, _ = best_of(lambda: process_spmd_run(fn, P), repeats=2)
    return _entry(
        f"process vs thread ranks (blocking, P={P})", thread_t, process_t,
        "identical blocking sa-accbcd solve; before = thread ranks (one "
        "GIL for the Python inner loops), after = forked process ranks "
        "(GIL-free). On single-core hosts the process backend pays fork "
        "and inter-process barriers with no parallelism to win back, so "
        "this entry tracks the host's real parallelism honestly",
        cores=os.cpu_count(),
    )


# ---------------------------------------------------------------------------
# workload 2: pipelined vs blocking on the process backend
# ---------------------------------------------------------------------------


def bench_pipeline_lasso(s: int, mu: int, P: int) -> dict:
    A, b = _lasso_problem()
    kw = dict(mu=mu, s=s, max_iter=8 * s, seed=3, record_every=0)

    def run(pipeline):
        def fn(comm, rank):
            return sa_acc_bcd(A, b, LAM, comm=comm, pipeline=pipeline, **kw).x

        return process_spmd_run(fn, P, latency=LATENCY).values[0]

    blocking_t, x_blocking = best_of(lambda: run(False), repeats=2)
    pipelined_t, x_pipelined = best_of(lambda: run(True), repeats=2)
    drift = float(np.max(np.abs(x_blocking - x_pipelined))
                  / max(1e-30, float(np.max(np.abs(x_blocking)))))
    return _entry(
        f"sa-accbcd pipelined (s={s}, mu={mu}, P={P})",
        blocking_t, pipelined_t,
        f"process backend, {LATENCY * 1e3:g} ms emulated transit per "
        "collective; before = blocking Allreduce (2 barriers + transit "
        "on the critical path per outer step; the pickled payload enters "
        "the shared slab in one buffer copy), after = nonblocking "
        "pipelined reduction with the next block prefetched in flight",
        iterate_drift=drift,
    )


def bench_pipeline_svm(s: int, P: int) -> dict:
    A, b = _svm_problem()
    kw = dict(loss="l2", s=s, max_iter=8 * s, seed=5, record_every=0)

    def run(pipeline):
        def fn(comm, rank):
            return sa_dcd(A, b, comm=comm, pipeline=pipeline, **kw).x

        return process_spmd_run(fn, P, latency=LATENCY).values[0]

    blocking_t, x_blocking = best_of(lambda: run(False), repeats=2)
    pipelined_t, x_pipelined = best_of(lambda: run(True), repeats=2)
    drift = float(np.max(np.abs(x_blocking - x_pipelined))
                  / max(1e-30, float(np.max(np.abs(x_blocking)))))
    return _entry(
        f"sa-svm pipelined (s={s}, P={P})", blocking_t, pipelined_t,
        f"process backend, {LATENCY * 1e3:g} ms emulated transit; dual "
        "CD with the s x s row Gram reduced nonblocking and the next row "
        "block prefetched in flight",
        iterate_drift=drift,
    )


# ---------------------------------------------------------------------------
# workload 2b: transit-latency x (s*mu) sweep — where pipelining stops paying
# ---------------------------------------------------------------------------

#: sweep grid: emulated per-collective transit seconds x (s, mu). The
#: pipeline hides at most one collective's transit behind one outer
#: step's prefetch, so its payoff shrinks with the transit and with the
#: amount of local work per outer step (~ s*mu): at tiny s*mu there is
#: almost nothing to overlap with and the double-buffer bookkeeping is
#: pure overhead.
SWEEP_LATENCIES = (0.0, 5e-4, 2e-3)
SWEEP_SMU = ((4, 1), (8, 4), (32, 8))


def bench_latency_sweep(P: int = 2) -> dict:
    """Pipelined/blocking wall ratio over transit x (s*mu), process ranks.

    Cells use a ``ratio`` key (not ``speedup``) deliberately: individual
    cells at zero latency sit near 1.0 with host-dependent jitter, so
    they are recorded for the study but not gated by the regression
    guard.
    """
    A, b = _lasso_problem()
    cells = []
    for latency in SWEEP_LATENCIES:
        for s, mu in SWEEP_SMU:
            kw = dict(mu=mu, s=s, max_iter=6 * s, seed=3, record_every=0)

            def run(pipeline):
                def fn(comm, rank):
                    return sa_acc_bcd(A, b, LAM, comm=comm,
                                      pipeline=pipeline, **kw).x

                return process_spmd_run(fn, P, latency=latency).values[0]

            blocking_t, _ = best_of(lambda: run(False), repeats=2)
            pipelined_t, _ = best_of(lambda: run(True), repeats=2)
            ratio = blocking_t / pipelined_t if pipelined_t > 0 else float("inf")
            print(f"latency {latency * 1e3:4.1f} ms  s={s:3d} mu={mu}  "
                  f"(s*mu={s * mu:4d})  blocking {blocking_t * 1e3:8.1f} ms  "
                  f"pipelined {pipelined_t * 1e3:8.1f} ms  ratio {ratio:5.2f}x")
            cells.append({
                "latency_seconds": latency,
                "s": s,
                "mu": mu,
                "s_mu": s * mu,
                "blocking_seconds": blocking_t,
                "pipelined_seconds": pipelined_t,
                "ratio": ratio,
            })
    # per-latency breakeven: the smallest s*mu whose pipelined run wins
    breakeven = {}
    for latency in SWEEP_LATENCIES:
        winners = [c["s_mu"] for c in cells
                   if c["latency_seconds"] == latency and c["ratio"] >= 1.0]
        breakeven[f"{latency * 1e3:g}ms"] = min(winners) if winners else None
    return {
        "cells": cells,
        "breakeven_s_mu": breakeven,
        "note": "pipelined/blocking wall ratio on the process backend "
                f"(P={P}); ratio >= 1 means pipelining pays. Breakeven "
                "records the smallest s*mu that wins per transit latency. "
                "Tiny outer steps (s*mu ~ 4) hover around 1.0 at every "
                "latency — there is too little prefetchable work per step "
                "to hide the transit behind, and the double-buffer "
                "bookkeeping eats what little is saved. With the blocking "
                "payload entering shared memory in one buffer copy, what "
                "pipelining saves is about one transit per outer step: on "
                "a 2-core VM s*mu = 256 measured 1.14-1.25x at 2 ms and "
                "1.00-1.11x at 0-0.5 ms. See README 'When does pipelining "
                "pay?'",
    }


# ---------------------------------------------------------------------------
# workload 3: modelled ledger honesty (no wall clock, no "speedup" key)
# ---------------------------------------------------------------------------


def bench_ledger_honesty(P: int = 1024) -> dict:
    A, b = _lasso_problem()
    kw = dict(mu=8, s=32, max_iter=256, seed=3, record_every=0)
    blocking = sa_acc_bcd(A, b, LAM, comm=VirtualComm(P, machine=CRAY_XC30), **kw)
    pipelined = sa_acc_bcd(A, b, LAM, comm=VirtualComm(P, machine=CRAY_XC30),
                           pipeline=True, **kw)
    recon = pipelined.cost.comm_seconds + pipelined.cost.comm_seconds_hidden
    ok = (
        pipelined.cost.messages == blocking.cost.messages
        and abs(pipelined.cost.words - blocking.cost.words) < 1e-6
        and pipelined.cost.comm_seconds_hidden > 0.0
        and abs(recon - blocking.cost.comm_seconds)
        <= 1e-12 * max(1.0, blocking.cost.comm_seconds)
    )
    print(f"{'modelled ledger (virtual P=%d)' % P:44s} blocking comm "
          f"{blocking.cost.comm_seconds * 1e3:.3f} ms = charged "
          f"{pipelined.cost.comm_seconds * 1e3:.3f} ms + hidden "
          f"{pipelined.cost.comm_seconds_hidden * 1e3:.3f} ms  "
          f"[{'OK' if ok else 'MISMATCH'}]")
    return {
        "virtual_p": P,
        "blocking_comm_seconds": blocking.cost.comm_seconds,
        "pipelined_comm_seconds": pipelined.cost.comm_seconds,
        "pipelined_comm_seconds_hidden": pipelined.cost.comm_seconds_hidden,
        "messages": pipelined.cost.messages,
        "charged_plus_hidden_equals_blocking": bool(ok),
        "note": "pipeline charges only the unoverlapped latency remainder; "
                "traffic (messages/words) and flops are identical",
    }


def main() -> int:
    print("overlap: before = thread/blocking, after = process/pipelined\n")
    backend = {"process_vs_thread_P4": bench_backend_parity(4)}
    pipeline = {
        "lasso_s32_mu8_P4": bench_pipeline_lasso(32, 8, 4),
        "lasso_s16_mu4_P2": bench_pipeline_lasso(16, 4, 2),
        "svm_s32_P4": bench_pipeline_svm(32, 4),
    }
    print()
    latency_sweep = bench_latency_sweep(2)
    ledger = bench_ledger_honesty(1024)
    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "machine": platform.machine(),
            "cores": os.cpu_count(),
            "latency_emulated_seconds": LATENCY,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "backend": backend,
        "pipeline": pipeline,
        "latency_sweep": latency_sweep,
        "ledger": ledger,
    }
    atomic_write_json(OUT_PATH, payload)
    print(f"\nwrote {OUT_PATH}")

    # acceptance gates (ISSUE 3): pipelined >= 1.3x over blocking on the
    # process backend at (s=32, mu=8, P=4); iterate drift <= 1e-9; the
    # modelled ledger reconstructs the blocking comm bill exactly
    gate = pipeline["lasso_s32_mu8_P4"]
    ok = (
        gate["speedup"] >= 1.3
        and all(e["iterate_drift"] <= 1e-9 for e in pipeline.values())
        and ledger["charged_plus_hidden_equals_blocking"]
    )
    print("acceptance:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
