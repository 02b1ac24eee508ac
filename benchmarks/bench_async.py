"""Bounded-staleness asynchrony benchmark: async SA solvers vs their
pipelined references, on real multi-process parallelism with emulated
transit latency.

The pipelined mode hides at most **one** collective's transit behind one
outer step's prefetch: when the transit exceeds the compute per outer
step (~ s*mu block work), the remainder lands back on the critical path.
The async mode keeps up to ``tau + 1`` reductions in flight and harvests
the oldest, so a reduction has had ``tau`` outer steps of wall-clock to
complete before anyone waits on it — per-step transit cost drops from
``max(0, L - c)`` towards ``~L / (tau + 1)``. The price is words, not
accuracy: each post carries the cross Grams of its block with the
``tau`` blocks stepped before its harvest (``~tau * (s*mu)^2`` words),
which bring its projections up to date, so the iterates equal the
synchronous path's to rounding (``tests/test_async.py``) and the
messages stay identical.

Three workloads:

* **async vs pipelined** — the gated crossover cells: sa-accbcd and
  sa-svm at high transit latency and small s*mu (little compute to hide
  a transit behind), process backend. This is where pipelining stops
  paying and staleness starts.
* **latency x s*mu x tau sweep** — ``ratio`` cells (not gated) mapping
  where async beats pipelined: payoff grows with transit latency and
  tau, shrinks with s*mu.
* **ledger honesty** — modelled costs at virtual P: the async run must
  charge blocking's messages, blocking's words plus the cross Grams'
  exactly, and split the blocking price of its messages exactly into
  charged + hidden + stale.

Acceptance (ISSUE 9): async >= 1.2x over pipelined in at least one
high-latency/small-s*mu cell, and the modelled three-way ledger split
reconstructs the blocking comm bill exactly.

Wall-clock seconds (best of ``repeats``). Run as a script (not collected
by pytest):

    PYTHONPATH=src python benchmarks/bench_async.py

Emits ``BENCH_async.json`` at the repo root; CI uploads it as an
artifact and gates PRs via ``benchmarks/check_regression.py`` (with a
generous ratio — these numbers move with the runner's core count and
sleep granularity).
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
from repro.mpi.thread_backend import NB_RING_DEPTH  # noqa: E402
from repro.mpi.virtual_backend import VirtualComm  # noqa: E402
from repro.solvers.lasso import sa_acc_bcd  # noqa: E402
from repro.solvers.svm import sa_dcd  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_async.json"

#: emulated per-collective transit for the gated crossover cells —
#: deliberately high (WAN/congested-fabric class) relative to the tiny
#: s*mu outer step, the regime the async mode exists for
LATENCY_HIGH = 4e-3

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


def _nb_depth(tau: int) -> int:
    return max(NB_RING_DEPTH, tau + 2)


# ---------------------------------------------------------------------------
# workload 1: async vs pipelined at the crossover (gated)
# ---------------------------------------------------------------------------


def bench_async_lasso(s: int, mu: int, tau: int, P: int,
                      latency: float = LATENCY_HIGH) -> dict:
    A, b = _lasso_problem()
    kw = dict(mu=mu, s=s, max_iter=40 * s, seed=3, record_every=0)

    def run(**mode):
        def fn(comm, rank):
            return sa_acc_bcd(A, b, LAM, comm=comm, **mode, **kw).final_metric

        return process_spmd_run(
            fn, P, latency=latency, nb_depth=_nb_depth(tau)
        ).values[0]

    pipelined_t, obj_pipelined = best_of(lambda: run(pipeline=True), repeats=2)
    async_t, obj_async = best_of(lambda: run(async_=True, tau=tau), repeats=2)
    drift = abs(obj_async - obj_pipelined) / max(1e-30, abs(obj_pipelined))
    return _entry(
        f"sa-accbcd async tau={tau} (s={s}, mu={mu}, P={P})",
        pipelined_t, async_t,
        f"process backend, {latency * 1e3:g} ms emulated transit per "
        "collective; before = pipelined (one reduction in flight, waits "
        "out the transit remainder every outer step), after = async with "
        f"tau={tau} reductions in flight stepping on the oldest "
        "(staleness-bounded) one. Same iteration budget; objective_drift "
        "records the relative final-objective gap the staleness costs",
        objective_drift=drift,
        latency_seconds=latency,
    )


def bench_async_svm(s: int, tau: int, P: int,
                    latency: float = LATENCY_HIGH) -> dict:
    A, b = _svm_problem()
    kw = dict(loss="l2", s=s, max_iter=40 * s, seed=5, record_every=0)

    def run(**mode):
        def fn(comm, rank):
            return sa_dcd(A, b, comm=comm, **mode, **kw).final_metric

        return process_spmd_run(
            fn, P, latency=latency, nb_depth=_nb_depth(tau)
        ).values[0]

    pipelined_t, gap_pipelined = best_of(lambda: run(pipeline=True), repeats=2)
    async_t, gap_async = best_of(lambda: run(async_=True, tau=tau), repeats=2)
    factor = gap_async / max(1e-30, gap_pipelined)
    return _entry(
        f"sa-svm async tau={tau} (s={s}, P={P})", pipelined_t, async_t,
        f"process backend, {latency * 1e3:g} ms emulated transit; dual CD "
        f"stepping on row Gram reductions up to tau={tau} outer steps "
        "stale. gap_factor records the final duality-gap ratio vs the "
        "pipelined run at the same budget",
        gap_factor=factor,
        latency_seconds=latency,
    )


# ---------------------------------------------------------------------------
# workload 2: latency x s*mu x tau sweep — where async beats pipelined
# ---------------------------------------------------------------------------

SWEEP_LATENCIES = (0.0, 1e-3, 4e-3)
SWEEP_SMU = ((4, 1), (8, 4), (32, 8))
SWEEP_TAUS = (1, 4)


def bench_latency_sweep(P: int = 2) -> dict:
    """Async/pipelined wall ratio over transit x (s*mu) x tau.

    Cells use a ``ratio`` key (not ``speedup``) deliberately: zero- and
    low-latency cells sit near or below 1.0 with host-dependent jitter,
    so they are recorded for the study but not gated by the regression
    guard.
    """
    A, b = _lasso_problem()
    cells = []
    for latency in SWEEP_LATENCIES:
        for s, mu in SWEEP_SMU:
            # 20 outer steps: enough steady state for tau=4 to amortise
            # its warmup/drain (at ~6 outer steps the ring barely fills)
            kw = dict(mu=mu, s=s, max_iter=20 * s, seed=3, record_every=0)

            def run(depth_tau, **mode):
                def fn(comm, rank):
                    return sa_acc_bcd(A, b, LAM, comm=comm, **mode, **kw).x

                return process_spmd_run(
                    fn, P, latency=latency, nb_depth=_nb_depth(depth_tau)
                ).values[0]

            pipelined_t, _ = best_of(lambda: run(0, pipeline=True), repeats=2)
            for tau in SWEEP_TAUS:
                async_t, _ = best_of(
                    lambda: run(tau, async_=True, tau=tau), repeats=2)
                ratio = pipelined_t / async_t if async_t > 0 else float("inf")
                print(f"latency {latency * 1e3:4.1f} ms  s={s:3d} mu={mu}  "
                      f"(s*mu={s * mu:4d})  tau={tau}  pipelined "
                      f"{pipelined_t * 1e3:8.1f} ms  async "
                      f"{async_t * 1e3:8.1f} ms  ratio {ratio:5.2f}x")
                cells.append({
                    "latency_seconds": latency,
                    "s": s,
                    "mu": mu,
                    "s_mu": s * mu,
                    "tau": tau,
                    "pipelined_seconds": pipelined_t,
                    "async_seconds": async_t,
                    "ratio": ratio,
                })
    # per-latency crossover: the largest s*mu where async still wins
    crossover = {}
    for latency in SWEEP_LATENCIES:
        winners = [c["s_mu"] for c in cells
                   if c["latency_seconds"] == latency and c["ratio"] >= 1.0]
        crossover[f"{latency * 1e3:g}ms"] = max(winners) if winners else None
    return {
        "cells": cells,
        "crossover_s_mu": crossover,
        "note": "async/pipelined wall ratio on the process backend "
                f"(P={P}); ratio >= 1 means staleness pays. Crossover "
                "records the largest s*mu that still wins per transit "
                "latency. At zero latency async is pure bookkeeping "
                "overhead (ratio <= ~1); at high latency and small s*mu "
                "the pipeline has nothing to hide a transit behind while "
                "tau in-flight reductions amortise it. See README 'When "
                "does async beat pipelining?'",
    }


# ---------------------------------------------------------------------------
# workload 3: modelled ledger honesty (no wall clock, no "speedup" key)
# ---------------------------------------------------------------------------


def bench_ledger_honesty(P: int = 1024, tau: int = 4) -> dict:
    A, b = _lasso_problem()
    kw = dict(mu=8, s=32, max_iter=256, seed=3, record_every=0)
    blocking = sa_acc_bcd(A, b, LAM, comm=VirtualComm(P, machine=CRAY_XC30),
                          **kw)
    anc = sa_acc_bcd(A, b, LAM, comm=VirtualComm(P, machine=CRAY_XC30),
                     async_=True, tau=tau, **kw)
    # post j carries the cross Grams of its k = s*mu columns with each of
    # the min(j, tau) blocks before it: sum_posts k_j * sum_lags k_{j-i}
    # words, once per tree round
    k, posts = kw["s"] * kw["mu"], kw["max_iter"] // kw["s"]
    cross_words = np.log2(P) * sum(k * k * min(j, tau) for j in range(posts))
    # the blocking price of the async messages: the same messages, the
    # cross Grams' words on top
    price = blocking.cost.comm_seconds + CRAY_XC30.beta * cross_words
    recon = (anc.cost.comm_seconds + anc.cost.comm_seconds_hidden
             + anc.cost.stale_seconds)
    ok = (
        anc.cost.messages == blocking.cost.messages
        and abs(anc.cost.words - blocking.cost.words - cross_words) < 1e-6
        and anc.cost.stale_seconds > 0.0
        and anc.cost.max_staleness == tau
        and abs(recon - price) <= 1e-12 * max(1.0, price)
    )
    print(f"{'modelled ledger (virtual P=%d, tau=%d)' % (P, tau):44s} "
          f"blocking price {price * 1e3:.3f} ms = "
          f"charged {anc.cost.comm_seconds * 1e3:.3f} ms + hidden "
          f"{anc.cost.comm_seconds_hidden * 1e3:.3f} ms + stale "
          f"{anc.cost.stale_seconds * 1e3:.3f} ms  "
          f"[{'OK' if ok else 'MISMATCH'}]")
    return {
        "virtual_p": P,
        "tau": tau,
        "blocking_comm_seconds": blocking.cost.comm_seconds,
        "blocking_price_of_async_messages": price,
        "cross_gram_words": cross_words,
        "async_comm_seconds": anc.cost.comm_seconds,
        "async_comm_seconds_hidden": anc.cost.comm_seconds_hidden,
        "async_stale_seconds": anc.cost.stale_seconds,
        "max_staleness": anc.cost.max_staleness,
        "messages": anc.cost.messages,
        "three_way_split_equals_blocking": bool(ok),
        "note": "async charges only the genuinely exposed latency; the "
                "remainder splits into hidden (overlapped with compute) "
                "and stale (overlapped past the pipelined window). "
                "Messages are blocking's; words add the cross Grams that "
                "keep the iterates exact, priced in full",
    }


def main() -> int:
    print("async: before = pipelined (one in flight), "
          "after = async bounded staleness\n")
    crossover = {
        "lasso_s4_mu1_tau4_P2": bench_async_lasso(4, 1, 4, 2),
        "lasso_s8_mu4_tau4_P2": bench_async_lasso(8, 4, 4, 2),
        "svm_s4_tau4_P2": bench_async_svm(4, 4, 2),
    }
    print()
    latency_sweep = bench_latency_sweep(2)
    ledger = bench_ledger_honesty(1024, 4)
    payload = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "machine": platform.machine(),
            "cores": os.cpu_count(),
            "latency_emulated_seconds": LATENCY_HIGH,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "crossover": crossover,
        "latency_sweep": latency_sweep,
        "ledger": ledger,
    }
    atomic_write_json(OUT_PATH, payload)
    print(f"\nwrote {OUT_PATH}")

    # acceptance gates (ISSUE 9): async >= 1.2x over pipelined in at
    # least one high-latency/small-s*mu cell, and the modelled ledger
    # splits the blocking comm bill exactly three ways
    ok = (
        any(e["speedup"] >= 1.2 for e in crossover.values())
        and ledger["three_way_split_equals_blocking"]
    )
    print("acceptance:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
