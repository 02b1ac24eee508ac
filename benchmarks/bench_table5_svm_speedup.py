"""Table V — SA-SVM-L1 running time and speedup over SVM-L1.

Paper setting: duality-gap tolerance 1e-1, lambda = 1, best offline
(P, s) combinations: news20.binary (P=576, s=64, 2.1x), rcv1.binary
(P=240, s=64, 1.4x), gisette (P=3072, s=128, 4x). We time both solvers
to the same gap tolerance under the modelled clock; rcv1/news20 carry a
straggler factor (imbalance=1.5) mirroring the load-balance issue the
paper reports for their 1D-column conversion of row-stored files.

Success criterion: SA-SVM-L1 wins on every dataset, same order of
magnitude as the paper's 1.4x-4x.
"""

from __future__ import annotations

from conftest import banner, report
from repro.experiments.runner import load_scaled
from repro.machine.spec import CRAY_XC30
from repro.mpi.virtual_backend import VirtualComm
from repro.solvers.svm import dcd, sa_dcd
from repro.utils.tables import format_table

#: (dataset, P, s, paper speedup, straggler factor)
CASES = [
    ("news20.binary", 576, 64, 2.1, 1.5),
    ("rcv1.binary", 240, 64, 1.4, 1.5),
    ("gisette", 3072, 128, 4.0, 1.0),
]

GAP_TOL = 1e-1
H_MAX = 20_000
#: a multiple of every case's s: SA-SVM records at outer-step
#: boundaries, so both solvers check the gap at the same iterations
RECORD = 256


def _run(ds, P, s, imbalance):
    def make_comm():
        return VirtualComm(
            virtual_size=P,
            machine=CRAY_XC30,
            flop_scale=ds.flop_scale,
            kind_scales=ds.kind_scales,
            imbalance=imbalance,
        )

    base = dcd(ds.A, ds.b, loss="l1", lam=1.0, max_iter=H_MAX, seed=7,
               comm=make_comm(), tol=GAP_TOL, record_every=RECORD)
    sa = sa_dcd(ds.A, ds.b, loss="l1", lam=1.0, s=s, max_iter=H_MAX, seed=7,
                comm=make_comm(), tol=GAP_TOL, record_every=RECORD)
    return base, sa


def table5():
    rows = []
    outcomes = {}
    for name, P, s, paper_speedup, imbalance in CASES:
        ds = load_scaled(name, target_cells=20_000.0, seed=0)
        base, sa = _run(ds, P, s, imbalance)
        speedup = base.cost.seconds / sa.cost.seconds
        rows.append(
            [
                name,
                P,
                f"SVM-L1: {base.cost.seconds * 1e3:.4g} ms "
                f"({base.iterations} iters)",
                f"SA-SVM-L1 (s={s}): {sa.cost.seconds * 1e3:.4g} ms",
                f"{speedup:.2f}x",
                f"{paper_speedup}x",
            ]
        )
        outcomes[name] = (base, sa, speedup)
    banner(f"Table V — SA-SVM-L1 speedups (duality-gap tol = {GAP_TOL})")
    report(format_table(
        ["Dataset", "P", "SVM-L1", "SA-SVM-L1", "speedup (ours)", "paper"],
        rows,
    ))
    return outcomes


def test_table5_svm_speedups(benchmark):
    outcomes = benchmark.pedantic(table5, rounds=1, iterations=1)
    for name, (base, sa, speedup) in outcomes.items():
        # both reached the tolerance (same iterate sequence => same H)
        assert base.converged and sa.converged, name
        assert base.iterations == sa.iterations, name
        # SA wins, same order as the paper's 1.4x-4x
        assert 1.1 < speedup < 12.0, f"{name}: {speedup:.2f}x"
