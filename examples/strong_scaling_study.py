#!/usr/bin/env python3
"""Fig.-4-style strong-scaling study on any registry dataset.

Sweeps virtual processor counts and the unrolling parameter s for one of
the paper's datasets (scaled stand-in), printing the strong-scaling
table and the speedup breakdown — the workflow behind Figures 4a-4h.

Run:  python examples/strong_scaling_study.py [dataset] [solver]
      e.g. python examples/strong_scaling_study.py covtype acccd
"""

import sys

from repro.experiments import load_scaled, speedup_vs_s, strong_scaling
from repro.utils.tables import format_table


def main(dataset: str = "covtype", solver: str = "acccd") -> None:
    sa_solver = "sa-" + solver
    ds = load_scaled(dataset, target_cells=30_000, seed=0)
    m, n = ds.shape
    print(f"dataset {dataset}: stand-in {m}x{n} "
          f"(flop scale {ds.flop_scale:.0f}x, gather scale {ds.gather_scale:.0f}x)")

    Ps = [192, 768, 3072, 12288]
    H = 384
    base = strong_scaling(ds, solver, Ps, max_iter=H)
    sa = strong_scaling(ds, sa_solver, Ps, s=16, max_iter=H)
    rows = [
        [p0.P, f"{p0.seconds * 1e3:.3f}", f"{p1.seconds * 1e3:.3f}",
         f"{p0.seconds / p1.seconds:.2f}x"]
        for p0, p1 in zip(base, sa)
    ]
    print()
    print(format_table(
        ["P", f"{solver} (ms)", f"{sa_solver} s=16 (ms)", "speedup"],
        rows,
        title=f"strong scaling, H={H} iterations (modelled Cray XC30 time)",
    ))

    P_star = Ps[-1]
    pts = speedup_vs_s(ds, solver, sa_solver,
                       [2, 4, 8, 16, 32, 64, 128, 256], P=P_star,
                       max_iter=H)
    rows = [
        [p.s, f"{p.total:.2f}x", f"{p.communication:.2f}x",
         f"{p.computation:.2f}x"]
        for p in pts
    ]
    print()
    print(format_table(
        ["s", "total", "communication", "computation"],
        rows,
        title=f"speedup of {sa_solver} over {solver} at P={P_star}",
    ))
    best = max(pts, key=lambda p: p.total)
    print(f"\nbest setting: s={best.s} -> {best.total:.2f}x total speedup "
          f"(the paper reports 1.2x-5.1x across datasets)")


if __name__ == "__main__":
    main(*sys.argv[1:3])
