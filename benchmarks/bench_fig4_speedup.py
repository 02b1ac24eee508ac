"""Figure 4e-4h — total / communication / computation speedup vs s.

For each dataset at its largest paper P, sweeps the unrolling parameter
and prints the three speedup components of SA-accCD over accCD, plus the
communication-reduction factors the paper's conclusion cites (4.2x-10.9x).

Success criteria: the total-speedup curve is unimodal in s (rises,
peaks at a moderate s, falls when the s^2 bandwidth/flop terms bite) and
the communication speedup eventually decays from its peak.
"""

from __future__ import annotations

from conftest import banner, report
from repro.experiments.runner import load_scaled, speedup_vs_s
from repro.utils.tables import format_table

CASES = [
    ("news20", 768, [2, 4, 8, 16, 32, 64, 128]),
    ("covtype", 3072, [2, 4, 8, 16, 32, 64]),
    ("url", 12288, [2, 4, 8, 16, 32, 64, 128, 256, 512]),
    ("epsilon", 12288, [2, 4, 8, 16, 32, 64, 128, 256]),
]

H = 512


def fig4_speedups():
    results = {}
    for name, P, s_values in CASES:
        ds = load_scaled(name, target_cells=20_000.0, seed=0)
        pts = speedup_vs_s(ds, "acccd", "sa-acccd", s_values, P=P,
                           max_iter=H)
        banner(f"Figure 4 speedup breakdown ({name}; P = {P})")
        rows = [
            [p.s, f"{p.total:.2f}", f"{p.communication:.2f}",
             f"{p.computation:.2f}"]
            for p in pts
        ]
        report(format_table(["s", "total", "communication", "computation"],
                            rows))
        best = max(pts, key=lambda p: p.total)
        report(f"  best: s={best.s} total={best.total:.2f}x "
               f"comm={best.communication:.2f}x  "
               f"(paper conclusion: totals 1.2x-5.1x, comm 4.2x-10.9x)")
        results[name] = pts
    return results


def test_fig4_speedup_vs_s(benchmark):
    results = benchmark.pedantic(fig4_speedups, rounds=1, iterations=1)
    for name, pts in results.items():
        totals = [p.total for p in pts]
        comms = [p.communication for p in pts]
        peak = max(totals)
        peak_idx = totals.index(peak)
        # unimodal total speedup with an interior peak
        assert peak > totals[0], f"{name}: no gain over s=2"
        assert totals[-1] < peak, f"{name}: speedup should decay at large s"
        # rising up to the peak
        assert all(a <= b * 1.05 for a, b in zip(totals[:peak_idx],
                                                 totals[1:peak_idx + 1],
                                                 strict=True))
        # headline range: the peak sits within ~2x of the paper's 1.2-5.1x
        assert 1.2 < peak < 12.0, f"{name}: peak {peak}"
        # communication reduction in/above the paper's 4.2-10.9x band
        assert max(comms) > 4.0, f"{name}: comm reduction {max(comms)}"
