"""Tables II and IV — dataset summaries, plus our scaled stand-ins.

Prints the paper's rows verbatim from the registry and the properties of
the synthetic stand-ins the other benches run on (dimensions, density —
the quantities the substitution must preserve).
"""

from __future__ import annotations

from conftest import banner, report
from repro.datasets.registry import LASSO_DATASETS, SVM_DATASETS
from repro.experiments.runner import load_scaled
from repro.utils.tables import format_table
from repro.utils.validation import nnz_of


def _paper_rows(specs):
    return [
        [d.name, f"{d.features:,}", f"{d.points:,}", d.nnz_pct]
        for d in specs
    ]


def _standin_rows(specs):
    rows = []
    for d in specs:
        ds = load_scaled(d.name, target_cells=20_000.0, seed=0)
        m, n = ds.shape
        dens = 100.0 * nnz_of(ds.A) / (m * n)
        rows.append(
            [d.name, n, m, f"{dens:.3g}", f"{ds.flop_scale:.3g}",
             f"{ds.gather_scale:.3g}"]
        )
    return rows


def tables():
    banner("Table II — Lasso datasets (as published)")
    report(format_table(["Name", "Features", "Data Points", "NNZ%"],
                        _paper_rows(LASSO_DATASETS)))
    banner("Table IV — SVM datasets (as published)")
    report(format_table(["Name", "Features", "Data Points", "NNZ%"],
                        _paper_rows(SVM_DATASETS)))
    banner("Synthetic stand-ins used by this harness (README: Paper-figure benchmarks)")
    report(
        format_table(
            ["Name", "Features", "Data Points", "NNZ%", "flop scale",
             "gather scale"],
            _standin_rows(LASSO_DATASETS + SVM_DATASETS),
        )
    )
    return True


def test_table2_and_4_datasets(benchmark):
    assert benchmark.pedantic(tables, rounds=1, iterations=1)
