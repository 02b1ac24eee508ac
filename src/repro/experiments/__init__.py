"""Experiment harness: paper figures/tables as reusable sweeps."""

from repro.experiments.runner import (
    ScaledDataset,
    ScalingPoint,
    SpeedupPoint,
    load_scaled,
    run_lasso,
    run_svm,
    speedup_vs_s,
    strong_scaling,
)
from repro.experiments.theory import (
    TheoreticalCosts,
    accbcd_costs,
    best_s,
    predicted_speedup,
    svm_dcd_costs,
)

__all__ = [
    "TheoreticalCosts",
    "accbcd_costs",
    "svm_dcd_costs",
    "predicted_speedup",
    "best_s",
    "ScaledDataset",
    "load_scaled",
    "run_lasso",
    "run_svm",
    "strong_scaling",
    "speedup_vs_s",
    "ScalingPoint",
    "SpeedupPoint",
]
