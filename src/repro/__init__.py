"""repro — Synchronization-Avoiding first-order methods for sparse convex
optimization.

A production-quality Python reproduction of

    A. Devarakonda, K. Fountoulakis, J. Demmel, M. W. Mahoney,
    "Avoiding Synchronization in First-Order Methods for Sparse Convex
    Optimization", IEEE IPDPS 2018 (arXiv:1712.06047).

Quick start
-----------
>>> import numpy as np
>>> from repro import fit_lasso, fit_svm
>>> from repro.datasets import make_sparse_regression
>>> A, b, _ = make_sparse_regression(200, 100, density=0.2, seed=0)
>>> res = fit_lasso(A, b, lam=0.1, solver="sa-accbcd", s=16, max_iter=500)
>>> res.x.shape
(100,)

Package layout (see README's "Layout"):

* :mod:`repro.solvers` — the paper's algorithms (Alg. 1-4) + baselines;
* :mod:`repro.mpi` — simulated MPI (thread SPMD + virtual-P backends);
* :mod:`repro.machine` — alpha-beta-gamma cost model (Cray XC30 preset);
* :mod:`repro.linalg` — partitions, distributed Gram kernels;
* :mod:`repro.prox` — proximal operators / penalties;
* :mod:`repro.datasets` — LIBSVM IO + shape-matched synthetic generators;
* :mod:`repro.experiments` — the figure/table reproduction harness.
"""

from repro._api import fit_lasso, fit_svm
from repro.errors import ReproError
from repro.estimators import SALasso, SALassoCV, SASVMClassifier, SASVMClassifierCV
from repro.path import PathResult, SweepContext, adaptive_schedule, lasso_path, svm_path
from repro.prox import ElasticNetPenalty, GroupLassoPenalty, L1Penalty
from repro.solvers.base import SolverResult
from repro.solvers.outer import Schedule
from repro.streaming import DataRevision, StreamingSweep, replay_schedule

__version__ = "1.1.0"

__all__ = [
    "fit_lasso",
    "fit_svm",
    "Schedule",
    "lasso_path",
    "svm_path",
    "adaptive_schedule",
    "SweepContext",
    "PathResult",
    "StreamingSweep",
    "DataRevision",
    "replay_schedule",
    "SALasso",
    "SALassoCV",
    "SASVMClassifier",
    "SASVMClassifierCV",
    "ReproError",
    "L1Penalty",
    "ElasticNetPenalty",
    "GroupLassoPenalty",
    "SolverResult",
    "__version__",
]
