"""Optimality certificates on degenerate inputs, for every registry solver.

Each solver name in the registry (``repro._api.SOLVERS``) solves a set
of degenerate problems through ``fit_lasso``/``fit_svm``, and a numpy
oracle that shares no code with the solvers certifies the answer:

* **Lasso** — the relative duality gap at the rescaled residual (Fercoq,
  Gramfort & Salmon, ICML 2015): with ``r = b - Ax`` and the dual point
  ``theta = r / max(1, ||A^T r||_inf / lam)``, the gap ``P(x) - D(theta)``
  over ``P(x)``, where ``P(x) = 0.5||r||^2 + lam ||x||_1`` and
  ``D(theta) = 0.5||b||^2 - 0.5||b - theta||^2``. The gap, not sign-KKT
  on the support: the accelerated iterates ``theta^2 y + z`` are not
  exactly sparse, so a 1e-7 entry where the optimum is 0 would read as a
  large sign violation while the objective is right.
* **SVM** — ``0 <= alpha <= nu`` and the relative duality gap of the
  dual problem of Hsieh et al. (ICML 2008), with the primal rebuilt from
  ``alpha`` as ``w = A^T (b * alpha)``.

The cases: one empty column plus one duplicated column; ``n = 1``; the
data scaled by 1e-150; for Lasso ``lam = 2 lam_max``, where ``x`` must be
exactly 0; single-class SVM labels; one row (Lasso) or one column (SVM)
on 2 thread ranks, so one rank holds nothing. A name added to the
registry is covered here without edits.

Budgets and bounds come from measurements: Lasso runs 500 iterations
(``mu = 2``, or 1 when ``n = 1``; ``s = 4``; ``lam = 0.3 lam_max``),
where the plain families reach gaps at rounding level (at most 4.6e-16)
and the accelerated ones, which converge slowly here, at most 2.0e-5 on
the 30 x 10 matrices and 5.8e-4 on one row over 2 ranks (``acccd``;
``accbcd`` reads 1.5e-7 and 2.1e-5). SVM runs 1,000 iterations at
``lam = 0.1`` on separable labels and reads at most 2.2e-8, and 1.7e-6
on single-class labels, with ``alpha`` inside the box. Each bound is
about 20-50x its measured worst.
"""

import numpy as np
import pytest

from repro import fit_lasso, fit_svm
from repro._api import SOLVERS, check_solver

REGISTRY = [(task, name) for task, names in SOLVERS.items() for name in names]

#: relative-gap bounds by case: (plain, accelerated) for Lasso
LASSO_BOUND = {"matrix": (1e-12, 5e-4), "one-row": (1e-12, 1e-2)}
SVM_BOUND = {"separable": 1e-6, "single-class": 1e-4}


def lasso_rel_gap(A, b, x, lam) -> float:
    r = b - A @ x
    primal = 0.5 * r @ r + lam * np.abs(x).sum()
    theta = r / max(1.0, np.abs(A.T @ r).max() / lam)
    dual = 0.5 * b @ b - 0.5 * (b - theta) @ (b - theta)
    return (primal - dual) / primal


def svm_rel_gap(A, y, alpha, lam, loss) -> float:
    w = A.T @ (y * alpha)
    hinge = np.maximum(1.0 - y * (A @ w), 0.0)
    if loss == "l1":
        primal = 0.5 * w @ w + lam * hinge.sum()
        dual = alpha.sum() - 0.5 * w @ w
    else:
        primal = 0.5 * w @ w + lam * (hinge ** 2).sum()
        dual = alpha.sum() - 0.5 * w @ w - alpha @ alpha / (4.0 * lam)
    return (primal - dual) / primal


def _matrix(m=30, n=10, seed=0):
    """A dense m x n matrix with column 3 empty and column 7 a copy of
    column 2."""
    A = np.random.default_rng(seed).standard_normal((m, n))
    A[:, 3] = 0.0
    A[:, 7] = A[:, 2]
    return A


def _lasso_cases():
    rng = np.random.default_rng(1)
    A = _matrix()
    b = rng.standard_normal(30)
    yield "empty+dup", A, b, 0.3, {}
    yield "n=1", A[:, :1].copy(), b, 0.3, {}
    yield "scaled-1e-150", A * 1e-150, b * 1e-150, 0.3, {}
    yield "2*lam_max", A, b, 2.0, {}
    yield "one-row", A[:1].copy(), b[:1].copy(), 0.3, dict(backend="thread",
                                                           ranks=2)


def _svm_cases():
    A = _matrix(seed=3)
    # separable labels: the side of a random hyperplane
    y = np.where(A @ np.random.default_rng(2).standard_normal(10) >= 0.0,
                 1.0, -1.0)
    yield "empty+dup", A, y, {}
    yield "n=1", A[:, :1].copy(), y, {}
    yield "scaled-1e-150", A * 1e-150, y, {}
    yield "single-class", A, np.ones(30), {}
    yield "one-column", A[:, :1].copy(), y, dict(backend="thread", ranks=2)


@pytest.mark.parametrize("task,name", REGISTRY, ids=[n for _, n in REGISTRY])
def test_certificate_on_degenerate_inputs(task, name):
    sa = check_solver(name, task)
    common = dict(solver=name, s=4, seed=0, record_every=0)
    if task == "lasso":
        accelerated = "acc" in name
        for case, A, b, factor, backend in _lasso_cases():
            lam = factor * np.abs(A.T @ b).max()
            res = fit_lasso(A, b, lam, mu=min(2, A.shape[1]), max_iter=500,
                            **common, **backend)
            assert res.x.shape == (A.shape[1],), case
            if factor > 1.0:
                assert np.all(res.x == 0.0), (case, res.x)
            bound = LASSO_BOUND["one-row" if case == "one-row" else "matrix"]
            gap = lasso_rel_gap(A, b, res.x, lam)
            assert -1e-12 <= gap <= bound[accelerated], (case, gap)
        return
    for loss in ("l1", "l2"):
        nu = 0.1 if loss == "l1" else np.inf
        for case, A, y, backend in _svm_cases():
            res = fit_svm(A, y, loss=loss, lam=0.1, max_iter=1000, **common,
                          **backend)
            alpha = res.extras["alpha"]
            assert np.all(alpha >= 0.0) and np.all(alpha <= nu), (case, loss)
            np.testing.assert_allclose(res.x, A.T @ (y * alpha), rtol=1e-9,
                                       atol=1e-300)
            gap = svm_rel_gap(A, y, alpha, 0.1, loss)
            bound = SVM_BOUND["single-class" if case == "single-class"
                              else "separable"]
            assert -1e-12 <= gap <= bound, (case, loss, sa, gap)
