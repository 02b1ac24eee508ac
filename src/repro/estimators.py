"""Scikit-learn-style estimator wrappers.

``SALasso`` and ``SASVMClassifier`` expose the paper's solvers through
the fit/predict/score conventions downstream ML code expects, without
depending on scikit-learn itself. Hyper-parameters mirror the paper's
tuning knobs: block size ``mu``, unrolling ``s``, and the solver family.
"""

from __future__ import annotations

import numpy as np

from repro._api import fit_lasso, fit_svm
from repro.errors import PartitionError, SolverError
from repro.path import PathResult, lambda_grid, lasso_path, svm_path
from repro.solvers.objectives import lambda_max
from repro.solvers.outer import Schedule
from repro.solvers.svm.duality import prediction_accuracy
from repro.streaming import StreamingSweep

__all__ = ["SALasso", "SALassoCV", "SASVMClassifier", "SASVMClassifierCV"]


class _FittedMixin:
    def _check_batch_appendable(self, X, y) -> None:
        """Reject a shape-incompatible partial_fit batch *before* any
        state mutation (a forget= eviction must not fire if the append
        that follows it is doomed)."""
        n = self.stream_.dist.shape[1]
        if X.shape[0] > 0 and X.shape[1] != n:
            raise PartitionError(
                f"appended rows must have {n} columns, got {X.shape[1]}"
            )
        k = np.asarray(y).ravel().shape[0]
        if k != X.shape[0]:
            raise SolverError(
                f"labels must match the batch: got {k} labels for "
                f"{X.shape[0]} rows"
            )

    def _stream_partial_fit(self, X, b, forget, build_engine):
        """The shared partial_fit sequence over the streaming engine:
        first call builds the engine (``build_engine``) and cold-solves;
        later calls run an atomic forget-evict + append + warm refit.
        Returns the :class:`~repro.solvers.base.SolverResult`, or
        ``None`` when the call was a defined no-op (empty batch with
        nothing forgotten)."""
        if not hasattr(self, "stream_"):
            if forget is not None:
                raise SolverError(
                    "forget= needs existing streaming state; call "
                    "partial_fit without it first"
                )
            if X.shape[0] == 0:
                raise SolverError(
                    "the first partial_fit batch needs at least one row"
                )
            self.stream_ = build_engine()
            return self.stream_.solve(warm_start=False)
        self._check_batch_appendable(X, b)
        before = self.stream_.revision
        if forget is not None:
            self.stream_.evict(forget)
        self.stream_.append(X, b)
        if self.stream_.revision == before:
            return None  # nothing changed: keep the fitted state
        return self.stream_.solve()

    def _knobs(self, *names) -> dict:
        return {k: self._params[k] for k in names}

    def _set_result(self, res):
        """Keep ``res`` as the fitted state (``None``: keep the last)."""
        if res is not None:
            self.result_, self.coef_, self.n_iter_ = res, res.x, res.iterations
            if "alpha" in res.extras:
                self.dual_coef_ = res.extras["alpha"]
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "result_"):
            raise SolverError(
                f"{type(self).__name__} is not fitted; call fit(X, y) first"
            )

    def get_params(self) -> dict:
        """Constructor parameters (sklearn convention)."""
        return dict(self._params)

    def set_params(self, **params):
        for k, v in params.items():
            if k not in self._params:
                raise SolverError(f"unknown parameter {k!r}")
            self._params[k] = v
        return self


class _RegressorMixin(_FittedMixin):
    """Shared predict/score for the linear-regression estimators."""

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        return np.asarray(X @ self.coef_).ravel()

    def score(self, X, y) -> float:
        """Coefficient of determination R^2 (sklearn convention)."""
        self._check_fitted()
        y = np.asarray(y, dtype=np.float64).ravel()
        resid = y - self.predict(X)
        ss_res = float(resid @ resid)
        centered = y - y.mean()
        ss_tot = float(centered @ centered)
        if ss_tot == 0.0:
            return 0.0 if ss_res > 0 else 1.0
        return 1.0 - ss_res / ss_tot


class SALasso(_RegressorMixin):
    """Lasso / sparse linear regression via (SA-)accelerated BCD.

    Parameters
    ----------
    lam:
        L1 penalty strength (or any :class:`~repro.prox.penalties.Penalty`).
    solver:
        A Lasso name in the solver registry (see :func:`repro.fit_lasso`).
    mu, s, max_iter, tol, seed:
        Paper tuning knobs; see :func:`repro.fit_lasso`.
    schedule:
        The :class:`~repro.solvers.outer.Schedule` of :meth:`fit`,
        :meth:`partial_fit` and :meth:`path` (blocking by default); see
        :func:`repro.fit_lasso`.
    backend, ranks, recover, max_recoveries:
        SPMD dispatch for :meth:`fit` (``"virtual"`` default;
        ``"process"`` + ``recover="checkpoint"`` gets supervised rank
        recovery); see :func:`repro.fit_lasso`.

    Attributes (after fit)
    ----------------------
    coef_:
        Learned weight vector (n_features,).
    result_:
        The full :class:`~repro.solvers.base.SolverResult`.
    """

    def __init__(
        self,
        lam: float = 1.0,
        solver: str = "sa-accbcd",
        mu: int = 8,
        s: int = 16,
        max_iter: int = 2000,
        tol: float | None = 1e-8,
        seed: int = 0,
        schedule: Schedule = Schedule(),
        max_rows: int | None = None,
        backend: str = "virtual",
        ranks: int = 4,
        recover: str = "raise",
        max_recoveries: int = 2,
    ) -> None:
        self._params = {k: v for k, v in locals().items() if k != "self"}

    def fit(self, X, y) -> "SALasso":
        if hasattr(self, "stream_"):
            del self.stream_  # fit() restarts from scratch
        return self._set_result(fit_lasso(
            X, y, record_every=max(1, self._params["max_iter"] // 50),
            **self._knobs("lam", "solver", "mu", "s", "max_iter", "tol", "seed",
                          "schedule", "backend", "ranks", "recover",
                          "max_recoveries"),
        ))

    def partial_fit(self, X, y, forget=None) -> "SALasso":
        """Incremental fitting: new rows extend the data, the refit is warm.

        The first call behaves like :meth:`fit` but keeps a
        :class:`~repro.streaming.StreamingSweep` (exposed as
        ``stream_``); every subsequent call appends ``(X, y)`` as new
        rows — ``X`` must keep the same feature count — and warm-starts
        the refit from the previous coefficients. ``forget`` evicts rows
        first, by arrival index (``stream_.surviving_rows()``), and the
        ``max_rows`` constructor knob keeps a sliding count window by
        auto-evicting the oldest rows after each append. An empty batch
        with nothing to forget is a no-op. Per-revision modelled costs
        are available as ``stream_.revisions``. Calling :meth:`fit`
        discards the streaming state.
        """
        return self._set_result(self._stream_partial_fit(
            X, y, forget,
            lambda: StreamingSweep(
                X, y, task="lasso",
                record_every=max(1, self._params["max_iter"] // 50),
                **self._knobs("solver", "lam", "mu", "s", "max_iter", "tol",
                              "seed", "schedule", "max_rows"),
            ),
        ))

    @property
    def sparsity_(self) -> float:
        """Fraction of exactly zero coefficients."""
        self._check_fitted()
        return float(np.mean(self.coef_ == 0.0))

    def path(
        self,
        X,
        y,
        lambdas=None,
        n_lambdas: int = 16,
        eps: float = 1e-3,
    ) -> PathResult:
        """Warm-started regularization path with this estimator's knobs.

        Solves a descending lambda grid (default: geometric from
        ``lambda_max`` down to ``eps * lambda_max``) through one shared
        :class:`~repro.path.SweepContext`; see :func:`repro.lasso_path`.
        Does not change the fitted state.
        """
        return lasso_path(
            X, y, lambdas, n_lambdas=n_lambdas, eps=eps,
            **self._knobs("solver", "mu", "s", "max_iter", "tol", "seed",
                          "schedule"),
        )


def _lasso_mse(X, y, coef: np.ndarray) -> float:
    resid = np.asarray(X @ coef).ravel() - y
    return float(resid @ resid) / y.shape[0]


class SALassoCV(_RegressorMixin):
    """Lasso with lambda chosen by cross-validated warm-started paths.

    For each fold, one warm-started :func:`~repro.path.lasso_path` sweep
    over a shared lambda grid is solved on the training split and scored
    (MSE) on the held-out split; the lambda with the best mean score is
    refit on the full data — again via a warm path sweep, so the refit
    reuses the grid's earlier points as warm starts.

    Parameters
    ----------
    n_lambdas, eps:
        Grid: geometric from ``lambda_max(train)`` down to
        ``eps * lambda_max``.
    cv:
        Number of folds (contiguous splits of a seeded permutation).
    solver, mu, s, max_iter, tol, seed:
        Per-solve knobs, as in :class:`SALasso`.

    Every fit sweeps paths on one virtual rank, where every solve runs
    blocking, so the estimator takes no schedule.

    Attributes (after fit)
    ----------------------
    lambda_:
        Selected regularisation strength.
    lambdas_:
        The grid (descending).
    mse_path_:
        (n_lambdas, cv) held-out MSE per grid point and fold.
    coef_, result_:
        Full-data refit at ``lambda_``.
    """

    def __init__(
        self,
        n_lambdas: int = 16,
        eps: float = 1e-3,
        cv: int = 3,
        solver: str = "sa-accbcd",
        mu: int = 8,
        s: int = 16,
        max_iter: int = 1000,
        tol: float | None = 1e-6,
        seed: int = 0,
    ) -> None:
        if cv < 2:
            raise SolverError(f"cv must be >= 2, got {cv}")
        self._params = {k: v for k, v in locals().items() if k != "self"}

    def _path_kwargs(self) -> dict:
        return self._knobs("solver", "mu", "s", "max_iter", "tol", "seed")

    def fit(self, X, y) -> "SALassoCV":
        p = self._params
        y = np.asarray(y, dtype=np.float64).ravel()
        m = y.shape[0]
        cv = p["cv"]
        if m < 2 * cv:
            raise SolverError(f"need at least {2 * cv} samples for cv={cv}, got {m}")
        # shared grid from the full data, so fold scores are comparable
        lam_max = lambda_max(X, y)
        if lam_max <= 0.0:
            raise SolverError("cannot build a lambda grid: ||X^T y||_inf is 0")
        lams = lambda_grid(lam_max, n_lambdas=p["n_lambdas"], eps=p["eps"])
        perm = np.random.default_rng(p["seed"]).permutation(m)
        folds = np.array_split(perm, cv)
        mse = np.empty((lams.shape[0], cv))
        for f, val_idx in enumerate(folds):
            train_idx = np.sort(np.concatenate([folds[k] for k in range(cv) if k != f]))
            val_idx = np.sort(val_idx)
            Xtr, ytr = X[train_idx], y[train_idx]
            path = lasso_path(Xtr, ytr, lams, **self._path_kwargs())
            Xval, yval = X[val_idx], y[val_idx]
            for i, res in enumerate(path.results):
                mse[i, f] = _lasso_mse(Xval, yval, res.x)
        self.mse_path_ = mse
        self.lambdas_ = lams
        best = int(np.argmin(mse.mean(axis=1)))
        self.lambda_ = float(lams[best])
        # full-data refit: warm path down to (and stopping at) lambda_
        self.path_ = lasso_path(X, y, lams[: best + 1], **self._path_kwargs())
        return self._set_result(self.path_.results[-1])


class _SVMClassifierMixin(_FittedMixin):
    """Shared decision_function/predict/score for the SVM estimators."""

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        return np.asarray(X @ self.coef_).ravel()

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        neg, pos = self.classes_
        return np.where(scores >= 0.0, pos, neg)

    def score(self, X, y) -> float:
        """Mean accuracy."""
        self._check_fitted()
        y = np.asarray(y).ravel()
        b = np.where(y == self.classes_[1], 1.0, -1.0)
        return prediction_accuracy(self.decision_function(X), b)

    def _encode_labels(self, y) -> np.ndarray:
        y = np.asarray(y).ravel()
        classes = np.unique(y)
        if classes.shape[0] != 2:
            raise SolverError(
                f"{type(self).__name__} is binary; got {classes.shape[0]} classes"
            )
        self.classes_ = classes
        return np.where(y == classes[1], 1.0, -1.0)

    @property
    def duality_gap_(self) -> float:
        self._check_fitted()
        return self.result_.final_metric


class SASVMClassifier(_SVMClassifierMixin):
    """Linear SVM via (SA-)dual coordinate descent.

    Parameters
    ----------
    loss:
        ``"l1"`` (hinge) or ``"l2"`` (squared hinge).
    lam:
        Penalty parameter C (the paper uses 1).
    solver:
        ``"svm"`` (Alg. 3) or ``"sa-svm"`` (Alg. 4).
    schedule:
        As in :class:`SALasso`, for :meth:`fit` and :meth:`partial_fit`.
    backend, ranks, recover, max_recoveries:
        SPMD dispatch for :meth:`fit`, as in :class:`SALasso`.
    """

    def __init__(
        self,
        loss: str = "l2",
        lam: float = 1.0,
        solver: str = "sa-svm",
        s: int = 64,
        max_iter: int = 50_000,
        tol: float | None = 1e-2,
        seed: int = 0,
        schedule: Schedule = Schedule(),
        max_rows: int | None = None,
        backend: str = "virtual",
        ranks: int = 4,
        recover: str = "raise",
        max_recoveries: int = 2,
    ) -> None:
        self._params = {k: v for k, v in locals().items() if k != "self"}

    def fit(self, X, y) -> "SASVMClassifier":
        b = self._encode_labels(y)
        if hasattr(self, "stream_"):
            del self.stream_  # fit() restarts from scratch
        return self._set_result(fit_svm(
            X, b, record_every=max(1, self._params["max_iter"] // 100),
            **self._knobs("loss", "lam", "solver", "s", "max_iter", "tol",
                          "seed", "schedule", "backend", "ranks", "recover",
                          "max_recoveries"),
        ))

    def partial_fit(self, X, y, forget=None) -> "SASVMClassifier":
        """Incremental fitting: new rows extend the data, the refit is warm.

        The first call must contain both classes (it establishes
        ``classes_``) and keeps a :class:`~repro.streaming.
        StreamingSweep` (``stream_``); every subsequent call appends
        ``(X, y)`` as new samples — labels must come from ``classes_``,
        a single-class batch is fine — and warm-starts the refit from
        the previous dual, zero-padded for the new rows. ``forget``
        evicts rows first, by arrival index (the evicted rows' dual
        coordinates are dropped), and the ``max_rows`` constructor knob
        keeps a sliding count window. An empty batch with nothing to
        forget is a no-op. Calling :meth:`fit` discards the streaming
        state.
        """
        if not hasattr(self, "stream_"):
            if X.shape[0] == 0:
                raise SolverError(
                    "the first partial_fit batch needs at least one row"
                )
            b = self._encode_labels(y)
        else:
            y_arr = np.asarray(y).ravel()
            known = np.isin(y_arr, self.classes_)
            if not known.all():
                raise SolverError(
                    f"partial_fit batch contains labels outside classes_ "
                    f"{list(self.classes_)}"
                )
            b = np.where(y_arr == self.classes_[1], 1.0, -1.0)
        return self._set_result(self._stream_partial_fit(
            X, b, forget,
            lambda: StreamingSweep(
                X, b, task="svm",
                record_every=max(1, self._params["max_iter"] // 100),
                **self._knobs("solver", "loss", "lam", "s", "max_iter", "tol",
                              "seed", "schedule", "max_rows"),
            ),
        ))



class SASVMClassifierCV(_SVMClassifierMixin):
    """Linear SVM with the penalty C chosen by cross-validated dual paths.

    The SVM twin of :class:`SALassoCV`, backed by :func:`repro.svm_path`:
    for each fold, one warm-started dual path over a shared ascending
    penalty grid is solved on the training split and scored (accuracy)
    on the held-out split; the penalty with the best mean accuracy is
    refit on the full data via another warm path sweep up to (and
    stopping at) the selected point. Warm starts make the whole grid
    barely more expensive than its largest point: the hinge dual box
    grows with ``lam``, so each solution is feasible for the next.

    Parameters
    ----------
    lams:
        Explicit penalty grid (solved ascending). Default: ``n_lambdas``
        points geometric in ``[0.1, 10]`` around the paper's ``C = 1``.
    cv:
        Number of folds (contiguous splits of a seeded permutation).
    loss, solver, s, max_iter, tol, seed:
        Per-solve knobs, as in :class:`SASVMClassifier`.

    As in :class:`SALassoCV`, the estimator takes no schedule.

    Attributes (after fit)
    ----------------------
    lambda_:
        Selected penalty.
    lambdas_:
        The grid (ascending).
    accuracy_path_:
        (n_lambdas, cv) held-out accuracy per grid point and fold.
    coef_, dual_coef_, result_:
        Full-data refit at ``lambda_``.
    """

    def __init__(
        self,
        lams=None,
        n_lambdas: int = 8,
        cv: int = 3,
        loss: str = "l2",
        solver: str = "sa-svm",
        s: int = 64,
        max_iter: int = 20_000,
        tol: float | None = 1e-2,
        seed: int = 0,
    ) -> None:
        if cv < 2:
            raise SolverError(f"cv must be >= 2, got {cv}")
        self._params = {k: v for k, v in locals().items() if k != "self"}

    def _path_kwargs(self) -> dict:
        return dict(record_every=max(1, self._params["max_iter"] // 100),
                    **self._knobs("loss", "solver", "s", "max_iter", "tol", "seed"))

    def fit(self, X, y) -> "SASVMClassifierCV":
        p = self._params
        b = self._encode_labels(y)
        m = b.shape[0]
        cv = p["cv"]
        if m < 2 * cv:
            raise SolverError(f"need at least {2 * cv} samples for cv={cv}, got {m}")
        if p["lams"] is None:
            lams = np.geomspace(0.1, 10.0, p["n_lambdas"])
        else:
            lams = np.sort(np.asarray(p["lams"], dtype=np.float64).ravel())
            if lams.size == 0:
                raise SolverError("lams must be non-empty")
        perm = np.random.default_rng(p["seed"]).permutation(m)
        folds = np.array_split(perm, cv)
        acc = np.empty((lams.shape[0], cv))
        for f, val_idx in enumerate(folds):
            train_idx = np.sort(np.concatenate([folds[k] for k in range(cv) if k != f]))
            val_idx = np.sort(val_idx)
            Xtr, btr = X[train_idx], b[train_idx]
            path = svm_path(Xtr, btr, lams, **self._path_kwargs())
            Xval, bval = X[val_idx], b[val_idx]
            for i, res in enumerate(path.results):
                scores = np.asarray(Xval @ res.x).ravel()
                acc[i, f] = prediction_accuracy(scores, bval)
        self.accuracy_path_ = acc
        self.lambdas_ = lams
        best = int(np.argmax(acc.mean(axis=1)))
        self.lambda_ = float(lams[best])
        # full-data refit: warm ascending path up to (and stopping at) lambda_
        self.path_ = svm_path(X, b, lams[: best + 1], **self._path_kwargs())
        return self._set_result(self.path_.results[-1])
