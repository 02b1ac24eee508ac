"""Shared solver infrastructure: histories, results, termination.

Every solver in the package reports a :class:`ConvergenceHistory` whose
``seconds`` column is the *modelled* running time from the communicator's
cost ledger (the quantity on the x-axis of the paper's Fig. 3), and a
:class:`SolverResult` bundling the solution with cost counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError
from repro.machine.ledger import CostSnapshot
from repro.mpi.comm import Comm

__all__ = [
    "ConvergenceHistory",
    "SolverResult",
    "Terminator",
    "check_finite_iterate",
    "FIXED_SUBPROBLEM_FLOPS",
]


def check_finite_iterate(solver: str, iteration: int, **vectors) -> None:
    """Divergence guard: raise if any iterate vector went non-finite.

    A diverging step poisons every coordinate it touches and, in the SA
    solvers, rides the packed Gram reduction onto every rank — by the
    time the objective is recorded the whole solution is NaN with no
    hint of where it started. Checked at recording points, this names
    the solver, the iteration, and the first bad coordinate instead::

        check_finite_iterate("sa-accbcd", t, x=x, z=z)

    Raises :class:`~repro.errors.SolverError`; cheap (one fused
    ``isfinite`` reduction per vector) relative to the metric evaluation
    it accompanies.
    """
    for name, vec in vectors.items():
        if vec is None:
            continue
        arr = np.asarray(vec)
        finite = np.isfinite(arr)
        if finite.all():
            continue
        bad = int(np.flatnonzero(~finite.ravel())[0])
        raise SolverError(
            f"{solver} diverged: iterate {name!r} is non-finite at "
            f"iteration {iteration} (first bad coordinate {bad}: "
            f"{arr.ravel()[bad]!r}); reduce the step or increase "
            "regularisation"
        )

#: Per-inner-iteration fixed local overhead, in "fixed"-kind flops
#: (0.5 GF/s => ~2.4 us): LAPACK eigensolve invocation, prox evaluation,
#: and random access into the replicated solution vectors. Paid equally
#: by the classical and SA methods; it is what keeps measured total
#: speedups in the paper's 1.2x-5.1x range rather than the pure-latency
#: factor of s.
FIXED_SUBPROBLEM_FLOPS = 1200.0


@dataclass
class ConvergenceHistory:
    """Per-recorded-iteration convergence trace.

    ``metric`` is the objective value for Lasso solvers and the duality
    gap for SVM solvers (named in ``metric_name``).
    """

    metric_name: str = "objective"
    iterations: list = field(default_factory=list)
    metric: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    comm_seconds: list = field(default_factory=list)
    flops: list = field(default_factory=list)

    def record(self, iteration: int, value: float, comm: Comm) -> None:
        """Append one point, reading modelled time off the ledger."""
        self.append(iteration, value, self.reading(comm))

    @staticmethod
    def reading(comm: Comm) -> tuple[float, float, float]:
        """The ledger's ``(seconds, comm_seconds, flops)`` now."""
        return comm.ledger.seconds, comm.ledger.comm_seconds, comm.ledger.flops

    def append(self, iteration: int, value: float, reading: tuple) -> None:
        """Append one point with a :meth:`reading` taken earlier: a
        record whose value arrives after its iteration (see
        :class:`repro.solvers.outer.Checks`) keeps the modelled time of
        the iterate it describes."""
        self.iterations.append(int(iteration))
        self.metric.append(float(value))
        seconds, comm_seconds, flops = reading
        self.seconds.append(seconds)
        self.comm_seconds.append(comm_seconds)
        self.flops.append(flops)

    def __len__(self) -> int:
        return len(self.iterations)

    @property
    def final_metric(self) -> float:
        if not self.metric:
            raise SolverError("history is empty")
        return self.metric[-1]

    def as_arrays(self) -> dict:
        """Columns as NumPy arrays (plot-ready)."""
        return {
            "iterations": np.asarray(self.iterations),
            self.metric_name: np.asarray(self.metric),
            "seconds": np.asarray(self.seconds),
            "comm_seconds": np.asarray(self.comm_seconds),
            "flops": np.asarray(self.flops),
        }


@dataclass
class SolverResult:
    """Outcome of one solver run."""

    #: solver identifier, e.g. ``"sa-accbcd(mu=8, s=16)"``
    solver: str
    #: final solution vector. Lasso: replicated x (n,). SVM: *local* primal
    #: shard x (n_loc,) plus the replicated dual in ``extras['alpha']``.
    x: np.ndarray
    #: iterations actually executed
    iterations: int
    #: final value of the tracked metric (objective / duality gap)
    final_metric: float
    history: ConvergenceHistory
    cost: CostSnapshot
    converged: bool = False
    extras: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverResult({self.solver}, iters={self.iterations}, "
            f"{self.history.metric_name}={self.final_metric:.6g}, "
            f"model_seconds={self.cost.seconds:.4g})"
        )


class Terminator:
    """Stopping rule: iteration budget plus optional metric tolerance.

    ``tol`` semantics depend on ``mode``:

    * ``"objective"`` — stop when the *relative change* of the objective
      over a check interval falls below ``tol``;
    * ``"gap"`` — stop when the metric itself (duality gap) falls below
      ``tol`` (the criterion in the paper's Table V, tol=1e-1).
    """

    def __init__(
        self,
        max_iter: int,
        tol: float | None = None,
        mode: str = "objective",
    ) -> None:
        if max_iter < 1:
            raise SolverError(f"max_iter must be >= 1, got {max_iter}")
        if mode not in ("objective", "gap"):
            raise SolverError(f"unknown termination mode {mode!r}")
        if tol is not None and tol < 0:
            raise SolverError(f"tol must be non-negative, got {tol}")
        self.max_iter = int(max_iter)
        self.tol = tol
        self.mode = mode
        self._last: float | None = None

    def done(self, value: float) -> bool:
        """True if the metric value satisfies the tolerance."""
        if self.tol is None:
            return False
        if self.mode == "gap":
            return value <= self.tol
        prev, self._last = self._last, value
        if prev is None:
            return False
        denom = max(abs(prev), 1e-300)
        return abs(prev - value) / denom <= self.tol
