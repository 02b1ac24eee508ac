"""Shared solver infrastructure: histories, results, termination, and
the state every solver family keeps around its loop.

Every solver in the package reports a :class:`ConvergenceHistory` whose
``seconds`` column is the *modelled* running time from the communicator's
cost ledger (the quantity on the x-axis of the paper's Fig. 3), and a
:class:`SolverResult` bundling the solution with cost counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint import (
    emit_solver_checkpoint,
    load_solver_checkpoint,
    make_solver_checkpoint,
    require_int_seed,
    resume_solver,
)
from repro.errors import SolverError
from repro.machine.ledger import CostSnapshot
from repro.mpi.comm import Comm

__all__ = [
    "ConvergenceHistory",
    "SolverResult",
    "Terminator",
    "FamilyState",
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
    #: final solution vector, replicated on every rank. Lasso: x (n,).
    #: SVM: the gathered primal x (n,), with this rank's shard in
    #: ``extras['x_local']`` and the replicated dual in ``extras['alpha']``.
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


class FamilyState:
    """One solve's state: the iterates of a solver family plus what every
    family keeps the same way around its loop.

    The base owns the run knobs, the :class:`Terminator`, the
    :class:`ConvergenceHistory`, resume (:meth:`start`), checkpoints
    (:meth:`checkpoint`) and the result (:meth:`finish`). A classical
    solver runs its per-iteration loop between :meth:`start` and
    :meth:`finish` and calls :meth:`after` once per iteration; an SA
    solver hands its state to :func:`repro.solvers.outer.run_sa`. Each
    family's subclass builds its problem in ``__init__``, sets the class
    attributes ``family`` (checkpoint family), ``metric`` (history
    column) and ``mode`` (:class:`Terminator` mode), and supplies:

    * ``restore(ck)``: the iterates from checkpoint ``ck``, recomputing
      local shards with the ledger paused, or from the initial guess
      when ``ck`` is None;
    * ``record()``: the metric at the current iterate, synced on its own;
    * ``state()``: the replicated iterates a checkpoint stores;
    * ``result()``: the returned ``(x, extras)``;
    * ``probe(it)``: a record pinned to iteration ``it`` (see
      :class:`repro.solvers.outer.Checks`), which also guards against a
      non-finite iterate;
    * the SA hooks ``plan``, ``gram``, ``step``, ``correct``,
      ``exchange``, ``pipeline`` and ``arrays`` (see
      :mod:`repro.solvers.outer`).
    """

    family: str
    metric: str
    mode: str

    def __init__(self, solver, comm, sampler, params, *, seed, max_iter, tol,
                 record_every, checkpoint_every, checkpoint_sink, resume_from,
                 symmetric_pack=True, fast=True, eig_memo=None) -> None:
        self.solver = solver
        #: the solver name without its parameters, for divergence errors
        self.tag = solver.split("(")[0]
        self.comm = comm
        self.sampler = sampler
        self.params = params
        self.seed = seed
        self.max_iter = max_iter
        self.tol = tol
        self.record_every = record_every
        self.checkpoint_every = checkpoint_every
        self.checkpoint_sink = checkpoint_sink
        self.resume_from = resume_from
        self.symmetric = symmetric_pack
        self.fast = fast
        self.memo = eig_memo

    def start(self, record: bool = True) -> tuple[int, bool]:
        """Build the iterates and the first record; returns ``(done,
        converged)``. A fresh run records iteration 0 on its own sync,
        unless ``record`` is False: an SA solve's first record rides its
        first Gram reduction instead (see
        :class:`repro.solvers.outer.Checks`). A resumed run restores the
        checkpoint's iterates, history, terminator, ledger and sampler
        stream and continues at its iteration."""
        if self.checkpoint_every or self.resume_from is not None:
            require_int_seed(self.seed)
        self.term = Terminator(self.max_iter, self.tol, self.mode)
        self.history = ConvergenceHistory(self.metric)
        if self.resume_from is None:
            self.restore(None)
            if not record:
                return 0, False
            self.history.record(0, self.record(), self.comm)
            return 0, self.term.done(self.history.final_metric)
        ck = load_solver_checkpoint(self.resume_from, family=self.family,
                                    seed=self.seed, params=self.params)
        self.restore(ck)
        return resume_solver(ck, sampler=self.sampler, term=self.term,
                             history=self.history, ledger=self.comm.ledger), False

    def after(self, h: int) -> bool:
        """A classical loop's record and checkpoint after iteration ``h``:
        the record when ``h`` is a multiple of ``record_every`` or
        ``max_iter``, then the checkpoint when ``h`` is a multiple of
        ``checkpoint_every``. True when the record met ``tol``."""
        if self.record_every and (h % self.record_every == 0 or h == self.max_iter):
            _, value, _ = self.probe(h)
            self.history.record(h, value(None), self.comm)
            if self.term.done(self.history.final_metric):
                return True
        if self.checkpoint_every and h % self.checkpoint_every == 0:
            emit_solver_checkpoint(self.checkpoint(h), self.checkpoint_sink,
                                   self.comm.rank)
        return False

    def checkpoint(self, done: int) -> dict:
        """A resumable checkpoint payload of the state at iteration ``done``."""
        return make_solver_checkpoint(
            family=self.family, solver=self.solver, iteration=done,
            seed=self.seed, params=self.params, state=self.state(),
            term=self.term, history=self.history, ledger=self.comm.ledger,
        )

    def finish(self, done: int, converged: bool) -> SolverResult:
        """Record the final iterate unless a record already holds it, and
        return the result."""
        if self.history.iterations[-1] != done:
            self.history.record(done, self.record(), self.comm)
        x, extras = self.result()
        return SolverResult(
            solver=self.solver, x=x, iterations=done,
            final_metric=self.history.final_metric, history=self.history,
            cost=self.comm.ledger.snapshot(), converged=converged,
            extras=extras,
        )
