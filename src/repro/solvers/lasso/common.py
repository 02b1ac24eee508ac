"""Shared plumbing for the Lasso-family solvers (row-partitioned layout)."""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.linalg.distmatrix import RowPartitionedMatrix
from repro.mpi.comm import Comm
from repro.mpi.virtual_backend import VirtualComm
from repro.prox.penalties import L1Penalty, Penalty
from repro.solvers.base import FamilyState
from repro.solvers.sampling import BlockSampler, GroupBlockSampler
from repro.utils.validation import check_vector

__all__ = [
    "LassoState",
    "setup_problem",
    "distributed_objective",
    "make_sampler",
    "theta_next",
    "theta_schedule",
    "momentum_coef",
]


def setup_problem(
    A,
    b,
    comm: Comm | None,
) -> tuple[RowPartitionedMatrix, np.ndarray]:
    """Normalise inputs to a row-partitioned matrix and local label shard.

    ``A`` may already be a :class:`RowPartitionedMatrix`; otherwise it is
    wrapped over ``comm`` (default: a sequential :class:`VirtualComm`).
    ``b`` is always the *global* label vector; each rank keeps its shard.
    """
    if isinstance(A, RowPartitionedMatrix):
        dist = A
    else:
        comm = comm if comm is not None else VirtualComm(1)
        dist = RowPartitionedMatrix.from_global(A, comm)
    m = dist.shape[0]
    b = check_vector(b, m, "b")
    lo, hi = dist.partition.range_of(dist.comm.rank)
    return dist, b[lo:hi].copy()


def as_penalty(penalty) -> Penalty:
    """Bare floats become the paper's default L1 penalty."""
    if isinstance(penalty, Penalty):
        return penalty
    return L1Penalty(float(penalty))


def distributed_objective(
    dist: RowPartitionedMatrix,
    r_local: np.ndarray,
    x: np.ndarray,
    penalty: Penalty,
    tail: np.ndarray | None = None,
) -> float:
    """``0.5 ||r||^2 + g(x)`` from the partitioned residual.

    ``tail`` is ``[||r||^2]`` already summed across ranks: the SA solvers
    fold each rank's ``||r_local||^2`` into their next Gram reduction
    (:class:`repro.solvers.outer.Checks`) and pass the sum here. Without
    it the partial sums meet in one scalar allreduce. Instrumentation
    only — the measured algorithm never evaluates the objective (the
    paper plots it offline), so that allreduce runs with the ledger
    paused.
    """
    if tail is None:
        with dist.comm.ledger.paused():
            part = float(r_local @ r_local)
            tail = [dist.comm.allreduce(part, timeout=dist.comm.timeout)]
    return 0.5 * float(tail[0]) + penalty.value(x)


def make_sampler(n: int, mu: int, seed, penalty: Penalty):
    """Build the coordinate sampler; group penalties sample whole groups."""
    if isinstance(seed, (BlockSampler, GroupBlockSampler)):
        return seed
    if penalty.group_ids is not None:
        return GroupBlockSampler(penalty.group_ids, groups_per_block=mu, seed=seed)
    return BlockSampler(n, mu, seed)


class LassoState(FamilyState):
    """What the Lasso families' states share: the row-partitioned
    problem (``dist``, ``b_local``), the penalty, the block sampler, the
    warm start ``x0`` and the outer-step plan."""

    metric = mode = "objective"

    def __init__(self, solver, A, b, penalty, *, mu, comm, x0, **run) -> None:
        self.dist, self.b_local = setup_problem(A, b, comm)
        self.pen = as_penalty(penalty)
        self.x0 = x0
        n = self.dist.shape[1]
        super().__init__(solver, self.dist.comm,
                         make_sampler(n, mu, run["seed"], self.pen),
                         {"n": n, "mu": mu}, **run)

    def exchange(self, tails: list) -> list:
        """The closing exchange: the records' ``[||r_local||^2]`` words
        summed in one ledger-paused allreduce, a scalar one for a single
        record (instrumentation, as in :func:`distributed_objective`)."""
        comm = self.comm
        with comm.ledger.paused():
            if len(tails) == 1:
                return [[comm.allreduce(float(tails[0][0]), timeout=comm.timeout)]]
            total = comm.allreduce(np.concatenate(tails), timeout=comm.timeout)
        return np.split(total, len(tails))

    def plan(self, k: int) -> tuple:
        """Sample one outer step's ``k`` blocks: ``(idx, (blocks, widths,
        offsets))``."""
        blocks = self.sampler.next_blocks(k)
        widths = [int(blk.shape[0]) for blk in blocks]
        offsets = np.concatenate([[0], np.cumsum(widths)])
        return np.concatenate(blocks), (blocks, widths, offsets)


def theta_next(theta: float) -> float:
    """Momentum recurrence ``theta_h`` from ``theta_{h-1}`` (Alg. 1 line 18)."""
    if theta <= 0:
        raise SolverError(f"theta must be positive, got {theta}")
    t2 = theta * theta
    return 0.5 * (np.sqrt(t2 * t2 + 4.0 * t2) - t2)


def theta_schedule(theta: float, s: int) -> list:
    """``[theta, theta_next(theta), ...]`` — s+1 momentum values.

    The whole outer step's thetas depend only on ``theta_sk`` (paper
    Alg. 2 line 9), which is what lets SA-accBCD precompute them; the
    classical method consumes the same schedule one entry per iteration,
    so both see bit-identical momentum states.
    """
    thetas = [theta]
    for _ in range(s):
        thetas.append(theta_next(thetas[-1]))
    return thetas


def momentum_coef(theta: float, q: float) -> float:
    """y-update coefficient ``(1 - q theta)/theta^2`` (Alg. 1 line 17)."""
    t2 = theta * theta
    return (1.0 - q * theta) / t2
