"""The residuals one fused ``mu > 1`` outer step carries, recomputed.

The fused loops update ``r_local`` (plain BCD) and ``ytil``, ``ztil``
(accelerated BCD) once per outer step, with one product of the sampled
block and the step's update history. The parity suite compares them with
the reference loop, which carries them incrementally as well; here they
are checked against ``A_p x - b_p``, ``A_p y`` and ``A_p z - b_p``
recomputed from the replicated iterate after one outer step.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import make_sparse_regression
from repro.linalg.distmatrix import RowPartitionedMatrix
from repro.linalg.kernels import EigMemo
from repro.mpi.virtual_backend import VirtualComm
from repro.prox.penalties import GroupLassoPenalty, L1Penalty
from repro.solvers.lasso.acc import _sa_acc_outer_fast
from repro.solvers.lasso.common import make_sampler, theta_schedule
from repro.solvers.lasso.plain import _sa_outer_fast

M, N, S = 60, 40, 8
#: coordinates per group, uneven: group blocks differ in width
GROUP_SIZES = [1, 2, 3, 4] * 4

CASES = [
    pytest.param(mu, dense, k, id=f"mu{mu}-{'dense' if dense else 'sparse'}-k{k}")
    for mu in (4, 8) for dense in (False, True) for k in (S, 5)  # 5: truncated
]


def _outer_step(mu, dense, k, group=False):
    """The row-partitioned problem, its penalty and one outer step's
    sampled blocks ``(blocks, widths, offsets)`` and block ``Y``."""
    A, b, _ = make_sparse_regression(M, N, density=1.0 if dense else 0.3, seed=2)
    if group:
        pen = GroupLassoPenalty(0.05, group_ids=np.repeat(np.arange(16), GROUP_SIZES))
    else:
        pen = L1Penalty(0.05)
    dist = RowPartitionedMatrix.from_global(A, VirtualComm(1))
    sampler = make_sampler(N, mu, 3, pen)
    blocks = [sampler.next_block() for _ in range(k)]
    widths = [int(blk.shape[0]) for blk in blocks]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    Y = dist.sample_columns(np.concatenate(blocks))
    assert sp.issparse(Y) != dense
    return dist, b, pen, (blocks, widths, offsets), Y


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _plain(mu, dense, k, group=False):
    dist, b, pen, (blocks, widths, offsets), Y = _outer_step(mu, dense, k, group)
    x = np.random.default_rng(0).standard_normal(N) * 0.1
    r_local = dist.local @ x - b
    G, R = dist.gram_and_project(Y, [r_local])
    before = x.copy()
    _sa_outer_fast(dist, pen, Y, G, R, blocks, widths, offsets, x, r_local,
                   memo=EigMemo())
    assert not np.array_equal(x, before)
    assert _rel(r_local, dist.local @ x - b) <= 1e-12
    return widths


def _acc(mu, dense, k, group=False):
    dist, b, pen, (blocks, widths, offsets), Y = _outer_step(mu, dense, k, group)
    rng = np.random.default_rng(1)
    y, z = rng.standard_normal(N) * 0.1, rng.standard_normal(N) * 0.1
    ytil, ztil = dist.local @ y, dist.local @ z - b
    G, R = dist.gram_and_project(Y, [ytil, ztil])
    thetas = theta_schedule(mu / N, k)
    before = z.copy()
    _sa_acc_outer_fast(dist, pen, Y, G, R, blocks, widths, offsets, thetas,
                       float(int(np.ceil(N / mu))), y, z, ytil, ztil, memo=EigMemo())
    assert not np.array_equal(z, before)
    assert _rel(ytil, dist.local @ y) <= 1e-12
    assert _rel(ztil, dist.local @ z - b) <= 1e-12
    return widths


@pytest.mark.parametrize("mu,dense,k", CASES)
def test_plain_residual_matches_recomputation(mu, dense, k):
    assert _plain(mu, dense, k) == [mu] * k


@pytest.mark.parametrize("mu,dense,k", CASES)
def test_acc_residuals_match_recomputation(mu, dense, k):
    assert _acc(mu, dense, k) == [mu] * k


@pytest.mark.parametrize("step", [_plain, _acc], ids=["plain", "acc"])
def test_uneven_group_blocks(step):
    # two groups per block, of 1 to 4 coordinates each: the per-block
    # eigensolve path
    widths = step(2, False, S, group=True)
    assert len(set(widths)) > 1
