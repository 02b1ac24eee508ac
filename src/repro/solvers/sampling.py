"""Shared-seed coordinate samplers.

Both the classical and SA methods consume coordinates from these
samplers; because every rank seeds identically (paper §III: "initializing
the random number generator on all processors to the same seed"), the
sampled blocks are replicated knowledge and contribute no communication.

Crucially, the SA variant draws ``s`` blocks per outer iteration from
the *same* stream, so SA and non-SA runs with equal seeds see the
identical coordinate stream — the precondition for the paper's
exact-arithmetic equivalence. The SA solvers draw an outer step's blocks
in one call (:meth:`BlockSampler.next_blocks`,
:meth:`RowSampler.next_indices`) that reproduces the one-at-a-time draws
and the generator's final state bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.utils.seeds import shared_generator

__all__ = ["BlockSampler", "GroupBlockSampler", "RowSampler"]


class BlockSampler:
    """Uniform-without-replacement blocks of ``mu`` coordinates from [n).

    Matches paper Alg. 1 line 5 / Alg. 2 line 6.
    """

    def __init__(self, n: int, mu: int, seed: int | np.random.Generator | None = 0):
        if n < 1:
            raise SolverError(f"n must be >= 1, got {n}")
        if not (1 <= mu <= n):
            raise SolverError(f"mu must be in [1, {n}], got {mu}")
        self.n = int(n)
        self.mu = int(mu)
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else shared_generator(seed)
        )

    def next_block(self) -> np.ndarray:
        """The next block of ``mu`` distinct coordinate indices."""
        return self.rng.choice(self.n, size=self.mu, replace=False)

    def next_blocks(self, k: int) -> list:
        """The next ``k`` blocks: what ``k`` :meth:`next_block` calls give,
        leaving the generator in the same state, from one bounded-integer
        draw.

        ``Generator.choice(n, mu, replace=False)`` runs Floyd's algorithm
        (a draw in ``[0, j]`` for ``j = n - mu, ..., n - 1``; a value drawn
        before becomes ``j``), then a Fisher-Yates shuffle (a draw in
        ``[0, i]`` for ``i = mu - 1, ..., 1``, swapping ``i`` with it).
        Each bounded draw consumes the stream as ``integers`` does for the
        same bound, so one ``integers`` call over all ``k`` blocks' bounds
        yields the same values; the collision rule and the swaps run
        here. Where numpy switches to its tail shuffle (``n > 10000`` and
        ``mu > n // 50``) the blocks are drawn one at a time.
        """
        n, mu = self.n, self.mu
        if n > 10000 and mu > n // 50:
            return [self.next_block() for _ in range(k)]
        bounds = np.concatenate([np.arange(n - mu, n), np.arange(mu - 1, 0, -1)])
        draws = self.rng.integers(0, np.tile(bounds, k), endpoint=True).tolist()
        floyd, swaps, step = range(n - mu, n), range(mu - 1, 0, -1), 2 * mu - 1
        blocks = []
        for at in range(0, k * step, step):
            block, seen = draws[at:at + mu], set()
            for p, j in enumerate(floyd):
                if block[p] in seen:
                    block[p] = j
                seen.add(block[p])
            for i, d in zip(swaps, draws[at + mu:at + step]):
                block[i], block[d] = block[d], block[i]
            blocks.append(block)
        return list(np.array(blocks, dtype=np.int64))


class GroupBlockSampler:
    """Samples whole groups (for Group-Lasso penalties).

    Picks ``groups_per_block`` distinct groups uniformly and returns the
    concatenation of their coordinate indices, so the block prox is valid.
    Block sizes may vary when groups are uneven.
    """

    def __init__(
        self,
        group_ids: np.ndarray,
        groups_per_block: int = 1,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        gid = np.asarray(group_ids, dtype=np.intp).ravel()
        if gid.size == 0:
            raise SolverError("group_ids must be non-empty")
        self.group_ids = gid
        self.groups = np.unique(gid)
        if not (1 <= groups_per_block <= self.groups.size):
            raise SolverError(
                f"groups_per_block must be in [1, {self.groups.size}], "
                f"got {groups_per_block}"
            )
        self.groups_per_block = int(groups_per_block)
        self._members = {g: np.flatnonzero(gid == g) for g in self.groups}
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else shared_generator(seed)
        )

    def next_block(self) -> np.ndarray:
        chosen = self.rng.choice(self.groups, size=self.groups_per_block, replace=False)
        return np.concatenate([self._members[g] for g in chosen])

    def next_blocks(self, k: int) -> list:
        """The next ``k`` blocks, one :meth:`next_block` call each."""
        return [self.next_block() for _ in range(k)]


class RowSampler:
    """Uniform single-row sampler for dual SVM (paper Alg. 3 line 4)."""

    def __init__(self, m: int, seed: int | np.random.Generator | None = 0) -> None:
        if m < 1:
            raise SolverError(f"m must be >= 1, got {m}")
        self.m = int(m)
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else shared_generator(seed)
        )

    def next_index(self) -> int:
        return int(self.rng.integers(0, self.m))

    def next_indices(self, s: int) -> np.ndarray:
        """``s`` consecutive draws (used by SA-SVM; same stream): one
        ``integers`` call gives what ``s`` :meth:`next_index` calls would,
        and leaves the generator in the same state."""
        if s < 1:
            raise SolverError(f"s must be >= 1, got {s}")
        return self.rng.integers(0, self.m, size=s).astype(np.intp, copy=False)
