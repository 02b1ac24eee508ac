"""Regression tests: the abort taxonomy must outrank every fallback.

The ``sigma_min`` tests pin a handler site where a broad ``except`` used
to swallow ``CommAborted`` / ``RankDiedError`` / ``KeyboardInterrupt``
(an ``abort-swallow`` lint rule fix site). The worker-side report guards
live in forked children and are exercised end-to-end by the
fault-injection suite; the supervisor's redispatch, which decides which
ranks rerun a job after an abort, is pinned here on fakes.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import CommAborted, RankDiedError
from repro.mpi.process_backend import _Supervisor
from repro.solvers.objectives import sigma_min


@pytest.fixture()
def big_sparse():
    # large enough (m * n > 512^2) that sigma_min takes the iterative
    # eigsh path instead of the dense SVD
    return sp.random(600, 600, density=0.01, format="csr", random_state=0)


class TestSigmaMinAbortPropagation:
    @pytest.mark.parametrize(
        "exc", [CommAborted("abort"), RankDiedError("rank died"), KeyboardInterrupt()]
    )
    def test_abort_reraised_not_swallowed_by_dense_fallback(
        self, monkeypatch, big_sparse, exc
    ):
        def dying_eigsh(*args, **kwargs):
            raise exc

        monkeypatch.setattr(spla, "eigsh", dying_eigsh)
        with pytest.raises(type(exc)):
            sigma_min(big_sparse)

    def test_generic_failure_still_falls_back_to_dense(
        self, monkeypatch, big_sparse
    ):
        def singular_gram(*args, **kwargs):
            raise RuntimeError("factorization failed: singular")

        monkeypatch.setattr(spla, "eigsh", singular_gram)
        val = sigma_min(big_sparse)
        assert np.isfinite(val) and val >= 0.0


class _FakeProc:
    def __init__(self, alive: bool):
        self.alive = alive

    def is_alive(self):
        return self.alive


class _FakePipe:
    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)


class TestRedispatch:
    def test_survivor_reruns_held_job_dead_rank_forks_fresh(self):
        """A recovery attempt reaches a parked survivor as ``("run",
        attempt, ctx_state)`` over its pipe (it reruns the job it holds);
        a dead or never-forked rank is forked fresh with the job."""
        sup = _Supervisor.__new__(_Supervisor)
        sup._procs = [_FakeProc(True), _FakeProc(False), None]
        sup._job_w = [_FakePipe(), _FakePipe(), None]
        spawned = []
        sup._spawn = lambda *call: spawned.append(call)
        state = {"mode": "checkpoint", "resume": {"iteration": 3}}
        sup._dispatch(1, state)
        assert sup._job_w[0].sent == [("run", 1, state)]
        assert sup._job_w[1].sent == []
        assert spawned == [(1, 1, state), (2, 1, state)]
