"""Collective-schedule verification: static model vs recorded runtime.

The contract closed here, for every solver family x mode:

1. :func:`repro.analyze.expected_schedule` — the statically generated
   per-rank collective sequence — equals the runtime trace recorded by
   :class:`repro.mpi.tracing.CollectiveTracer`, event for event, on the
   virtual backend and on every rank of the thread backend.
2. The ops the runtime executes are contained in the AST-extracted
   :func:`repro.analyze.static_alphabet` (over-approximation direction),
   and the alphabet is *tight* where it matters: the blocking mode can
   never post a nonblocking collective.

A collective added, dropped, or reordered in a solver then fails these
tests as a sequence diff instead of hanging a world.
"""

from __future__ import annotations

import pytest

from repro.analyze import (
    FAMILIES,
    MODES,
    ScheduleParams,
    expected_schedule,
    static_alphabet,
)
from repro.datasets import make_classification, make_sparse_regression
from repro.machine.spec import CRAY_XC30
from repro.mpi.thread_backend import spmd_run
from repro.mpi.tracing import attach_tracer
from repro.mpi.virtual_backend import VirtualComm


@pytest.fixture(scope="module")
def lasso_problem():
    return make_sparse_regression(40, 24, density=0.3, seed=0)


@pytest.fixture(scope="module")
def svm_problem():
    return make_classification(30, 20, density=0.5, seed=1)


def _run_solver(family, comm, params: ScheduleParams, mode: str, problem):
    from repro.solvers.lasso import sa_acc_bcd, sa_bcd
    from repro.solvers.svm import sa_dcd

    mode_kw = {}
    if mode == "pipeline":
        mode_kw["pipeline"] = True
    elif mode == "async":
        mode_kw.update(async_=True, tau=params.tau)

    common = dict(
        s=params.s,
        max_iter=params.max_iter,
        record_every=params.record_every,
        seed=0,
        comm=comm,
        **mode_kw,
    )
    if family == "lasso-plain":
        A, b, _ = problem
        sa_bcd(A, b, 0.5, mu=1, **common)
    elif family == "lasso-acc":
        A, b, _ = problem
        sa_acc_bcd(A, b, 0.9, mu=1, **common)
    else:
        A, b = problem
        sa_dcd(A, b, loss="l1", **common)


def _problem_for(family, lasso_problem, svm_problem):
    return svm_problem if family == "svm" else lasso_problem


#: parameter grids covering truncated final chunks, record cadences that
#: skip iterations, record_every=0 (final-record-only), and tau=0 async
_PARAM_GRID = [
    ScheduleParams(max_iter=11, s=4, record_every=1, tau=1),
    ScheduleParams(max_iter=8, s=3, record_every=2, tau=2),
    ScheduleParams(max_iter=5, s=5, record_every=0, tau=0),
]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("params", _PARAM_GRID, ids=lambda p: (
    f"H{p.max_iter}-s{p.s}-r{p.record_every}-t{p.tau}"
))
def test_virtual_trace_matches_model(
    family, mode, params, lasso_problem, svm_problem
):
    comm = VirtualComm(4, machine=CRAY_XC30)
    tracer = attach_tracer(comm)
    _run_solver(
        family, comm, params, mode, _problem_for(family, lasso_problem, svm_problem)
    )
    assert tracer.keys() == expected_schedule(family, mode, params)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODES)
def test_thread_ranks_agree_and_match_model(
    family, mode, lasso_problem, svm_problem
):
    params = ScheduleParams(max_iter=9, s=4, record_every=2, tau=1)
    problem = _problem_for(family, lasso_problem, svm_problem)

    def run_rank(comm, rank):
        tracer = attach_tracer(comm)
        _run_solver(family, comm, params, mode, problem)
        return tracer.keys()

    # async keeps tau + 1 reductions in flight and needs ring slack
    result = spmd_run(run_rank, 2, nb_depth=params.tau + 2)
    schedules = list(result.values)
    assert len(schedules) == 2
    # the SPMD contract: every rank executes the identical sequence
    assert schedules[0] == schedules[1]
    assert schedules[0] == expected_schedule(family, mode, params)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODES)
def test_runtime_ops_within_static_alphabet(
    family, mode, lasso_problem, svm_problem
):
    comm = VirtualComm(2, machine=CRAY_XC30)
    tracer = attach_tracer(comm)
    params = ScheduleParams(max_iter=6, s=3, record_every=1, tau=1)
    _run_solver(
        family, comm, params, mode, _problem_for(family, lasso_problem, svm_problem)
    )
    alphabet = static_alphabet(family, mode)
    runtime_ops = tracer.ops()
    assert runtime_ops <= alphabet, (
        f"runtime executed {sorted(runtime_ops - alphabet)} "
        f"outside the static alphabet {sorted(alphabet)}"
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_blocking_alphabet_has_no_nonblocking_post(family):
    # partial evaluation of async_/pipeline=False must kill the NB arms
    assert "Iallreduce" not in static_alphabet(family, "blocking")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", ["pipeline", "async"])
def test_overlapped_alphabets_include_nonblocking_post(family, mode):
    assert "Iallreduce" in static_alphabet(family, mode)


# -- model structure (no solver runs) ---------------------------------------


def test_expected_schedule_blocking_structure():
    params = ScheduleParams(max_iter=4, s=2, record_every=1)
    got = expected_schedule("lasso-plain", "blocking", params)
    assert got == [
        "Allreduce:vec",  # outer step 1, carrying the iteration-0 record
        "Allreduce:vec",  # outer step 2, carrying iteration 2's record
        "allreduce:scalar",  # the final iterate's record
    ]


def test_expected_schedule_async_warmup_and_drain():
    # 3 chunks, tau=1 -> 2 warmup posts, 1 steady-state post, drain silent
    params = ScheduleParams(max_iter=6, s=2, record_every=0, tau=1)
    got = expected_schedule("lasso-plain", "async", params)
    assert got.count("Iallreduce:vec") == 3
    # the first post carries the iteration-0 record
    assert got[:2] == ["Iallreduce:vec", "Iallreduce:vec"]
    # record_every=0 -> exactly the final record, after the loop
    assert got[3:] == ["allreduce:scalar"]


def test_expected_schedule_async_closes_once():
    # 4 chunks, tau=2 -> the records at 4 and 6 have no later post: their
    # words join the final record's in one closing allreduce (vector),
    # and the SVM's stacked partials in one Allgather
    params = ScheduleParams(max_iter=8, s=2, record_every=2, tau=2)
    got = expected_schedule("lasso-acc", "async", params)
    assert got == ["Iallreduce:vec"] * 4 + ["allreduce:vec"]
    assert expected_schedule("svm", "async", params) == (
        ["Iallreduce:vec"] * 4 + ["Allgather:vec"])
    # records every 4 fall on carried boundaries: the final one alone
    params = ScheduleParams(max_iter=8, s=2, record_every=4, tau=1)
    assert expected_schedule("lasso-plain", "async", params)[-1] == (
        "allreduce:scalar")


def test_expected_schedule_svm_tail_gather():
    params = ScheduleParams(max_iter=3, s=3, record_every=0)
    got = expected_schedule("svm", "blocking", params)
    # the one outer step carries the iteration-0 record; the final
    # record is one Allgather that also gathers the primal the result
    # returns, so the gather is the very last collective
    assert got == ["Allreduce:vec", "Allgather:vec"]


def test_expected_schedule_rejects_unknowns():
    params = ScheduleParams(max_iter=1)
    with pytest.raises(ValueError):
        expected_schedule("ridge", "blocking", params)
    with pytest.raises(ValueError):
        expected_schedule("svm", "bulk", params)


def test_schedule_params_validation():
    with pytest.raises(ValueError):
        ScheduleParams(max_iter=0)
    with pytest.raises(ValueError):
        ScheduleParams(max_iter=1, s=0)
    with pytest.raises(ValueError):
        ScheduleParams(max_iter=1, tau=-1)


#: the alphabets extraction proves for each family x mode
_ALPHABETS = {
    ("lasso", "blocking"): {"Allreduce", "allreduce"},
    # a post sums a record tail too large for its slot in a blocking
    # Allreduce of its own
    ("lasso", "pipeline"): {"Allgather", "Allreduce", "Iallreduce", "allreduce"},
    ("lasso", "async"): {"Allgather", "Allreduce", "Iallreduce", "allreduce"},
    ("svm", "blocking"): {"Allgather", "Allreduce", "allreduce"},
    ("svm", "pipeline"): {"Allgather", "Allreduce", "Iallreduce", "allreduce"},
    ("svm", "async"): {"Allgather", "Allreduce", "Iallreduce", "allreduce"},
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODES)
def test_static_alphabet_is_pinned(family, mode):
    # each family's hooks resolve on its own state class: a Lasso
    # alphabet never picks up SVM's gap matvec or primal gather
    want = _ALPHABETS[("svm" if family == "svm" else "lasso", mode)]
    assert static_alphabet(family, mode) == want
