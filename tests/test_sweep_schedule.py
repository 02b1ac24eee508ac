"""Sweeps overlap their Gram reductions: the schedule contract.

Every engine that runs a sequence of solves (``lasso_path``,
``svm_path``, ``StreamingSweep`` and through it ``replay_schedule`` and
the serve tenants) runs each SA solve on the pipelined ``tau = 0`` ring
by default. Pinned here:

* **same answers, less waiting** — on 2 thread ranks the default run
  equals its ``pipeline=False`` run bit for bit in every point's ``x``
  (and ``alpha``), the recorded metrics, the iteration counts and the
  ``converged`` flags; messages and words are equal, and the modelled
  ``comm_seconds`` falls by exactly the ``comm_seconds_hidden`` the
  ledger credits. Flops are equal too, except that a solve stopped by
  ``tol`` has sampled and packed the next outer step while its last
  reduction was in flight, work the blocking schedule never starts;
* **the reductions really are posted** — under a ``CollectiveTracer``
  the default path posts every Gram reduction nonblocking, leaving only
  the ``lambda_max`` Allreduce and two record syncs per point blocking;
* **the recorded schedule is the one that ran** — a classical solver
  runs blocking without error, ``async_=True`` takes precedence over the
  default ``pipeline=True`` without the mutual-exclusion error, and
  ``PathResult.extras``, the replay report and the serve report say
  ``pipeline: false`` for both;
* **one rank has nothing to overlap** — a sweep on a communicator that
  models one rank (every entry point's default ``virtual_p=1``, and so
  the CV estimators) runs blocking, equal to ``pipeline=False`` in
  every modelled cost, and records ``pipeline: false``;
* **single solves keep their checks** — ``fit_lasso(solver="bcd",
  pipeline=True)`` still raises;
* **the CLI** — ``lasso-path``, ``stream`` and ``serve`` take
  ``--pipeline/--no-pipeline``, on by default, print the same
  objectives either way and name the schedule that ran; ``lasso`` and
  ``svm`` keep ``--pipeline`` off;
* **forked ranks** (``-m slow``) — on 2 process ranks the default
  ``lasso_path`` runs the ring and equals ``pipeline=False`` bit for bit.
"""

import json

import numpy as np
import pytest

from repro import (
    SALassoCV,
    SASVMClassifierCV,
    StreamingSweep,
    fit_lasso,
    lasso_path,
    svm_path,
)
from repro.cli import build_parser, main
from repro.datasets import make_classification, make_sparse_regression
from repro.errors import SolverError
from repro.machine.spec import CRAY_XC30
from repro.mpi.thread_backend import spmd_run
from repro.mpi.tracing import attach_tracer
from repro.serve import TenantSpec, TraceEvent, serve_trace
from repro.solvers.outer import sweep_schedule
from repro.streaming import replay_schedule

SEED = 3
RANKS = 2


@pytest.fixture(scope="module")
def regression():
    A, b, _ = make_sparse_regression(120, 40, density=0.2, seed=SEED)
    return A, b


@pytest.fixture(scope="module")
def classification():
    return make_classification(120, 40, density=0.2, seed=SEED, margin=0.2)


def _same_run(ring, blocking):
    """One solve of the default sweep against the same blocking solve."""
    assert np.array_equal(ring.x, blocking.x)
    if "alpha" in blocking.extras:
        assert np.array_equal(ring.extras["alpha"], blocking.extras["alpha"])
    assert ring.history.iterations == blocking.history.iterations
    assert ring.history.metric == blocking.history.metric
    assert ring.iterations == blocking.iterations
    assert ring.converged == blocking.converged
    rc, bc = ring.cost, blocking.cost
    assert (rc.messages, rc.words) == (bc.messages, bc.words)
    assert rc.comm_seconds + rc.comm_seconds_hidden == pytest.approx(
        bc.comm_seconds, rel=1e-12)
    assert bc.comm_seconds_hidden == 0.0
    if blocking.converged:
        # the prefetch of the step after the converged record
        assert rc.flops > bc.flops
    else:
        assert rc.flops == pytest.approx(bc.flops, rel=1e-12)


def _same_sweep(ring_results, blocking_results):
    assert len(ring_results) == len(blocking_results)
    for ring, blocking in zip(ring_results, blocking_results, strict=True):
        _same_run(ring, blocking)
    # the ring hid some of the reductions' modelled transit
    assert sum(r.cost.comm_seconds_hidden for r in ring_results) > 0.0


class TestSweepSchedule:
    @pytest.mark.parametrize("solver,pipeline,async_,cost_size,want", [
        ("sa-accbcd", True, False, 2, (True, False)),
        ("sa-svm", True, False, 64, (True, False)),
        ("sa-bcd", False, False, 2, (False, False)),
        ("bcd", True, False, 2, (False, False)),
        ("svm", True, False, 2, (False, False)),
        ("sa-accbcd", True, True, 2, (False, True)),
        ("sa-svm", False, True, 2, (False, True)),
        # one rank: nothing to overlap, unless async is asked for
        ("sa-accbcd", True, False, 1, (False, False)),
        ("sa-svm", True, False, 1, (False, False)),
        ("sa-bcd", True, True, 1, (False, True)),
    ])
    def test_resolution(self, solver, pipeline, async_, cost_size, want):
        assert sweep_schedule(solver, pipeline, async_, cost_size) == want


# ---------------------------------------------------------------------------
# same answers, less waiting (2 thread ranks)
# ---------------------------------------------------------------------------
def _lasso_paths(comm, rank, A, b):
    kw = dict(n_lambdas=4, mu=2, s=4, max_iter=48, record_every=4, tol=1e-4,
              seed=SEED)
    ring = lasso_path(A, b, comm=comm, **kw)
    blocking = lasso_path(A, b, comm=comm, pipeline=False, **kw)
    return ring, blocking


def _svm_paths(comm, rank, A, b):
    kw = dict(loss="l1", s=4, max_iter=64, record_every=8, tol=1e-3,
              seed=SEED)
    grid = [0.25, 1.0, 4.0]
    ring = svm_path(A, b, grid, comm=comm, **kw)
    blocking = svm_path(A, b, grid, comm=comm, pipeline=False, **kw)
    return ring, blocking


def _stream(comm, rank, task, A, b, pipeline):
    """A warm refit after every kind of mutation: two appends (the second
    overflows the window, an eviction), an explicit eviction and a
    relabel of the oldest rows."""
    m0 = 60
    sweep = StreamingSweep(
        A[:m0], b[:m0], task=task, comm=comm, max_rows=m0 + 10, mu=2, s=4,
        max_iter=48, record_every=4, tol=1e-4, seed=SEED, pipeline=pipeline,
    )
    results = [sweep.solve(warm_start=False)]
    sweep.append(A[m0:m0 + 8], b[m0:m0 + 8])
    results.append(sweep.solve())
    sweep.append(A[m0 + 8:m0 + 16], b[m0 + 8:m0 + 16])
    results.append(sweep.solve())
    sweep.evict(sweep.surviving_rows()[:3])
    results.append(sweep.solve())
    ids = sweep.surviving_rows()[:4]
    order = sweep.arrival_order()
    pos = np.nonzero(np.isin(order, ids))[0]
    sweep.update_labels(order[pos], -sweep.b[pos])
    results.append(sweep.solve())
    assert [r.rows_removed for r in sweep.revisions] == [0, 0, 6, 3, 0]
    return results, sweep.schedule


class TestSameAnswersLessWaiting:
    def test_lasso_path(self, regression):
        out = spmd_run(_lasso_paths, RANKS, args=regression,
                       machine=CRAY_XC30)
        for ring, blocking in out.values:
            _same_sweep(ring.results, blocking.results)
            assert ring.extras["pipeline"] is True
            assert blocking.extras["pipeline"] is False
        assert any(r.converged for r in out.values[0][0].results)

    def test_svm_path(self, classification):
        out = spmd_run(_svm_paths, RANKS, args=classification,
                       machine=CRAY_XC30)
        for ring, blocking in out.values:
            _same_sweep(ring.results, blocking.results)
            assert ring.extras["pipeline"] is True
            assert blocking.extras["pipeline"] is False

    @pytest.mark.parametrize("task", ["lasso", "svm"])
    def test_streaming_sweep(self, task, regression, classification):
        A, b = regression if task == "lasso" else classification
        ring = spmd_run(_stream, RANKS, args=(task, A, b, True),
                        machine=CRAY_XC30)
        blocking = spmd_run(_stream, RANKS, args=(task, A, b, False),
                            machine=CRAY_XC30)
        for (r_res, r_sched), (b_res, b_sched) in zip(
                ring.values, blocking.values, strict=True):
            _same_sweep(r_res, b_res)
            assert r_sched == {"pipeline": True, "async": False, "tau": 1}
            assert b_sched == {"pipeline": False, "async": False, "tau": 1}


# ---------------------------------------------------------------------------
# the reductions really are posted
# ---------------------------------------------------------------------------
def _traced_path(comm, rank, A, b, pipeline):
    tracer = attach_tracer(comm)
    path = lasso_path(A, b, comm=comm, n_lambdas=4, mu=2, s=4, max_iter=48,
                      tol=None, seed=SEED, pipeline=pipeline)
    return tracer.keys(), path.iterations


class TestTrace:
    def test_default_path_posts_every_gram_reduction(self, regression):
        ring = spmd_run(_traced_path, RANKS, args=(*regression, True))
        blocking = spmd_run(_traced_path, RANKS, args=(*regression, False))
        for (keys, iters), (bkeys, _) in zip(ring.values, blocking.values,
                                             strict=True):
            steps = sum(-(-it // 4) for it in iters)
            assert steps == 4 * 12
            assert keys.count("Iallreduce:vec") == steps
            # what stays blocking: lambda_max, then each point's first
            # and last objective
            assert [k for k in keys if not k.startswith("Iallreduce")] == (
                ["Allreduce:vec"] + ["allreduce:scalar"] * 8)
            # the blocking path makes the same reductions, each waited on
            assert "Iallreduce:vec" not in bkeys
            assert bkeys.count("Allreduce:vec") == 1 + steps
            assert len(bkeys) == len(keys)


# ---------------------------------------------------------------------------
# the recorded schedule is the one that ran
# ---------------------------------------------------------------------------
class TestClassicalAndAsync:
    def test_classical_lasso_path_runs_blocking(self, regression):
        A, b = regression
        kw = dict(n_lambdas=3, solver="bcd", mu=2, max_iter=20, tol=None,
                  seed=SEED, virtual_p=4, machine=CRAY_XC30)
        default = lasso_path(A, b, **kw)
        blocking = lasso_path(A, b, pipeline=False, **kw)
        assert default.extras["pipeline"] is False
        for r, ref in zip(default.results, blocking.results, strict=True):
            assert np.array_equal(r.x, ref.x)
            assert r.cost == ref.cost

    def test_classical_svm_path_runs_blocking(self, classification):
        A, b = classification
        path = svm_path(A, b, [0.5, 2.0], solver="svm", max_iter=40,
                        seed=SEED)
        assert path.extras["pipeline"] is False
        assert all(r.cost.comm_seconds_hidden == 0.0 for r in path.results)

    def test_async_takes_precedence(self, regression):
        A, b = regression
        kw = dict(n_lambdas=3, mu=2, s=4, max_iter=24, tol=None, seed=SEED,
                  async_=True, tau=1, virtual_p=4, machine=CRAY_XC30)
        default = lasso_path(A, b, **kw)
        explicit = lasso_path(A, b, pipeline=False, **kw)
        assert default.extras["pipeline"] is False
        assert default.extras["async"] is True
        for r, ref in zip(default.results, explicit.results, strict=True):
            assert np.array_equal(r.x, ref.x)
            assert r.cost == ref.cost
        assert default.total_cost.max_staleness == 1

    def test_async_stream(self, classification):
        A, b = classification
        sweep = StreamingSweep(A[:80], b[:80], task="svm", s=4, max_iter=32,
                               tol=None, async_=True, tau=2)
        assert sweep.schedule == {"pipeline": False, "async": True, "tau": 2}
        sweep.solve()
        sweep.append(A[80:90], b[80:90])
        assert sweep.solve().cost.max_staleness == 2

    def test_replay_report_records_schedule(self, regression):
        A, b = regression
        events = [(A[80:88], b[80:88]), ("evict_oldest", 4)]
        kw = dict(mu=2, s=4, max_iter=24, tol=None, seed=SEED, virtual_p=4,
                  machine=CRAY_XC30)
        ring = replay_schedule(A[:80], b[:80], events, **kw)
        blocking = replay_schedule(A[:80], b[:80], events, pipeline=False,
                                   **kw)
        classical = replay_schedule(A[:80], b[:80], events, solver="bcd",
                                    **kw)
        assert (ring["pipeline"], ring["async"], ring["tau"]) == (True, False, 1)
        assert blocking["pipeline"] is False and classical["pipeline"] is False
        for e, ref in zip(ring["revisions"], blocking["revisions"],
                          strict=True):
            assert e["warm"]["final_metric"] == ref["warm"]["final_metric"]
            assert e["warm"]["iterations"] == ref["warm"]["iterations"]

    def test_serve_report_records_schedule(self):
        rng = np.random.default_rng(SEED)
        specs = []
        for name, solver in (("sa", "sa-bcd"), ("classical", "bcd"),
                             ("async", "sa-accbcd")):
            knobs = dict(solver=solver, mu=2, s=4, max_iter=24, tol=None)
            if name == "async":
                knobs.update(async_=True, tau=1)
            specs.append(TenantSpec(
                name=name, A=rng.standard_normal((30, 8)),
                b=rng.standard_normal(30), m0=20, knobs=knobs))
        trace = [TraceEvent(0.0, s.name, rows=2) for s in specs]
        rep = serve_trace(specs, trace, virtual_p=4)
        sched = {t["name"]: (t["pipeline"], t["async"]) for t in rep["tenants"]}
        assert sched == {"sa": (True, False), "classical": (False, False),
                         "async": (False, True)}
        assert rep["totals"]["outcomes"]["completed"] == 3
        # at the default virtual_p=1 the SA tenant has nothing to overlap
        rep = serve_trace(specs, trace)
        sched = {t["name"]: (t["pipeline"], t["async"]) for t in rep["tenants"]}
        assert sched == {"sa": (False, False), "classical": (False, False),
                         "async": (False, True)}

    def test_single_solve_keeps_its_checks(self, regression):
        A, b = regression
        with pytest.raises(SolverError, match="pipeline=True needs an SA"):
            fit_lasso(A, b, 0.1, solver="bcd", pipeline=True)


# ---------------------------------------------------------------------------
# one rank has nothing to overlap
# ---------------------------------------------------------------------------
def _same_costs(results, reference):
    for r, ref in zip(results, reference, strict=True):
        assert np.array_equal(r.x, ref.x)
        assert r.history.metric == ref.history.metric
        assert r.cost == ref.cost
        assert r.cost.comm_seconds_hidden == 0.0


class TestOneRank:
    def test_paths_run_blocking(self, regression, classification):
        kw = dict(mu=2, s=4, max_iter=48, record_every=4, tol=1e-4, seed=SEED,
                  machine=CRAY_XC30)
        default = lasso_path(*regression, n_lambdas=4, **kw)
        blocking = lasso_path(*regression, n_lambdas=4, pipeline=False, **kw)
        assert default.extras["pipeline"] is False
        _same_costs(default.results, blocking.results)
        kw = dict(s=4, max_iter=64, record_every=8, tol=1e-3, seed=SEED,
                  machine=CRAY_XC30)
        default = svm_path(*classification, [0.5, 2.0], **kw)
        blocking = svm_path(*classification, [0.5, 2.0], pipeline=False, **kw)
        assert default.extras["pipeline"] is False
        _same_costs(default.results, blocking.results)

    def test_stream_runs_blocking(self, regression):
        A, b = regression
        kw = dict(mu=2, s=4, max_iter=48, record_every=4, tol=1e-4, seed=SEED)
        default = StreamingSweep(A[:80], b[:80], **kw)
        blocking = StreamingSweep(A[:80], b[:80], pipeline=False, **kw)
        assert default.schedule == {"pipeline": False, "async": False, "tau": 1}
        results = []
        for sweep in (default, blocking):
            first = sweep.solve()
            sweep.append(A[80:90], b[80:90])
            results.append([first, sweep.solve()])
        _same_costs(*results)
        # a wider modelled world has reductions to overlap
        assert StreamingSweep(A[:80], b[:80], virtual_p=4, **kw).schedule[
            "pipeline"] is True

    def test_cv_estimators_equal_blocking(self, regression, classification):
        kw = dict(n_lambdas=4, cv=3, mu=2, s=4, max_iter=48, tol=1e-4,
                  seed=SEED)
        default = SALassoCV(**kw).fit(*regression)
        blocking = SALassoCV(pipeline=False, **kw).fit(*regression)
        assert default.lambda_ == blocking.lambda_
        assert default.path_.extras["pipeline"] is False
        _same_costs(default.path_.results, blocking.path_.results)
        kw = dict(n_lambdas=3, cv=3, s=4, max_iter=64, tol=1e-3, seed=SEED)
        default = SASVMClassifierCV(**kw).fit(*classification)
        blocking = SASVMClassifierCV(pipeline=False, **kw).fit(*classification)
        assert default.lambda_ == blocking.lambda_
        _same_costs(default.path_.results, blocking.path_.results)


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------
def _table_rows(out: str, drop_last: bool) -> list:
    """The cells of a printed table's numeric rows, without the
    modelled-time column when ``drop_last``."""
    rows = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if cells[0][:1].isdigit() and len(cells) > 3:
            rows.append(cells[:-1] if drop_last else cells)
    return rows


class TestCli:
    @pytest.mark.parametrize("cmd", ["lasso-path", "stream", "serve"])
    def test_sweep_commands_default_to_the_ring(self, cmd):
        parse = build_parser().parse_args
        assert parse([cmd, "--dataset", "covtype"]).pipeline is True
        assert parse([cmd, "--dataset", "covtype", "--no-pipeline"]).pipeline is False

    @pytest.mark.parametrize("cmd", ["lasso", "svm"])
    def test_single_solve_commands_stay_blocking(self, cmd):
        parse = build_parser().parse_args
        assert parse([cmd, "--dataset", "covtype"]).pipeline is False
        assert parse([cmd, "--dataset", "covtype", "--pipeline"]).pipeline is True
        with pytest.raises(SystemExit):
            parse([cmd, "--dataset", "covtype", "--no-pipeline"])

    def test_lasso_path_no_pipeline_prints_the_same_objectives(self, capsys):
        argv = ["lasso-path", "--dataset", "news20", "--cells", "6000",
                "--n-lambdas", "4", "--mu", "2", "--s", "4", "--max-iter",
                "40", "--p", "4"]
        outs = []
        for extra in ([], ["--no-pipeline"]):
            assert main(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        ring, blocking = outs
        assert _table_rows(ring, True) == _table_rows(blocking, True)
        assert len(_table_rows(ring, True)) == 4
        assert "schedule: pipelined ring" in ring
        assert "schedule: blocking" in blocking
        hidden = [float(o.split(" messages, ")[1].split(" ms of communication")[0])
                  for o in outs]
        assert hidden[0] > 0.0 and hidden[1] == 0.0
        # one modelled rank: the default runs blocking too
        assert main(argv[:-2]) == 0
        one_rank = capsys.readouterr().out
        assert "schedule: blocking" in one_rank
        assert _table_rows(one_rank, False) == _table_rows(blocking, True)

    def test_stream_no_pipeline_prints_the_same_metrics(self, tmp_path,
                                                        capsys):
        argv = ["stream", "--dataset", "covtype", "--cells", "6000",
                "--schedule", "20,-10,~5", "--mu", "2", "--s", "4",
                "--max-iter", "40", "--p", "4"]
        outs, reports = [], []
        for i, extra in enumerate(([], ["--no-pipeline"])):
            save = tmp_path / f"r{i}.json"
            assert main(argv + extra + ["--save", str(save)]) == 0
            outs.append(capsys.readouterr().out)
            reports.append(json.loads(save.read_text()))
        assert _table_rows(outs[0], True) == _table_rows(outs[1], True)
        assert len(_table_rows(outs[0], True)) == 4
        assert reports[0]["pipeline"] is True
        assert reports[1]["pipeline"] is False
        assert "schedule: pipelined ring" in outs[0]
        assert "schedule: blocking" in outs[1]
        ring, blocking = (r["totals"]["warm_refit_cost"] for r in reports)
        assert ring["comm_seconds"] < blocking["comm_seconds"]
        assert ring["comm_seconds"] + ring["comm_seconds_hidden"] == (
            pytest.approx(blocking["comm_seconds"], rel=1e-12))


# ---------------------------------------------------------------------------
# forked ranks
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_process_path_equals_blocking(regression):
    kw = dict(n_lambdas=4, mu=2, s=4, max_iter=48, record_every=4, tol=1e-4,
              seed=SEED, machine=CRAY_XC30, backend="process", ranks=RANKS)
    ring = lasso_path(*regression, **kw)
    blocking = lasso_path(*regression, pipeline=False, **kw)
    assert ring.extras["pipeline"] is True
    assert blocking.extras["pipeline"] is False
    _same_sweep(ring.results, blocking.results)
    for r, ref in zip(ring.results, blocking.results, strict=True):
        assert r.x.tobytes() == ref.x.tobytes()
        assert np.asarray(r.history.metric).tobytes() == (
            np.asarray(ref.history.metric).tobytes())
