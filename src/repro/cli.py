"""Command-line interface.

Seven subcommands cover the library's workflows:

* ``repro lasso``      — solve a Lasso problem (registry stand-in or
  LIBSVM file);
* ``repro lasso-path`` — warm-started regularization-path sweep over a
  descending lambda grid (one shared cache context);
* ``repro svm``        — train a linear SVM the same way;
* ``repro stream``     — replay a row-arrival schedule through the
  streaming refit engine (warm refits, optional cold baselines);
* ``repro serve``      — multiplex N tenants over one shared backend:
  bounded admission, deadlines, coalesced refits, per-tenant fault
  isolation, trace-replay report with latency percentiles;
* ``repro scaling``    — Fig.-4-style strong-scaling study;
* ``repro plan``       — recommend the unrolling parameter s from the
  analytic Table-I model.

Examples
--------
::

    python -m repro.cli lasso --dataset covtype --solver sa-accbcd --s 16
    python -m repro.cli lasso-path --dataset news20 --n-lambdas 16 --s 16
    python -m repro.cli svm --file data.svm --loss l2 --s 64 --tol 1e-2
    python -m repro.cli stream --dataset covtype --schedule 40,40,20 --compare-cold
    python -m repro.cli serve --dataset covtype --tenants 3 --requests 24
    python -m repro.cli scaling --dataset url --ps 3072,6144,12288 --s 32
    python -m repro.cli plan --dataset covtype --p 3072
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.datasets.libsvm import load_libsvm
from repro.datasets.registry import PAPER_DATASETS
from repro.errors import ReproError
from repro.experiments.runner import (
    LASSO_SOLVERS,
    SVM_SOLVERS,
    load_scaled,
    run_lasso,
    run_svm,
    strong_scaling,
)
from repro.experiments.theory import best_s
from repro.launch import check_launch
from repro.machine.spec import get_machine
from repro.path import lasso_path
from repro.solvers.objectives import lambda_max
from repro.solvers.serialization import save_result
from repro.streaming import replay_schedule
from repro.utils.io import atomic_write_json
from repro.utils.tables import format_series, format_table

__all__ = ["main", "build_parser"]


def _add_data_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=sorted(PAPER_DATASETS),
                     help="paper dataset (synthetic stand-in)")
    src.add_argument("--file", help="LIBSVM-format data file")
    p.add_argument("--cells", type=float, default=30_000.0,
                   help="stand-in size budget m*n (registry datasets)")
    p.add_argument("--seed", type=int, default=0)


def _add_model_args(p: argparse.ArgumentParser, save: bool = True) -> None:
    p.add_argument("--p", type=int, default=1, help="virtual processor count")
    p.add_argument("--machine", default="cray-xc30",
                   help="machine preset: cray-xc30 | commodity | spark-like")
    if save:
        p.add_argument("--save", help="write the SolverResult as JSON here")


def _add_backend_args(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    """Backend, schedule and recovery flags. A sweep command (``sweep``:
    a sequence of solves) overlaps every SA solve's reduction by default
    and takes ``--no-pipeline``; a single solve stays blocking unless
    ``--pipeline`` is given."""
    p.add_argument("--backend", default="virtual",
                   choices=["virtual", "thread", "process"],
                   help="comm backend: virtual (cost model, default), "
                        "thread (real SPMD ranks, shared GIL), or process "
                        "(forked ranks over shared memory, GIL-free)")
    p.add_argument("--ranks", type=int, default=4,
                   help="actual SPMD participants for thread/process "
                        "backends (costs modelled at max(--p, --ranks))")
    p.add_argument("--pipeline", default=sweep,
                   action=argparse.BooleanOptionalAction if sweep else "store_true",
                   help="SA solvers: nonblocking per-outer-step reduction "
                        "with the next block prefetched while in flight"
                        + (" (the default: same iterates as --no-pipeline, "
                           "which waits on each reduction; classical "
                           "solvers, --async and a single modelled rank, "
                           "which has nothing to overlap, ignore it)"
                           if sweep else ""))
    p.add_argument("--async", dest="async_", action="store_true",
                   help="SA solvers: bounded-staleness asynchrony — keep up "
                        "to --tau reductions in flight and step on stale "
                        "Gram/residual data (weaker contract: converges to "
                        "the synchronous objective within tolerance, not "
                        "bit-identically; --tau 0 degenerates to --pipeline)")
    p.add_argument("--tau", type=int, default=1,
                   help="staleness bound for --async: a harvested reduction "
                        "may be up to tau outer steps old")
    p.add_argument("--recover", default="raise",
                   choices=["raise", "checkpoint"],
                   help="process backend: on rank death / repeated comm "
                        "timeouts, respawn the dead ranks and replay from "
                        "the latest checkpoint instead of raising")
    p.add_argument("--max-recoveries", type=int, default=2,
                   help="recovery attempts before the original failure is "
                        "raised (--recover checkpoint)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synchronization-avoiding first-order solvers "
                    "(Devarakonda et al., IPDPS 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lasso = sub.add_parser("lasso", help="solve a Lasso problem")
    _add_data_args(lasso)
    _add_model_args(lasso)
    lasso.add_argument("--solver", default="sa-accbcd",
                       choices=sorted(LASSO_SOLVERS))
    lasso.add_argument("--mu", type=int, default=8)
    lasso.add_argument("--s", type=int, default=16)
    lasso.add_argument("--max-iter", type=int, default=500)
    lasso.add_argument("--lam", type=float, default=None,
                       help="L1 penalty (default: 0.1 * lambda_max)")
    lasso.add_argument("--record-every", type=int, default=50)
    _add_backend_args(lasso)

    lpath = sub.add_parser(
        "lasso-path",
        help="warm-started Lasso regularization-path sweep",
    )
    _add_data_args(lpath)
    _add_model_args(lpath, save=False)  # a sweep is not one SolverResult
    lpath.add_argument("--solver", default="sa-accbcd",
                       choices=["bcd", "sa-bcd", "accbcd", "sa-accbcd"])
    lpath.add_argument("--n-lambdas", type=int, default=16)
    lpath.add_argument("--eps", type=float, default=1e-3,
                       help="grid floor as a fraction of lambda_max")
    lpath.add_argument("--mu", type=int, default=8)
    lpath.add_argument("--s", type=int, default=16)
    lpath.add_argument("--max-iter", type=int, default=500)
    lpath.add_argument("--tol", type=float, default=1e-6)
    lpath.add_argument("--record-every", type=int, default=10)
    lpath.add_argument("--cold", action="store_true",
                       help="disable warm starts (independent solves that "
                            "still share the sweep caches)")
    lpath.add_argument("--adaptive", action="store_true",
                       help="loose tol/iteration budgets early on the grid, "
                            "tight at the end (final point runs at exactly "
                            "--tol/--max-iter)")
    _add_backend_args(lpath, sweep=True)

    stream = sub.add_parser(
        "stream",
        help="replay a row-arrival schedule through the streaming "
             "refit engine",
    )
    _add_data_args(stream)
    _add_model_args(stream)
    stream.add_argument("--task", default="auto", choices=["auto", "lasso", "svm"],
                        help="problem family (auto: from the dataset registry; "
                             "LIBSVM files default to lasso)")
    stream.add_argument("--schedule", default="",
                        help="comma-separated streaming events, replayed in "
                             "order: N or +N appends the next N rows of the "
                             "dataset tail, -N evicts the N oldest surviving "
                             "rows, ~N rewrites the labels of the N oldest "
                             "surviving rows (negated in place), @S idles S "
                             "virtual seconds without refitting. A schedule "
                             "starting with an eviction needs the "
                             "--schedule=\"-N,...\" form (argparse reads a "
                             "bare leading dash as an option). Default: "
                             "--batches equal appends of --batch-frac rows "
                             "each")
    stream.add_argument("--window", type=int, default=None,
                        help="sliding count window (StreamingSweep max_rows): "
                             "each append auto-evicts the oldest rows beyond "
                             "this many, within the same revision")
    stream.add_argument("--batches", type=int, default=3,
                        help="number of arrival batches when --schedule is "
                             "not given")
    stream.add_argument("--batch-frac", type=float, default=0.05,
                        help="rows per default batch, as a fraction of the "
                             "dataset")
    stream.add_argument("--solver", default=None,
                        help="solver override (default: sa-accbcd / sa-svm)")
    stream.add_argument("--loss", default="l2", choices=["l1", "l2"],
                        help="SVM loss (svm task only)")
    stream.add_argument("--lam", type=float, default=None,
                        help="penalty (default: 0.1*lambda_max of the initial "
                             "data for lasso, 1.0 for svm)")
    stream.add_argument("--mu", type=int, default=8)
    stream.add_argument("--s", type=int, default=16)
    stream.add_argument("--max-iter", type=int, default=1000)
    stream.add_argument("--tol", type=float, default=1e-8,
                        help="stopping tolerance (objective change for lasso, "
                             "duality gap for svm)")
    stream.add_argument("--record-every", type=int, default=10)
    stream.add_argument("--cold", action="store_true",
                        help="disable warm starts (each refit restarts from "
                             "zero; the engine caches still persist)")
    stream.add_argument("--compare-cold", action="store_true",
                        help="also run a cold re-solve on the concatenated "
                             "data at every revision and report the ratio")
    stream.add_argument("--checkpoint", metavar="PATH",
                        help="write a resumable replay checkpoint here "
                             "(atomically, after the initial fit and after "
                             "every schedule event)")
    stream.add_argument("--resume", metavar="PATH",
                        help="continue a killed replay from a --checkpoint "
                             "file; pass the same data/schedule/knobs — the "
                             "already-applied events are skipped and the "
                             "final report matches an uninterrupted run")
    _add_backend_args(stream, sweep=True)

    serve = sub.add_parser(
        "serve",
        help="multi-tenant serving: admission control, deadlines, "
             "coalesced refits, per-tenant fault isolation",
    )
    _add_data_args(serve)
    _add_model_args(serve)
    serve.add_argument("--tenants", type=int, default=3,
                       help="tenant count; the dataset's rows are split "
                            "into contiguous per-tenant blocks (tenants "
                            "are named t0..tN-1)")
    serve.add_argument("--task", default="auto",
                       choices=["auto", "lasso", "svm"])
    serve.add_argument("--tail-frac", type=float, default=0.3,
                       help="fraction of each tenant's block held out of "
                            "the onboarding fit and consumed by appends")
    serve.add_argument("--trace", metavar="PATH",
                       help="timestamped arrival trace (JSON/JSONL with "
                            "t/tenant/op/rows records; tenant names must "
                            "be t0..tN-1); default: a synthetic trace")
    serve.add_argument("--requests", type=int, default=24,
                       help="synthetic trace: request count")
    serve.add_argument("--gap", type=float, default=0.0,
                       help="synthetic trace: mean inter-arrival gap in "
                            "virtual seconds (0 = one burst at t=0)")
    serve.add_argument("--rows", type=int, default=2,
                       help="synthetic trace: rows per append/predict")
    serve.add_argument("--predict-frac", type=float, default=0.25,
                       help="synthetic trace: fraction of predict requests")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="bounded admission queue; a full queue rejects "
                            "with a typed retry-after error")
    serve.add_argument("--max-coalesce", type=int, default=8,
                       help="consecutive appends batched into one refit")
    serve.add_argument("--deadline", type=float, default=None,
                       help="default per-request deadline in virtual "
                            "seconds from arrival (expired requests fail; "
                            "an all-late refit is rolled back)")
    serve.add_argument("--max-faults", type=int, default=1,
                       help="per-tenant fault budget before quarantine "
                            "(last-good model stays servable)")
    serve.add_argument("--solver", default=None,
                       help="solver override (default: sa-accbcd / sa-svm)")
    serve.add_argument("--loss", default="l2", choices=["l1", "l2"])
    serve.add_argument("--lam", type=float, default=None)
    serve.add_argument("--mu", type=int, default=8)
    serve.add_argument("--s", type=int, default=16)
    serve.add_argument("--max-iter", type=int, default=1000)
    serve.add_argument("--tol", type=float, default=1e-8)
    serve.add_argument("--checkpoint", metavar="PATH",
                       help="write a resumable serve-engine checkpoint "
                            "here (atomically, after every dispatch)")
    serve.add_argument("--resume", metavar="PATH",
                       help="continue a killed serving run from a "
                            "--checkpoint file (same data/trace/knobs)")
    _add_backend_args(serve, sweep=True)

    svm = sub.add_parser("svm", help="train a linear SVM")
    _add_data_args(svm)
    _add_model_args(svm)
    svm.add_argument("--solver", default="sa-svm-l1",
                     choices=sorted(SVM_SOLVERS))
    svm.add_argument("--loss", default=None, choices=["l1", "l2"],
                     help="override the loss implied by --solver")
    svm.add_argument("--s", type=int, default=64)
    svm.add_argument("--lam", type=float, default=1.0)
    svm.add_argument("--max-iter", type=int, default=5000)
    svm.add_argument("--tol", type=float, default=None,
                     help="duality-gap stopping tolerance")
    svm.add_argument("--record-every", type=int, default=500)
    _add_backend_args(svm)

    scaling = sub.add_parser("scaling", help="strong-scaling study (Fig. 4)")
    _add_data_args(scaling)
    scaling.add_argument("--solver", default="acccd",
                         choices=[k for k in LASSO_SOLVERS if not k.startswith("sa-")])
    scaling.add_argument("--ps", default="768,1536,3072",
                         help="comma-separated processor counts")
    scaling.add_argument("--s", type=int, default=16)
    scaling.add_argument("--mu", type=int, default=1)
    scaling.add_argument("--max-iter", type=int, default=256)
    scaling.add_argument("--machine", default="cray-xc30")

    plan = sub.add_parser("plan", help="recommend s from the Table-I model")
    plan.add_argument("--dataset", choices=sorted(PAPER_DATASETS), required=True)
    plan.add_argument("--p", type=int, required=True)
    plan.add_argument("--mu", type=int, default=1)
    plan.add_argument("--h", type=int, default=1000)
    plan.add_argument("--machine", default="cray-xc30")

    lint = sub.add_parser(
        "lint", help="static analysis of the SPMD contract (docs/ANALYSIS.md)"
    )
    lint.add_argument("paths", nargs="+",
                      help="python files or directories to analyze")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      help="findings output format")
    lint.add_argument("--output", default=None,
                      help="also write the JSON report to this path")

    return parser


def _load_problem(args):
    if args.dataset:
        ds = load_scaled(args.dataset, target_cells=args.cells, seed=args.seed)
        return ds
    A, b = load_libsvm(args.file)
    from repro.experiments.runner import ScaledDataset
    from repro.utils.validation import nnz_of

    return ScaledDataset(
        name=args.file, A=A, b=b, x_true=None,
        paper_nnz=float(nnz_of(A)), actual_nnz=float(nnz_of(A)),
        m_full=A.shape[0], n_full=A.shape[1],
        task="lasso",
    )


def _cmd_lasso(args) -> int:
    ds = _load_problem(args)
    lam = args.lam if args.lam is not None else 0.1 * lambda_max(ds.A, ds.b)
    res = run_lasso(
        ds, args.solver, mu=args.mu, s=args.s, max_iter=args.max_iter,
        P=args.p, machine=get_machine(args.machine), seed=args.seed,
        record_every=args.record_every, lam=lam,
        pipeline=args.pipeline, async_=args.async_, tau=args.tau,
        backend=args.backend, ranks=args.ranks,
        recover=args.recover, max_recoveries=args.max_recoveries,
    )
    h = res.history
    print(format_series(res.solver, h.iterations, h.metric,
                        "iteration", "objective"))
    print(f"final objective: {res.final_metric:.8g}  "
          f"(lambda={lam:.4g}, {res.iterations} iterations)")
    nz = int(np.count_nonzero(res.x))
    print(f"solution: {nz}/{res.x.shape[0]} non-zeros")
    if args.p > 1:
        print(f"modelled time at P={args.p} on {args.machine}: "
              f"{res.cost.seconds * 1e3:.4g} ms "
              f"({res.cost.messages} messages)")
    if args.save:
        save_result(args.save, res)
        print(f"saved to {args.save}")
    return 0


def _schedule_line(sched: dict) -> str:
    """Name the schedule a sweep's solves ran (``sched`` holds the
    ``pipeline``, ``async`` and ``tau`` a path or replay records)."""
    if sched["async"]:
        return f"schedule: async ring (tau={sched['tau']})"
    return "schedule: " + ("pipelined ring" if sched["pipeline"] else "blocking")


def _cmd_lasso_path(args) -> int:
    ds = _load_problem(args)
    path = lasso_path(
        ds.A, ds.b, n_lambdas=args.n_lambdas, eps=args.eps,
        solver=args.solver, mu=args.mu, s=args.s, max_iter=args.max_iter,
        tol=args.tol, seed=args.seed, record_every=args.record_every,
        warm_start=not args.cold,
        pipeline=args.pipeline, async_=args.async_, tau=args.tau,
        adaptive=args.adaptive, backend=args.backend, ranks=args.ranks,
        virtual_p=args.p, machine=get_machine(args.machine),
        recover=args.recover, max_recoveries=args.max_recoveries,
    )
    n = path.results[0].x.shape[0]
    # like `repro lasso`, modelled time is only meaningful at modelled
    # P > 1 (a 1-rank tree Allreduce has zero rounds); thread/process
    # runs model costs at max(--p, --ranks) ranks
    model_p = args.p if args.backend == "virtual" else max(args.p, args.ranks)
    headers = ["lambda", "iters", "support", "objective"]
    if model_p > 1:
        headers.append("model ms")
    rows = []
    for lam, res, nnz in zip(path.lambdas, path.results,
                             path.support_sizes(1e-10), strict=True):
        row = [f"{lam:.4g}", res.iterations, f"{nnz}/{n}",
               f"{res.final_metric:.6g}"]
        if model_p > 1:
            row.append(f"{res.cost.seconds * 1e3:.4g}")
        rows.append(row)
    mode = "cold (shared caches)" if args.cold else "warm-started"
    print(format_table(
        headers,
        rows,
        title=f"{args.solver} regularization path, {mode} "
              f"(mu={args.mu}, s={args.s})",
    ))
    print(f"total iterations: {sum(path.iterations)}")
    print(_schedule_line(path.extras))
    total = path.total_cost
    if model_p > 1:
        print(f"total modelled time at P={model_p} on {args.machine}: "
              f"{total.seconds * 1e3:.4g} ms "
              f"({total.messages} messages, "
              f"{total.comm_seconds_hidden * 1e3:.4g} ms of communication hidden)")
    return 0


def _stream_schedule(args, m: int) -> list:
    """Streaming event ops from --schedule or --batches/--batch-frac.

    Returns ``(op, count)`` pairs: ``("append", N)`` consumes the next N
    rows of the dataset tail, ``("evict", N)`` retires the N oldest
    surviving rows, ``("labels", N)`` negates the N oldest surviving
    rows' labels in place, and ``("sleep", S)`` advances virtual time by
    S seconds without refitting (``@S`` tokens).
    """
    ops = []
    if args.schedule:
        for tok in (t.strip() for t in args.schedule.split(",") if t.strip()):
            if tok.startswith("@"):
                # virtual-time gap between events (no rows, no refit)
                try:
                    seconds = float(tok[1:])
                except ValueError:
                    raise ReproError(
                        f"bad schedule token {tok!r}: @S needs a number of "
                        "virtual seconds"
                    ) from None
                if not seconds > 0:
                    raise ReproError(
                        f"sleep token {tok!r} needs positive seconds"
                    )
                ops.append(("sleep", seconds))
                continue
            kind, digits = "append", tok.lstrip("+")
            if tok.startswith("-"):
                kind, digits = "evict", tok[1:]
            elif tok.startswith("~"):
                kind, digits = "labels", tok[1:]
            try:
                count = int(digits)
            except ValueError:
                raise ReproError(
                    f"bad schedule token {tok!r}: expected N, +N, -N, or ~N "
                    "row counts, or @S virtual-time sleeps"
                ) from None
            ops.append((kind, count))
    else:
        k = max(1, int(round(args.batch_frac * m)))
        ops = [("append", k)] * args.batches
    if not ops or any(c < 1 for op, c in ops if op != "sleep"):
        raise ReproError(
            f"schedule events need positive row counts, got {args.schedule!r}"
        )
    appended = sum(c for op, c in ops if op == "append")
    if appended >= m:
        raise ReproError(
            f"schedule consumes {appended} rows but the dataset has only "
            f"{m} (the initial fit needs at least one row)"
        )
    return ops


def _cmd_stream(args) -> int:
    ds = _load_problem(args)
    task = args.task if args.task != "auto" else getattr(ds, "task", "lasso")
    machine = get_machine(args.machine)
    m = ds.A.shape[0]
    ops = _stream_schedule(args, m)
    # replay: the appended rows are held out of the initial fit and
    # arrive event by event, oldest data first; evictions and label
    # edits target the oldest surviving rows
    m0 = m - sum(c for op, c in ops if op == "append")
    A0, b0 = ds.A[:m0], ds.b[:m0]
    events = []
    lo = m0
    for op, c in ops:
        if op == "append":
            events.append((ds.A[lo:lo + c], ds.b[lo:lo + c]))
            lo += c
        elif op == "evict":
            events.append(("evict_oldest", c))
        elif op == "sleep":
            events.append(("sleep", c))
        else:
            events.append(("relabel_oldest", c))
    report = replay_schedule(
        A0, b0, events, task=task, max_rows=args.window, lam=args.lam,
        solver=args.solver,
        loss=args.loss, mu=args.mu, s=args.s, max_iter=args.max_iter,
        tol=args.tol, seed=args.seed, record_every=args.record_every,
        pipeline=args.pipeline, async_=args.async_, tau=args.tau,
        backend=args.backend, ranks=args.ranks, virtual_p=args.p,
        machine=machine, warm_start=not args.cold,
        compare_cold=args.compare_cold,
        checkpoint_path=args.checkpoint, resume_from=args.resume,
        recover=args.recover, max_recoveries=args.max_recoveries,
    )
    headers = ["rev", "rows", "+rows", "-rows", "~rows", "iters", "metric",
               "model ms"]
    if args.compare_cold:
        headers += ["cold ms", "warm/cold"]
    rows = []
    for e in report["revisions"]:
        w = e["warm"]
        refit = (w["cost"]["seconds"] + e["append_cost"]["seconds"]
                 + e["evict_cost"]["seconds"])
        row = [e["rev"], e["rows_total"], e["rows_added"], e["rows_removed"],
               e["labels_changed"],
               w["iterations"], f"{w['final_metric']:.6g}",
               f"{refit * 1e3:.4g}"]
        if args.compare_cold:
            if e["cold"] is not None:
                row += [f"{e['cold']['cost']['seconds'] * 1e3:.4g}",
                        f"{refit / max(e['cold']['cost']['seconds'], 1e-300):.3f}"]
            else:
                row += ["-", "-"]
        rows.append(row)
    mode = "warm refits" if not args.cold else "cold restarts (shared caches)"
    print(format_table(
        headers, rows,
        title=f"streaming {task} ({report['solver']}), {mode}, "
              f"lam={report['lam']:.4g}" if report["lam"] is not None else
              f"streaming {task} ({report['solver']}), {mode}",
    ))
    totals = report["totals"]
    print(_schedule_line(report))
    print(f"total warm refit modelled time: "
          f"{totals['warm_refit_cost']['seconds'] * 1e3:.4g} ms")
    if totals["cold_resolve_cost"] is not None:
        cold_s = totals["cold_resolve_cost"]["seconds"]
        warm_s = totals["warm_refit_cost"]["seconds"]
        print(f"total cold re-solve modelled time: {cold_s * 1e3:.4g} ms "
              f"(warm/cold {warm_s / max(cold_s, 1e-300):.3f})")
    if args.save:
        atomic_write_json(args.save, report)
        print(f"saved to {args.save}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import TenantSpec, load_trace, serve_trace, synthetic_trace

    check_launch(args.backend, args.recover)
    ds = _load_problem(args)
    task = args.task if args.task != "auto" else getattr(ds, "task", "lasso")
    machine = get_machine(args.machine)
    m = ds.A.shape[0]
    if args.tenants < 1:
        raise ReproError(f"--tenants must be >= 1, got {args.tenants}")
    block = m // args.tenants
    if block < 4:
        raise ReproError(
            f"dataset has {m} rows; too few for {args.tenants} tenants "
            f"(each needs at least 4 rows)"
        )
    if not 0.0 < args.tail_frac < 1.0:
        raise ReproError(
            f"--tail-frac must be in (0, 1), got {args.tail_frac}"
        )
    knobs = dict(
        solver=args.solver, loss=args.loss, mu=args.mu, s=args.s,
        max_iter=args.max_iter, tol=args.tol, seed=args.seed,
        pipeline=args.pipeline, async_=args.async_, tau=args.tau,
    )
    specs, budget = [], {}
    for i in range(args.tenants):
        name = f"t{i}"
        lo = i * block
        tail = max(1, int(round(args.tail_frac * block)))
        m0 = block - tail
        specs.append(TenantSpec(
            name=name, A=ds.A[lo:lo + block], b=ds.b[lo:lo + block],
            m0=m0, task=task, lam=args.lam, knobs=knobs,
        ))
        budget[name] = tail
    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = synthetic_trace(
            [s.name for s in specs], args.requests, seed=args.seed,
            mean_gap=args.gap, rows=args.rows,
            predict_frac=args.predict_frac, deadline=None,
            append_budget=budget,
        )
    report = serve_trace(
        specs, trace, queue_depth=args.queue_depth,
        max_coalesce=args.max_coalesce, deadline=args.deadline,
        tenant_max_faults=args.max_faults, backend=args.backend,
        ranks=args.ranks, virtual_p=args.p, machine=machine,
        recover=args.recover, max_recoveries=args.max_recoveries,
        checkpoint_path=args.checkpoint, resume_from=args.resume,
    )
    rows = []
    for t in report["tenants"]:
        req = t["requests"]
        cost_ms = (t["cost"]["setup"]["seconds"]
                   + t["cost"]["serve"]["seconds"]) * 1e3
        rows.append([
            t["name"], t["state"], req["completed"], req["rejected"],
            req["timed_out"], req["failed"] + req["quarantined"],
            f"{t['latency']['p50'] * 1e3:.4g}",
            f"{t['latency']['p99'] * 1e3:.4g}",
            f"{cost_ms:.4g}",
        ])
    print(format_table(
        ["tenant", "state", "ok", "rej", "late", "fail", "p50 ms",
         "p99 ms", "cost ms"],
        rows,
        title=f"serving {len(specs)} {task} tenants "
              f"(queue depth {args.queue_depth}, "
              f"coalesce {args.max_coalesce})",
    ))
    tot = report["totals"]
    out = tot["outcomes"]
    print(f"requests: {tot['requests']}  completed {out['completed']}  "
          f"rejected {out['rejected']}  timed out {out['timed_out']}  "
          f"failed {out['failed']}  quarantined {out['quarantined']}")
    print(f"makespan {tot['makespan_seconds'] * 1e3:.4g} ms "
          f"(idle {tot['idle_seconds'] * 1e3:.4g} ms), "
          f"throughput {tot['throughput_rps']:.4g} req/s, "
          f"p50/p95/p99 {tot['latency']['p50'] * 1e3:.4g}/"
          f"{tot['latency']['p95'] * 1e3:.4g}/"
          f"{tot['latency']['p99'] * 1e3:.4g} ms")
    rec = report["recovery"]
    if rec["recoveries"] or rec["replayed_requests"]:
        print(f"recovery: {rec['recoveries']} recoveries, "
              f"{rec['respawns']} respawns, "
              f"{rec['replayed_requests']} requests replayed")
    if args.save:
        atomic_write_json(args.save, report)
        print(f"saved to {args.save}")
    return 0


def _cmd_svm(args) -> int:
    ds = _load_problem(args)
    solver = args.solver
    if args.loss:
        base = "sa-svm" if solver.startswith("sa-") else "svm"
        solver = f"{base}-{args.loss}"
    res = run_svm(
        ds, solver, s=args.s, lam=args.lam, max_iter=args.max_iter,
        P=args.p, machine=get_machine(args.machine), seed=args.seed,
        record_every=args.record_every, tol=args.tol,
        pipeline=args.pipeline, async_=args.async_, tau=args.tau,
        backend=args.backend, ranks=args.ranks,
        recover=args.recover, max_recoveries=args.max_recoveries,
    )
    h = res.history
    print(format_series(res.solver, h.iterations, h.metric,
                        "iteration", "duality gap"))
    status = "converged" if res.converged else "budget exhausted"
    print(f"final duality gap: {res.final_metric:.6g} "
          f"({res.iterations} iterations, {status})")
    if args.p > 1:
        print(f"modelled time at P={args.p} on {args.machine}: "
              f"{res.cost.seconds * 1e3:.4g} ms")
    if args.save:
        save_result(args.save, res)
        print(f"saved to {args.save}")
    return 0


def _cmd_scaling(args) -> int:
    ds = _load_problem(args)
    Ps = [int(x) for x in args.ps.split(",") if x]
    machine = get_machine(args.machine)
    base = strong_scaling(ds, args.solver, Ps, mu=args.mu,
                          max_iter=args.max_iter, machine=machine, lam=1.0)
    sa = strong_scaling(ds, "sa-" + args.solver, Ps, s=args.s, mu=args.mu,
                        max_iter=args.max_iter, machine=machine, lam=1.0)
    rows = [
        [p0.P, f"{p0.seconds * 1e3:.4g}", f"{p1.seconds * 1e3:.4g}",
         f"{p0.seconds / p1.seconds:.2f}x"]
        for p0, p1 in zip(base, sa, strict=True)
    ]
    print(format_table(
        ["P", f"{args.solver} (ms)", f"sa-{args.solver} s={args.s} (ms)",
         "speedup"],
        rows,
        title=f"strong scaling on {args.machine} ({args.max_iter} iterations)",
    ))
    return 0


def _cmd_plan(args) -> int:
    spec = PAPER_DATASETS[args.dataset]
    m, n = spec.dims(as_reported=False)
    machine = get_machine(args.machine)
    s_star, speedup = best_s(machine, args.h, args.mu, spec.density, m, n,
                             args.p)
    print(f"{args.dataset} (m={m:,}, n={n:,}, f={spec.density:.2%}) "
          f"at P={args.p} on {args.machine}:")
    print(f"  recommended s = {s_star}  "
          f"(modelled speedup {speedup:.2f}x over s=1)")
    return 0


def _cmd_lint(args) -> int:
    import json as _json

    from repro.analyze import findings_to_json, lint_paths

    result = lint_paths(args.paths)
    report = findings_to_json(result.findings, paths=args.paths)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        for f in result.findings:
            if f.actionable:
                print(f.format())
        c = report["counts"]
        print(
            f"{len(result.paths)} file(s): {c['actionable']} actionable "
            f"finding(s) ({c['suppressed']} suppressed)"
        )
    return result.exit_code


_COMMANDS = {
    "lasso": _cmd_lasso,
    "lasso-path": _cmd_lasso_path,
    "svm": _cmd_svm,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "scaling": _cmd_scaling,
    "plan": _cmd_plan,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
