"""Wall-clock benchmark of the SA solvers: four workloads, end to end and
per layer.

Run from the repository root::

    python3 benchmarks/suite/run.py --seed 0                   # all workloads
    python3 benchmarks/suite/run.py --workload path-16 --seed 3
    python3 benchmarks/suite/run.py --workload fig3-solve --trace --trace-out fig3.json
    python3 benchmarks/suite/run.py compare BASE HEAD           # result files or dirs

The report lists every metric with its unit and sample count, the
correctness checks and the host calibration. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (or, with ``--trace``, the per-layer ones) named in
``BENCHMARK.json`` at the repository root, which also fixes each
metric's unit, direction and regression bound. ``--out`` writes the full
result, which ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: set-up is repeated this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 9
#: host calibration drift (before vs after a workload) that flags it unstable
UNSTABLE_DRIFT = 0.10
#: how far the deterministic results may worsen before ``compare`` calls
#: a regression: ``cert_max`` by 1% of its value, ``fail_frac`` not at all
EXACT_BOUNDS = {"cert_max": 0.01, "fail_frac": 0.0}
#: per-layer metric suffixes read from a layer row's ``extra`` column
EXTRA_METRIC = {"mpi.reduce": "bytes", "checkpoint": "bytes", "linalg.eig": "hit_rate",
                "serve.admit": "coalesce"}


def _bootstrap() -> dict:
    """Put the checkout's ``src/`` on the path; returns BENCHMARK.json.

    Runs before numpy loads: each SPMD rank gets one BLAS thread, as
    rank-parallel codes are run. Left at its default, every forked rank
    inherits a BLAS pool sized to all cores, and two busy ranks on two
    cores oversubscribe them (the calibration kernel then runs ~2x slower
    with 20x stalls).
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no repro sources under {ROOT / 'src'}; run from a checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def calibrate_ms(repeats: int = 25) -> float:
    """Median wall milliseconds of the host probe (a fixed sparse-matvec +
    numpy kernel)."""
    from workloads import probe_s

    return statistics.median(probe_s() for _ in range(repeats)) * 1e3


def _spin(stop, parent: int) -> None:
    """Keep one CPU busy at the lowest priority until ``stop`` is set or
    the parent process is gone."""
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    while not stop.is_set() and os.getppid() == parent:
        for _ in range(10_000):
            pass


@contextmanager
def busy_cpus():
    """Keep every CPU out of its idle state while the body runs.

    On a virtual machine an idle CPU is halted, and waking it costs the
    hypervisor's scheduling delay, which varies with the load of other
    guests. The ranks wait for each other and for the emulated transit on
    every collective, so that delay lands in every operation. One
    ``SCHED_IDLE`` spinner per CPU, which any runnable task preempts at
    once, keeps the CPUs awake, as an MPI rank that busy-polls in its waits
    would. Measured on a 2-core VM, alternating runs with and without: the
    run-to-run spread of the median operation fell from 9.2% to 4.1%
    (path-16), 8.2% to 6.2% (fig3-solve), 6.4% to 3.4% (stream-window) and
    8.1% to 4.2% (serve-durable).
    """
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    spinners = [ctx.Process(target=_spin, args=(stop, os.getpid()), daemon=True)
                for _ in os.sched_getaffinity(0)]
    for p in spinners:
        p.start()
    try:
        yield
    finally:
        stop.set()
        for p in spinners:
            p.join()


def _rel_iqr(values) -> float:
    """Quartile distance as a share of the median (0 below two samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def end_to_end(setups, measured) -> dict:
    """Every end-to-end metric, its times at the reference host speed:
    name -> (value, samples, spread)."""
    op_ms = [t * 1e3 for t in measured.ref_s]
    spread = _rel_iqr(op_ms)
    return {
        "setup_s": (statistics.median(setups), len(setups), _rel_iqr(setups)),
        "op_ms.p50": (statistics.median(op_ms), len(op_ms), spread),
        "throughput": (measured.items / sum(measured.ref_s), measured.items, spread),
        "model_s": (measured.model_s, len(op_ms), 0.0),
    }


def _tail(name: str, values: list, unit: str) -> dict:
    """The highest percentile (at most p95) with ten samples beyond it."""
    import numpy as np

    percent = min(95, math.floor(100 * (1 - 10 / len(values))))
    if percent <= 50:
        return {}
    return {f"{name}.p{percent}": (float(np.percentile(values, percent)), unit, len(values))}


def per_layer(table: dict, calib_ms: float, overhead: float) -> dict:
    """Every per-layer metric: name -> value."""
    out = {"host.calib_ms": calib_ms, "trace.overhead": overhead}
    for layer, row in table.items():
        for key in ("wall_s", "self_s", "calls", "model_s", "words", "share"):
            out[f"{layer}.{key}"] = row[key]
        kind = EXTRA_METRIC.get(layer)
        if kind == "bytes":
            out[f"{layer}.bytes"] = row["extra"]
        elif kind == "hit_rate":
            out[f"{layer}.hit_rate"] = row["extra"] / row["calls"] if row["calls"] else 0.0
        elif kind == "coalesce":
            out[f"{layer}.coalesce"] = row["extra"] / row["batches"] if row["batches"] else 0.0
    return out


def run_workload(workload, seed: int, smoke: bool, trace: bool, spec: dict):
    """Set up, run (and with ``trace`` run again traced), judge; returns
    the result dict and the traced spans per rank."""
    import tracing
    from workloads import at_ref_speed, probe_s

    run_start = perf_counter()
    calib_before = calibrate_ms()
    setups, probes = [], [probe_s()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.build(seed, smoke)
        setups.append(perf_counter() - start)
        probes.append(probe_s())
    start = perf_counter()
    ref = workload.reference(inputs)
    reference_s = perf_counter() - start
    with busy_cpus():
        measured = workload.measure(inputs, None)
    verdict = workload.evaluate(inputs, ref, measured)
    checks = {name: bool(ok) for name, ok in verdict.checks.items()}
    attempted, failed = verdict.attempted, verdict.failed
    spans, layers, layer_metrics = [], {}, {}
    if trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            with busy_cpus():
                traced = workload.measure(inputs, tracer)
        finally:
            restore()
        again = workload.evaluate(inputs, ref, traced)
        attempted += again.attempted
        failed += again.failed
        checks["traced outputs equal untraced outputs"] = again.digest == verdict.digest
        problems = [p for rank_spans in traced.spans for p in tracing.check_tree(rank_spans)]
        checks["span trees are consistent"] = not problems
        spans = traced.spans
        layers = tracing.layer_table(spans[0])
    calib_after = calibrate_ms()
    calib = (calib_before + calib_after) / 2
    if trace:
        overhead = traced.wall_s / measured.wall_s - 1.0
        layer_metrics = per_layer(layers, calib, overhead)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {
        name: {"value": value, "unit": units[name], "n": n, "spread": spread}
        for name, (value, n, spread) in end_to_end(at_ref_speed(setups, probes),
                                                  measured).items()
    }
    op_ms = [t * 1e3 for t in measured.ref_s]
    wall_ms = [t * 1e3 for t in measured.op_s]
    detail = {"cert_max": (max(verdict.certs), "1", len(verdict.certs)),
              **_tail("op_ms", op_ms, "ms"),
              "wall.setup_s": (statistics.median(setups), "s", len(setups)),
              "wall.op_ms.p50": (statistics.median(wall_ms), "ms", len(wall_ms)),
              **_tail("wall.op_ms", wall_ms, "ms"),
              "wall.throughput": (measured.items / sum(measured.op_s), "1/s", measured.items),
              **verdict.detail}
    result = {
        "workload": workload.name, "op": workload.op, "why": workload.why,
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted, "failed": failed, "checks": checks,
        "metrics": metrics,
        "samples_ms": op_ms,
        "per_layer": {name: {"value": v, "unit": units[name]}
                      for name, v in layer_metrics.items() if name in units},
        "layers": layers,
        "detail": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in detail.items()},
        "reference_s": reference_s,
        "calib_ms": [calib_before, calib_after],
        "unstable": abs(calib_after - calib_before) / calib_before > UNSTABLE_DRIFT,
        "run_s": perf_counter() - run_start,
    }
    return result, spans


def contract_line(results: list, spec: dict, trace: bool) -> dict:
    """The last line of a run: the BENCHMARK.json metrics, by name."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    key = "per_layer" if trace else "metrics"
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + ":"
        for name in names:
            entry = res[key][name]
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def print_report(res: dict) -> None:
    print(f"\n== {res['workload']}: {res['why']}")
    print(f"   one operation = {res['op']}")
    print(f"   {'metric':<24}{'value':>14}  {'unit':<6}{'n':>6}  spread")
    rows = list(res["metrics"].items()) + list(res["detail"].items())
    for name, m in rows:
        spread = f"{m['spread']:.1%}" if m.get("spread") else ""
        print(f"   {name:<24}{m['value']:>14.6g}  {m['unit']:<6}{m['n']:>6}  {spread}")
    frac = res["failed"] / res["attempted"]
    print(f"   {'fail_frac':<24}{frac:>14.6g}  {'1':<6}{res['attempted']:>6}  "
          f"({res['failed']} of {res['attempted']} failed)")
    for name, ok in res["checks"].items():
        print(f"   check {'ok  ' if ok else 'FAIL'} {name}")
    before, after = res["calib_ms"]
    flag = "UNSTABLE" if res["unstable"] else "stable"
    print(f"   host calibration {before:.2f} ms before, {after:.2f} ms after ({flag}); "
          f"reference computed in {res['reference_s']:.2f} s; whole run {res['run_s']:.1f} s")
    if res["layers"]:
        print(f"   {'layer (rank 0)':<20}{'self s':>10}{'calls':>9}{'wall s':>10}"
              f"{'model s':>11}{'share':>8}")
        for layer, r in res["layers"].items():
            print(f"   {layer:<20}{r['self_s']:>10.4f}{r['calls']:>9}{r['wall_s']:>10.4f}"
                  f"{r['model_s']:>11.6f}{r['share']:>8.1%}")
        print(f"   trace overhead {res['per_layer']['trace.overhead']['value']:+.1%}")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_runs(path: str) -> dict:
    """Result files (a file, or every ``*.json`` in a directory) grouped
    as workload -> list of per-run results."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs: dict = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            for name, res in json.load(fh)["workloads"].items():
                runs.setdefault(name, []).append(res)
    return runs


def _exact(runs: list) -> dict:
    """The deterministic results of one side: its worst certificate and
    its failed share of all attempted operations."""
    return {"cert_max": max(r["detail"]["cert_max"]["value"] for r in runs),
            "fail_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)}


def _spread(runs: list, metric: str) -> float:
    if len(runs) >= 2:
        return _rel_iqr([r["metrics"][metric]["value"] for r in runs])
    return runs[0]["metrics"][metric]["spread"]


def compare(base: str, head: str, spec: dict) -> int:
    """One verdict per (workload, metric) of HEAD against BASE under the
    BENCHMARK.json bounds, and for ``cert_max`` and ``fail_frac`` under
    :data:`EXACT_BOUNDS`; exits 1 if anything regressed."""
    a_runs, b_runs = _load_runs(base), _load_runs(head)
    regressed = False
    print(f"{'workload':<15}{'metric':<12}{'base':>12}{'head':>12}{'change':>9}"
          f"{'bound':>7}{'spread':>8}  verdict")
    for workload in sorted(a_runs.keys() & b_runs.keys()):
        a_all, b_all = a_runs[workload], b_runs[workload]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in a_all]
            b = [r["metrics"][name]["value"] for r in b_all]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * change
            spread = max(_spread(a_all, name), _spread(b_all, name))
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif -worse > bound or (spread > bound and all_better):
                verdict = "improved"
            else:
                verdict = "unchanged"
            regressed |= verdict == "regressed"
            print(f"{workload:<15}{name:<12}{ma:>12.6g}{mb:>12.6g}{change:>+9.1%}"
                  f"{bound:>7.0%}{spread:>8.1%}  {verdict}")
        a_exact, b_exact = _exact(a_all), _exact(b_all)
        for name, bound in EXACT_BOUNDS.items():
            a, b = a_exact[name], b_exact[name]
            if b - a > bound * abs(a):
                verdict = "regressed"
            elif a - b > bound * abs(a):
                verdict = "improved"
            else:
                verdict = "unchanged"
            regressed |= verdict == "regressed"
            print(f"{workload:<15}{name:<12}{a:>12.6g}{b:>12.6g}{'':>9}{bound:>7.0%}{'':>8}"
                  f"  {verdict}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = _bootstrap()
    if argv[:1] == ["compare"]:
        cp = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
        cp.add_argument("base", help="result file, or a directory of result files")
        cp.add_argument("head", help="result file, or a directory of result files")
        args = cp.parse_args(argv[1:])
        return compare(args.base, args.head, spec)

    import numpy as np
    import scipy
    import tracing
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    p.add_argument("--seed", type=int, default=0, help="generates every input")
    p.add_argument("--seconds", type=float,
                   help="ignored: each workload runs a fixed number of operations, and "
                        "run_seconds in BENCHMARK.json states about how long they take")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="also run traced; report the per-layer metrics")
    p.add_argument("--trace-out", help="write the traced spans as Chrome trace-event JSON")
    p.add_argument("--out", help="write the full result as JSON")
    p.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    args = p.parse_args(argv)
    trace = bool(args.trace or args.trace_out)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results, named_spans = [], []
    for name in names:
        res, spans = run_workload(WORKLOADS[name], args.seed, args.smoke, trace, spec)
        print_report(res)
        results.append(res)
        named_spans += [(f"{name} rank {r}", s) for r, s in enumerate(spans)]
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(tracing.chrome_trace(named_spans)),
                                        encoding="utf-8")
    if args.out:
        meta = {
            "cpu_count": os.cpu_count(), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "platform": platform.platform(), "seed": args.seed, "smoke": args.smoke,
            "trace": trace,
        }
        text = json.dumps({"meta": meta, "workloads": {r["workload"]: r for r in results}},
                          indent=1)
        Path(args.out).write_text(text, encoding="utf-8")
    print(json.dumps(contract_line(results, spec, trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
