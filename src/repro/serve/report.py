"""Serving-run report: schema, latency percentiles, per-tenant rollups.

One :func:`build_report` call turns the engine's raw run state into the
versioned, JSON-ready report that ``repro serve --save`` writes (via
``atomic_write_json``) and that ``benchmarks/bench_serve.py`` /
``scripts/check_regression.py`` gate on. Everything in the report is
derived from modelled (virtual) time and deterministic counters, so two
runs of the same trace produce identical reports.

Schema (``format_version`` = :data:`SERVE_REPORT_VERSION`):

* ``config`` — the engine knobs that shaped the run (queue depth,
  coalescing, deadlines, fault budget, backend);
* ``tenants`` — per-tenant block: the schedule its refits ran
  (``pipeline``, ``async``, ``tau``), state (``active``/``quarantined``),
  fault count, final model hash + metric, request counters, latency
  percentiles over that tenant's completed requests, modelled
  ``setup_cost`` (onboarding fit) and ``serve_cost`` (everything
  after), and a ``recovery`` block (replayed request count);
* ``requests`` — the full per-request table (arrival, dispatch,
  completion, outcome, latency, coalescing, recovery markers);
* ``totals`` — run-level counts, makespan, throughput, latency
  percentiles, idle time, and summed modelled cost;
* ``recovery`` — physical-attempt counters from the supervised worker
  pool (zeros outside ``recover="checkpoint"``).
"""

from __future__ import annotations

import math

__all__ = ["SERVE_REPORT_VERSION", "SERVE_CHECKPOINT_VERSION",
           "latency_stats", "build_report"]

#: report schema version; bump on any structural change
SERVE_REPORT_VERSION = 1

#: ``kind="serve-engine"`` checkpoint schema version
SERVE_CHECKPOINT_VERSION = 1

#: request outcomes, in the order the totals block enumerates them
OUTCOMES = ("completed", "rejected", "timed_out", "failed", "quarantined")


def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile over an already-sorted list (deterministic,
    no interpolation surprises across numpy versions)."""
    if not sorted_vals:
        return 0.0
    idx = max(0, min(len(sorted_vals) - 1,
                     math.ceil(q / 100.0 * len(sorted_vals)) - 1))
    return float(sorted_vals[idx])


def latency_stats(latencies) -> dict:
    """p50/p95/p99 + mean/max over a list of latencies (virtual seconds)."""
    vals = sorted(float(v) for v in latencies)
    n = len(vals)
    return {
        "count": n,
        "p50": _percentile(vals, 50.0),
        "p95": _percentile(vals, 95.0),
        "p99": _percentile(vals, 99.0),
        "mean": (sum(vals) / n) if n else 0.0,
        "max": vals[-1] if n else 0.0,
    }


def build_report(*, config: dict, tenants: list, requests: list,
                 clock: float, idle_seconds: float, counters: dict,
                 total_cost: dict, recovery: dict) -> dict:
    """Assemble the versioned serving report from engine run state.

    ``tenants`` entries arrive fully formed from the engine (they carry
    per-tenant cost dicts the engine accumulated); this function adds
    the run-level rollups so the schema lives in one place.
    """
    completed = [r for r in requests if r["outcome"] == "completed"]
    lat = latency_stats([r["latency"] for r in completed
                         if r["latency"] is not None])
    outcome_counts = {o: sum(1 for r in requests if r["outcome"] == o)
                      for o in OUTCOMES}
    makespan = float(clock)
    return {
        "format_version": SERVE_REPORT_VERSION,
        "kind": "serve-report",
        "config": dict(config),
        "tenants": list(tenants),
        "requests": list(requests),
        "totals": {
            "requests": len(requests),
            "outcomes": outcome_counts,
            "recovered_requests": int(counters.get("recovered", 0)),
            "late_commits": sum(1 for r in requests if r.get("late")),
            "makespan_seconds": makespan,
            "throughput_rps": (
                len(completed) / makespan if makespan > 0 else 0.0
            ),
            "latency": lat,
            "idle_seconds": float(idle_seconds),
            "cost": dict(total_cost),
        },
        "recovery": dict(recovery),
    }
