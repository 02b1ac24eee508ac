"""Save / load solver results.

Experiment campaigns (the benchmark harness, the examples) produce
:class:`~repro.solvers.base.SolverResult` objects; these helpers persist
them as portable JSON (history + metadata + solution) so runs can be
compared across sessions or plotted elsewhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

import numpy as np

from repro.errors import CostModelError, SolverError
from repro.machine.ledger import CostSnapshot
from repro.solvers.base import ConvergenceHistory, SolverResult
from repro.utils.io import atomic_write_json

__all__ = ["result_to_dict", "result_from_dict", "save_result", "load_result"]

_FORMAT_VERSION = 1


def result_to_dict(result: SolverResult) -> dict:
    """JSON-serialisable representation of a result.

    ``extras`` entries that are NumPy arrays are stored as lists; other
    non-JSON types are dropped with their keys recorded in
    ``dropped_extras``.
    """
    extras = {}
    dropped = []
    for k, v in result.extras.items():
        if isinstance(v, np.ndarray):
            extras[k] = {"__ndarray__": v.tolist()}
        elif isinstance(v, (int, float, str, bool)) or v is None:
            extras[k] = v
        else:
            dropped.append(k)
    return {
        "format_version": _FORMAT_VERSION,
        "solver": result.solver,
        "x": result.x.tolist(),
        "iterations": result.iterations,
        "final_metric": result.final_metric,
        "converged": result.converged,
        "history": {
            "metric_name": result.history.metric_name,
            "iterations": result.history.iterations,
            "metric": result.history.metric,
            "seconds": result.history.seconds,
            "comm_seconds": result.history.comm_seconds,
            "flops": result.history.flops,
        },
        "cost": result.cost.to_dict(),
        "extras": extras,
        "dropped_extras": dropped,
    }


def result_from_dict(data: dict) -> SolverResult:
    """Inverse of :func:`result_to_dict`.

    A payload that is not an object, lacks a field or holds one of the
    wrong type raises :class:`~repro.errors.SolverError`.
    """
    if not isinstance(data, dict):
        raise SolverError(
            f"saved result is not an object: {type(data).__name__}"
        )
    if data.get("format_version") != _FORMAT_VERSION:
        raise SolverError(
            f"unsupported result format {data.get('format_version')!r}"
        )
    try:
        hist_data = data["history"]
        history = ConvergenceHistory(
            metric_name=hist_data["metric_name"],
            iterations=list(hist_data["iterations"]),
            metric=list(hist_data["metric"]),
            seconds=list(hist_data["seconds"]),
            comm_seconds=list(hist_data["comm_seconds"]),
            flops=list(hist_data["flops"]),
        )
        cost = CostSnapshot.from_dict(data["cost"])
        extras = {}
        for k, v in data["extras"].items():
            if isinstance(v, dict) and "__ndarray__" in v:
                extras[k] = np.asarray(v["__ndarray__"], dtype=np.float64)
            else:
                extras[k] = v
        return SolverResult(
            solver=data["solver"],
            x=np.asarray(data["x"], dtype=np.float64),
            iterations=int(data["iterations"]),
            final_metric=float(data["final_metric"]),
            history=history,
            cost=cost,
            converged=bool(data["converged"]),
            extras=extras,
        )
    except KeyError as exc:
        raise SolverError(f"saved result: missing field {exc}") from exc
    except (CostModelError, AttributeError, TypeError, ValueError) as exc:
        raise SolverError(f"saved result: {exc}") from exc


def save_result(path_or_file: str | Path | IO[str], result: SolverResult) -> None:
    """Write a result as JSON (atomically, when given a path)."""
    data = result_to_dict(result)
    if isinstance(path_or_file, (str, Path)):
        atomic_write_json(path_or_file, data)
    else:
        json.dump(data, path_or_file)


def load_result(path_or_file: str | Path | IO[str]) -> SolverResult:
    """Read a result written by :func:`save_result`."""
    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.load(path_or_file)
    return result_from_dict(data)
