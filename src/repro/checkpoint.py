"""Checkpoint/resume for the SPMD solvers (fault-tolerance layer).

A solver checkpoint is a small JSON-serialisable dict of the *replicated*
solver state — the solution iterate(s), the momentum scalar where one
exists, the termination state, the convergence history, and the cost
ledger totals. Local shards (partitioned residuals, primal column shards)
are **recomputed** from the replicated state on resume, and the sampler
is resumed by **replay**: the checkpoint stores the integer seed plus the
number of draws consumed, and resume recreates the sampler and burns that
many draws.

Replay is what makes a checkpoint backend- and schedule-portable: the
same file resumes under the virtual, thread, or process backend, blocking
or pipelined, with any SA depth ``s`` — every solver consumes exactly one
draw per iteration from the shared stream (the same invariant behind the
paper's SA/classical exact equivalence), so "burn ``iteration`` draws" is
a complete description of the sampler state. A pipelined run's
speculative prefetch draws ahead of the iteration counter, but those
draws feed exactly the iterations that follow, so the replayed stream
stays aligned.

Checkpoints written to a path use :func:`repro.utils.io.atomic_write_json`
(rank 0 only — the payload is replicated knowledge), so a crash mid-write
never corrupts the previous checkpoint. A callable sink is invoked on
every rank with the payload dict.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable

import numpy as np

from repro.errors import CheckpointError, CostModelError, SolverError
from repro.machine.ledger import CostSnapshot
from repro.prox.penalties import (
    ElasticNetPenalty,
    GroupLassoPenalty,
    L1Penalty,
    Penalty,
    ZeroPenalty,
)
from repro.utils.io import atomic_write_json

__all__ = [
    "SOLVER_CHECKPOINT_VERSION",
    "require_int_seed",
    "read_checkpoint_json",
    "make_solver_checkpoint",
    "solver_history_fields",
    "emit_solver_checkpoint",
    "load_solver_checkpoint",
    "resume_solver",
    "state_vector",
    "state_scalar",
    "encode_lam",
    "decode_lam",
    "check_fields",
    "fields",
    "is_num",
    "is_int",
    "is_obj",
    "list_of",
    "obj_of",
    "or_null",
]

#: Format version of solver checkpoint payloads. Bump on layout changes;
#: resume refuses versions it does not understand rather than guessing.
SOLVER_CHECKPOINT_VERSION = 1


def require_int_seed(seed: Any, what: str = "checkpointing") -> int:
    """Checkpointing resumes the sampler by replay, which needs the seed.

    A prebuilt sampler or a live ``numpy`` Generator cannot be replayed
    from a file, so both checkpoint emission and resume insist on a plain
    integer seed.
    """
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)):
        raise CheckpointError(
            f"{what} requires an integer sampling seed (resume replays the"
            f" coordinate stream from it); got {type(seed).__name__}"
        )
    return int(seed)


def read_checkpoint_json(
    source: str | os.PathLike, what: str = "checkpoint"
) -> dict:
    """Read a checkpoint file into a dict, or raise CheckpointError.

    Every failure mode names the path and the reason: a missing file
    says so explicitly (the most common ``resume_from=`` typo), while
    truncated or garbage JSON surfaces the decoder's complaint instead
    of a raw ``JSONDecodeError``. A payload that parses to something
    other than an object is rejected here too, so callers can index the
    result without ``KeyError``/``TypeError`` escapes.
    """
    path = os.fspath(source)
    if not os.path.exists(path):
        raise CheckpointError(
            f"{what} file {path!r} does not exist — was resume_from="
            f" pointing at a checkpoint that was never written?"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ck = json.load(fh)
    except OSError as exc:
        raise CheckpointError(
            f"could not read {what} {path!r}: {exc}"
        ) from exc
    except ValueError as exc:  # includes json.JSONDecodeError
        raise CheckpointError(
            f"{what} {path!r} is not valid JSON (truncated or corrupted"
            f" write?): {exc}"
        ) from exc
    if not isinstance(ck, dict):
        raise CheckpointError(
            f"{what} {path!r} holds a JSON {type(ck).__name__}, expected"
            f" an object"
        )
    return ck


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=np.float64).ravel().tolist()
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


_PENALTIES = {
    cls.__name__: cls
    for cls in (L1Penalty, ElasticNetPenalty, GroupLassoPenalty, ZeroPenalty)
}


def encode_lam(lam: Any) -> Any:
    """A solve's ``lam`` in checkpoint form.

    ``None`` stays ``None`` and a number is written as a float. A
    :class:`~repro.prox.penalties.Penalty` becomes its class name and its
    dataclass fields, with ``group_ids`` as a list of ints.
    """
    if lam is None:
        return None
    if not isinstance(lam, Penalty):
        return float(lam)
    fields = {
        f.name: (
            [int(g) for g in getattr(lam, f.name)] if f.name == "group_ids"
            else float(getattr(lam, f.name))
        )
        for f in dataclasses.fields(lam) if f.init
    }
    return {"penalty": type(lam).__name__, "fields": fields}


def decode_lam(value: Any) -> Any:
    """Inverse of :func:`encode_lam`; a malformed penalty raises
    :class:`~repro.errors.CheckpointError`."""
    if not isinstance(value, dict):
        return value
    name, fields = value.get("penalty"), value.get("fields")
    cls = _PENALTIES.get(name) if isinstance(name, str) else None
    if cls is None or not isinstance(fields, dict):
        raise CheckpointError(f"checkpoint holds an unknown penalty {value!r}")
    try:
        return cls(**fields)
    except (SolverError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint holds a malformed penalty: {exc}"
        ) from exc


def is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_obj(v) -> bool:
    return isinstance(v, dict)


def list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


def obj_of(ok):
    return lambda v: isinstance(v, dict) and all(map(ok, v.values()))


def or_null(ok):
    return lambda v: v is None or ok(v)


def fields(*groups) -> tuple:
    """``(key, what, check)`` per key of each ``(what, check, *keys)``."""
    return tuple((key, what, ok) for what, ok, *keys in groups for key in keys)


def check_fields(block: dict, fields, where: str, path: str = "") -> None:
    """Raise :class:`~repro.errors.CheckpointError` naming ``where`` and
    the field (prefixed by ``path``, ``"'tenants'.'a'."``) unless
    ``block`` holds each ``(key, what it must be, check)`` of ``fields``."""
    for key, what, ok in fields:
        if key not in block:
            raise CheckpointError(f"{where} has no field {path}{key!r}")
        if not ok(block[key]):
            raise CheckpointError(
                f"{where} field {path}{key!r} must be {what},"
                f" not {type(block[key]).__name__} {block[key]!r:.60}"
            )


def make_solver_checkpoint(
    *,
    family: str,
    solver: str,
    iteration: int,
    seed: int,
    params: dict,
    state: dict,
    term,
    history,
    ledger,
) -> dict:
    """Assemble one checkpoint payload (pure dict; no I/O).

    ``family`` scopes what the state means ("lasso-plain" carries ``x``,
    "lasso-acc" carries ``y``/``z``/``theta``, "svm" carries ``alpha``);
    ``params`` are the run parameters resume must match (``n``/``mu`` for
    Lasso, ``m``/``loss``/``lam`` for SVM). Arrays round-trip exactly:
    ``json`` emits shortest-repr floats, which reparse bit-identical.
    """
    return {
        "format_version": SOLVER_CHECKPOINT_VERSION,
        "kind": "solver",
        "family": family,
        "solver": solver,
        "iteration": int(iteration),
        "seed": require_int_seed(seed),
        "params": {k: _jsonable(v) for k, v in params.items()},
        "state": {k: _jsonable(v) for k, v in state.items()},
        **solver_history_fields(term, history),
        # the recovery counters are informational only: they describe the
        # physical run that wrote the checkpoint, and a resume never
        # restores them (CostLedger.restore)
        "ledger": ledger.snapshot().to_dict(),
    }


def solver_history_fields(term, history) -> dict:
    """A solver checkpoint's record of convergence so far: the history
    columns and the terminator's relative-change anchor."""
    return {
        "term_last": None if term._last is None else float(term._last),
        "history": {
            "metric_name": history.metric_name,
            "iterations": list(history.iterations),
            "metric": list(history.metric),
            "seconds": list(history.seconds),
            "comm_seconds": list(history.comm_seconds),
            "flops": list(history.flops),
        },
    }


def emit_solver_checkpoint(
    payload: dict, sink: Callable | str | os.PathLike | None, rank: int = 0
) -> None:
    """Deliver a checkpoint: call a callable sink on every rank, or
    atomically write a path on rank 0 (the payload is replicated)."""
    if sink is None:
        return
    if callable(sink):
        sink(payload)
    elif rank == 0:
        # repro: lint-ignore[collective-in-rank-branch] -- rank-0 checkpoint
        # IO: a local atomic file write, no communication
        atomic_write_json(os.fspath(sink), payload)


def load_solver_checkpoint(
    source: dict | str | os.PathLike,
    *,
    family: str,
    seed: Any,
    params: dict,
) -> dict:
    """Read + validate a checkpoint against the resuming run's setup.

    ``source`` is a payload dict (e.g. captured by a callable sink) or a
    JSON path. The checkpoint must carry the same family, the same seed,
    and the same ``params`` the caller was invoked with — anything else
    would silently resume a *different* run, so it is a
    :class:`~repro.errors.CheckpointError` instead.
    """
    if isinstance(source, dict):
        ck = source
    else:
        ck = read_checkpoint_json(source, "solver checkpoint")
    if not isinstance(ck, dict) or ck.get("kind") != "solver":
        raise CheckpointError(
            f"resume_from is not a solver checkpoint"
            f" (kind={ck.get('kind')!r})"
            if isinstance(ck, dict)
            else "resume_from is not a solver checkpoint"
        )
    version = ck.get("format_version")
    if version != SOLVER_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {version!r}"
            f" (this build reads {SOLVER_CHECKPOINT_VERSION})"
        )
    if ck.get("family") != family:
        raise CheckpointError(
            f"checkpoint family {ck.get('family')!r} cannot resume a"
            f" {family!r} solver"
        )
    seed_int = require_int_seed(seed, "resume")
    try:
        ck_seed = int(ck.get("seed", -1))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint carries a garbage seed {ck.get('seed')!r}"
        ) from exc
    if ck_seed != seed_int:
        raise CheckpointError(
            f"checkpoint was written with seed {ck.get('seed')!r};"
            f" resume was called with seed {seed_int}"
        )
    got = ck.get("params", {})
    if not isinstance(got, dict):
        raise CheckpointError(
            f"checkpoint params are {type(got).__name__}, expected an object"
        )
    for key, want in params.items():
        have = got.get(key)
        if have != _jsonable(want):
            raise CheckpointError(
                f"checkpoint parameter mismatch: {key}={have!r} in the"
                f" checkpoint vs {want!r} in the resuming call"
            )
    it = ck.get("iteration")
    if not isinstance(it, int) or it < 0:
        raise CheckpointError(f"invalid checkpoint iteration {it!r}")
    return ck


def state_vector(ck: dict, key: str, length: int) -> np.ndarray:
    """A float64 state vector of the expected length, or CheckpointError."""
    state = ck.get("state", {})
    vals = state.get(key) if isinstance(state, dict) else None
    if vals is None:
        raise CheckpointError(f"checkpoint is missing state vector {key!r}")
    try:
        arr = np.asarray(vals, dtype=np.float64).ravel()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint state {key!r} is not a numeric vector: {exc}"
        ) from exc
    if arr.shape[0] != length:
        raise CheckpointError(
            f"checkpoint state {key!r} has length {arr.shape[0]},"
            f" expected {length}"
        )
    return arr


def state_scalar(ck: dict, key: str) -> float:
    state = ck.get("state", {})
    vals = state.get(key) if isinstance(state, dict) else None
    if vals is None:
        raise CheckpointError(f"checkpoint is missing state scalar {key!r}")
    try:
        return float(vals)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint state {key!r} is not a scalar: {vals!r}"
        ) from exc


def resume_solver(ck: dict, *, sampler, term, history, ledger) -> int:
    """Restore runtime state from a validated checkpoint.

    Replays the sampler (burns ``iteration`` draws — one per completed
    iteration), restores the terminator's relative-change anchor, the
    history columns, and the ledger totals. Returns the iteration count
    to continue from.
    """
    hd = ck.get("history", {})
    if not isinstance(hd, dict):
        raise CheckpointError(
            f"checkpoint history is {type(hd).__name__}, expected an object"
        )
    if hd.get("metric_name") != history.metric_name:
        raise CheckpointError(
            f"checkpoint tracks {hd.get('metric_name')!r}, the resuming"
            f" solver tracks {history.metric_name!r}"
        )
    if not hd.get("metric"):
        raise CheckpointError("checkpoint history is empty")
    led = ck.get("ledger") or {}
    if not isinstance(led, dict):
        raise CheckpointError(
            f"checkpoint ledger is {type(led).__name__}, expected an object"
        )
    try:
        last = ck.get("term_last")
        term_last = None if last is None else float(last)
        columns = {
            "iterations": [int(v) for v in hd.get("iterations", [])],
            "metric": [float(v) for v in hd.get("metric", [])],
            "seconds": [float(v) for v in hd.get("seconds", [])],
            "comm_seconds": [float(v) for v in hd.get("comm_seconds", [])],
            "flops": [float(v) for v in hd.get("flops", [])],
        }
        snap = CostSnapshot.from_dict(led)
    except (TypeError, ValueError, CostModelError) as exc:
        raise CheckpointError(
            f"checkpoint history/ledger columns hold non-numeric data: {exc}"
        ) from exc
    term._last = term_last
    history.iterations[:] = columns["iterations"]
    history.metric[:] = columns["metric"]
    history.seconds[:] = columns["seconds"]
    history.comm_seconds[:] = columns["comm_seconds"]
    history.flops[:] = columns["flops"]
    ledger.restore(snap)
    draws = int(ck["iteration"])
    advance = getattr(sampler, "next_block", None)
    if advance is None:
        advance = sampler.next_index
    for _ in range(draws):
        advance()
    return draws
