"""Layer spans for the benchmark, recorded by wrappers it installs itself.

No tracing lives in ``src/``. :func:`install` swaps each layer's entry
points (class methods, and module-level names at the call sites that use
them) for a recording wrapper and returns a function that puts the
originals back. Process ranks inherit the wrappers by fork and
ship their spans home in the job's return value.

A span is ``[layer, start, end, parent, model0, model1, words0, words1,
extra]``: wall seconds from :func:`time.perf_counter`, the index of the
enclosing span (-1 for an operation root), and the rank's modelled
seconds and modelled words before and after. The modelled clock is
advanced by wrappers around :class:`~repro.machine.ledger.CostLedger`'s
two charging methods, so it keeps counting across the ledger resets
that sweeps and streams do between solves. Spans are recorded only
inside an operation span opened by the benchmark (:meth:`Tracer.op`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro import _api, streaming
from repro.linalg import distmatrix, kernels
from repro.machine.ledger import CostLedger
from repro.mpi.comm import Comm, CommRequest
from repro.serve import admission
from repro.serve import engine as serve_engine
from repro.solvers import lasso
from repro.solvers.lasso import acc, plain

__all__ = ["Tracer", "install", "sites", "layer_table", "check_tree", "chrome_trace"]

LAYER, START, END, PARENT, M0, M1, W0, W1, EXTRA = range(9)


def sites() -> list[tuple[str, object, str]]:
    """``(layer, owner, name)`` for every wrapped entry point.

    Module-level functions are wrapped where their callers look them up
    (``acc.largest_eigenvalue_cached``, not the kernels module), and the
    Lasso solver registry in ``repro._api`` holds ``(fn, is_sa)`` tuples,
    so its entries are wrapped in place.
    """
    row, col = distmatrix.RowPartitionedMatrix, distmatrix.ColPartitionedMatrix
    sweep = streaming.StreamingSweep
    return [
        ("linalg.gather", row, "sample_columns"),
        ("linalg.gather", col, "sample_rows"),
        ("linalg.gram", row, "gram_and_project"),
        ("linalg.gram", col, "gram_rows_and_project"),
        ("linalg.gram", distmatrix.GramPipeline, "prefetch"),
        ("linalg.gram", distmatrix.GramPipeline, "post"),
        ("linalg.gram", distmatrix.GramPipeline, "wait"),
        ("linalg.eig", acc, "largest_eigenvalue_cached"),
        ("linalg.eig", plain, "largest_eigenvalue_cached"),
        ("mpi.reduce", Comm, "Allreduce"),
        ("mpi.reduce", Comm, "allreduce"),
        ("mpi.post", Comm, "Iallreduce"),
        ("mpi.wait", CommRequest, "wait"),
        ("solvers.check", acc, "distributed_objective"),
        ("solvers.check", plain, "distributed_objective"),
        ("solvers.check", col, "matvec_full"),
        ("solvers.check", col, "norm2_cols"),
        ("solvers.step", lasso, "sa_acc_bcd"),
        ("solvers.step", _api._LASSO, "sa-bcd"),
        ("solvers.step", _api._LASSO, "sa-accbcd"),
        ("solvers.step", _api, "sa_dcd"),
        ("streaming.mutate", sweep, "append"),
        ("streaming.mutate", sweep, "evict"),
        ("streaming.mutate", sweep, "update_labels"),
        ("checkpoint", sweep, "checkpoint"),
        ("checkpoint", serve_engine, "atomic_write_json"),
        ("serve.admit", admission.AdmissionQueue, "offer"),
        ("serve.admit", admission.AdmissionQueue, "next_batch"),
    ]


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _set(owner, name, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


class Tracer:
    """Per-process span recorder (one per rank after fork)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: modelled seconds and words this process's ledgers have charged
        self.model_clock = 0.0
        self.words_clock = 0.0
        #: request index -> is_append, learnt at admission (coalescing ratio)
        self._appends: dict[int, bool] = {}

    def _open(self, layer: str) -> list:
        span = [layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                self.model_clock, 0.0, self.words_clock, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[M1] = self.model_clock
        span[W1] = self.words_clock
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        """One timed operation: the root every layer span nests under."""
        span = self._open("op")
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, layer: str, fn, extra=None):
        """``fn`` recording a ``layer`` span per call inside an operation;
        ``extra(tracer, fn, args, kwargs)`` returns ``(result, extra)``."""

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(layer)
            try:
                if extra is None:
                    return fn(*args, **kwargs)
                out, span[EXTRA] = extra(self, fn, args, kwargs)
                return out
            finally:
                self._close(span)

        return traced


def _reduce_bytes(tracer, fn, args, kwargs):
    return fn(*args, **kwargs), float(getattr(args[1], "nbytes", 8))


def _eig_hit(tracer, fn, args, kwargs):
    memo = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("memo")
    memo = memo if memo is not None else kernels.default_eig_memo()
    hits = memo.cache_info().hits
    out = fn(*args, **kwargs)
    return out, float(memo.cache_info().hits > hits)


def _written_bytes(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    return out, float(os.path.getsize(args[0]))


def _offer(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer._appends[int(args[1])] = bool(kwargs.get("is_append"))
    return out, 0.0


def _next_batch(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    if out is None or not tracer._appends.get(out[1][0], False):
        return out, 0.0
    return out, float(len(out[1]))


#: per-site extra measurement, keyed by the wrapped attribute's name
_EXTRAS = {
    "Allreduce": _reduce_bytes,
    "allreduce": _reduce_bytes,
    "largest_eigenvalue_cached": _eig_hit,
    "atomic_write_json": _written_bytes,
    "offer": _offer,
    "next_batch": _next_batch,
}


def install(tracer: Tracer):
    """Wrap every site and the ledger's charging methods; returns a
    function that puts every original back."""
    saved = []
    for layer, owner, name in sites():
        original = _get(owner, name)
        saved.append((owner, name, original))
        extra = _EXTRAS.get(name)
        if isinstance(original, tuple):  # solver registry entry (fn, is_sa)
            _set(owner, name, (tracer.wrap(layer, original[0], extra),) + original[1:])
        else:
            _set(owner, name, tracer.wrap(layer, original, extra))
    add_flops, add_collective = CostLedger.add_flops, CostLedger.add_collective

    def traced_flops(ledger, *args, **kwargs):
        before = ledger.compute_seconds
        add_flops(ledger, *args, **kwargs)
        tracer.model_clock += ledger.compute_seconds - before

    def traced_collective(ledger, *args, **kwargs):
        seconds, words = ledger.comm_seconds, ledger.words
        add_collective(ledger, *args, **kwargs)
        tracer.model_clock += ledger.comm_seconds - seconds
        tracer.words_clock += ledger.words - words

    saved.append((CostLedger, "add_flops", add_flops))
    saved.append((CostLedger, "add_collective", add_collective))
    CostLedger.add_flops = traced_flops
    CostLedger.add_collective = traced_collective

    def restore() -> None:
        for owner, name, original in reversed(saved):
            _set(owner, name, original)

    return restore


def _children(spans: list) -> tuple[np.ndarray, np.ndarray]:
    """Per span: summed wall and modelled seconds of its direct children."""
    wall = np.zeros(len(spans))
    model = np.zeros(len(spans))
    for s in spans:
        if s[PARENT] >= 0:
            wall[s[PARENT]] += s[END] - s[START]
            model[s[PARENT]] += s[M1] - s[M0]
    return wall, model


def check_tree(spans: list) -> list[str]:
    """Problems with a span tree: negative self time, or a root whose
    duration differs from the summed self times of its subtree."""
    child_wall, _ = _children(spans)
    problems = []
    self_s = [s[END] - s[START] - child_wall[i] for i, s in enumerate(spans)]
    root_of = []
    subtree = {}
    for i, s in enumerate(spans):
        root = i if s[PARENT] < 0 else root_of[s[PARENT]]
        root_of.append(root)
        subtree[root] = subtree.get(root, 0.0) + self_s[i]
        if self_s[i] < -1e-9:
            problems.append(f"span {i} ({s[LAYER]}) has negative self time {self_s[i]:.3g}s")
    for root, total in subtree.items():
        dur = spans[root][END] - spans[root][START]
        if abs(total - dur) > 1e-6 * max(1.0, dur):
            problems.append(f"root {root}: self times sum to {total:.9f}s, span is {dur:.9f}s")
    return problems


def layer_table(spans: list) -> dict[str, dict[str, float]]:
    """Aggregate one rank's spans per layer.

    Each row holds ``wall_s`` (span durations), ``self_s`` (minus child
    spans), ``calls``, ``model_s`` (modelled seconds charged in the
    layer's own code, children excluded), ``words`` (modelled words moved
    inside the spans), the summed per-call ``extra`` and ``batches`` (calls
    with a non-zero extra), plus ``share`` of the operations' wall time.
    """
    child_wall, child_model = _children(spans)
    rows = {layer: dict(wall_s=0.0, self_s=0.0, calls=0, model_s=0.0, words=0.0,
                        extra=0.0, batches=0) for layer, _, _ in sites()}
    op_wall = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        if s[LAYER] == "op":
            op_wall += dur
            continue
        row = rows[s[LAYER]]
        row["wall_s"] += dur
        row["self_s"] += dur - child_wall[i]
        row["calls"] += 1
        row["model_s"] += (s[M1] - s[M0]) - child_model[i]
        row["words"] += s[W1] - s[W0]
        row["extra"] += s[EXTRA]
        row["batches"] += s[EXTRA] > 0
    for row in rows.values():
        row["share"] = row["wall_s"] / op_wall if op_wall > 0 else 0.0
    return rows


def chrome_trace(named_spans: list[tuple[str, list]]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto): one
    process per ``(name, spans)`` pair, one complete event per span."""
    starts = [s[START] for _, spans in named_spans for s in spans]
    base = min(starts) if starts else 0.0
    events = []
    for pid, (name, spans) in enumerate(named_spans):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}})
        events += [
            {"name": s[LAYER], "cat": s[LAYER].split(".")[0], "ph": "X", "pid": pid,
             "tid": 0, "ts": (s[START] - base) * 1e6, "dur": (s[END] - s[START]) * 1e6,
             "args": {"model_s": s[M1] - s[M0]}}
            for s in spans
        ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
