"""Streaming/online refit engine over the warm-start machinery.

Production fitting is rarely one-shot: new data rows arrive between
solves and the model must be *refit*, not retrained from scratch. The
sweep machinery built for regularization paths — one partitioned matrix
with persistent sampling views and collective buffers, warm starts
through ``fit_lasso(x0=)`` / ``fit_svm(alpha0=)``, a persistent
:class:`~repro.linalg.kernels.EigMemo`, per-solve ledger resets — is
exactly what makes repeated solves cheap, and this module points it at
the streaming workload:

* :class:`StreamingSweep` accepts batches of new rows (and labels)
  between solves. The batch is appended **in place** to the partitioned
  matrix (:meth:`RowPartitionedMatrix.append_rows` /
  :meth:`ColPartitionedMatrix.append_rows` — balanced per-rank appends
  invalidating only the sampling views that actually changed), the
  ``lambda_max`` gradient ``A^T b`` is extended *incrementally* (one
  ``O(nnz(batch))`` local product plus an n-word Allreduce instead of a
  full ``O(nnz(A))`` recompute), and the previous solution warm-starts
  the refit — the primal ``x`` unchanged for Lasso, the dual ``alpha``
  zero-padded for the new SVM rows (new rows enter the dual box at 0,
  which is always feasible).
* Rows are retired the same way they arrive: :meth:`StreamingSweep.
  evict` removes rows by arrival index (per-rank shard compaction via
  :meth:`RowPartitionedMatrix.remove_rows` /
  :meth:`ColPartitionedMatrix.remove_rows`, again invalidating only the
  CSC sampling view), ``max_rows=`` keeps a sliding count window by
  auto-evicting the oldest rows after each append, and the ``A^T b``
  state is *downdated* (``A^T b -= B_evicted^T y_evicted``, one n-word
  Allreduce) so ``lambda_max`` stays exact without a full rescan. The
  Lasso primal warm start is kept verbatim (its dimension never
  changes); the SVM warm dual drops the evicted rows' coordinates.
* :meth:`StreamingSweep.update_labels` applies **label-only updates**:
  ``A^T b`` is re-derived via a delta reduction
  (``A^T b += A_rows^T (y_new - y_old)``) without touching the shards.
* Ledger accounting is split per **data revision**: each append's own
  incremental work, each eviction's downdate + compaction
  (:attr:`DataRevision.evict_cost`), and every subsequent solve's cost
  are banked against the revision they belong to, so "what does a refit
  after +k rows cost?" is a first-class measurable
  (``benchmarks/bench_streaming.py`` tracks warm refit vs. cold
  re-solve in ``BENCH_streaming.json``, including windowed entries).

Row-order contract: the row-partitioned (Lasso) layout appends each
rank's share at the end of its local shard, so the effective global row
order is *rank-blocked* — a deterministic permutation of arrival order
(:meth:`StreamingSweep.arrival_order`). The column-partitioned (SVM)
layout keeps exact arrival order. :meth:`StreamingSweep.materialize`
reassembles the effective global problem on every rank (instrumentation
only), which is how the equivalence tests pin every streaming refit
against a cold solve on the concatenated data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro._api import DEFAULT_SOLVER, SOLVERS, check_solver
from repro.checkpoint import (
    check_fields,
    decode_lam,
    emit_solver_checkpoint,
    encode_lam,
    fields,
    is_int,
    is_num,
    is_obj,
    list_of,
    or_null,
    read_checkpoint_json,
)
from repro.errors import CheckpointError, CostModelError, SolverError
from repro.launch import launch, recovery_counters, recovery_knobs
from repro.linalg.distmatrix import ColPartitionedMatrix, RowPartitionedMatrix
from repro.linalg.kernels import EigMemo
from repro.linalg.partition import Partition1D
from repro.machine.ledger import CostSnapshot, report_total
from repro.machine.spec import MachineSpec
from repro.mpi.comm import Comm
from repro.mpi.virtual_backend import VirtualComm
from repro.path import SweepContext
from repro.solvers.base import SolverResult
from repro.solvers.outer import SWEEP_SCHEDULE, Schedule
from repro.utils.validation import nnz_of

__all__ = [
    "StreamingSweep",
    "DataRevision",
    "replay_schedule",
    "STREAM_CHECKPOINT_VERSION",
]

#: report schema version emitted by :func:`replay_schedule` (and the
#: ``repro stream`` CLI's ``--save``); v2 added eviction / label-edit
#: events, the structured ``schedule`` entries, and per-revision
#: ``rows_removed`` / ``labels_changed`` / ``evict_cost``; v3 added the
#: ``("sleep", seconds)`` virtual-time token (``seconds`` on its
#: schedule entry, ``totals.slept_seconds``) shared with the serving
#: engine's trace replayer (:mod:`repro.serve`)
STREAM_REPORT_VERSION = 3

#: format version of streaming checkpoints (:meth:`StreamingSweep.
#: checkpoint` engine snapshots, the ``kind="streaming-replay"``
#: wrappers :func:`replay_schedule` writes, and the per-tenant engines
#: nested in serve checkpoints); resume refuses versions it does not
#: understand rather than guessing. Version 2 dropped the ``parity``
#: solve default.
STREAM_CHECKPOINT_VERSION = 2


def _matrix_to_dict(A) -> dict:
    """JSON-serialisable dense/CSR matrix (exact float64 round-trip)."""
    if sp.issparse(A):
        A = A.tocsr()
        return {"csr": {
            "data": np.asarray(A.data, dtype=np.float64).tolist(),
            "indices": A.indices.tolist(),
            "indptr": A.indptr.tolist(),
            "shape": [int(A.shape[0]), int(A.shape[1])],
        }}
    return {"dense": np.asarray(A, dtype=np.float64).tolist(),
            "shape": [int(A.shape[0]), int(A.shape[1])]}


def _matrix_from_dict(d: dict):
    """Inverse of :func:`_matrix_to_dict`."""
    try:
        if "csr" in d:
            c = d["csr"]
            return sp.csr_matrix(
                (np.asarray(c["data"], dtype=np.float64),
                 np.asarray(c["indices"], dtype=np.intp),
                 np.asarray(c["indptr"], dtype=np.intp)),
                shape=tuple(c["shape"]),
            )
        return np.asarray(d["dense"], dtype=np.float64).reshape(tuple(d["shape"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"streaming checkpoint field 'matrix' is malformed: {exc!r}"
        ) from exc


def check_stream_checkpoint(ck: dict, kind: str,
                            where: str = "streaming checkpoint",
                            path: str = "") -> None:
    """Raise :class:`CheckpointError` naming ``where`` and the field
    unless ``ck`` is a ``kind`` checkpoint of this version holding every
    field its resume reads (a replay's engine included), typed as its
    writer writes it. ``path`` places ``ck`` in an enclosing checkpoint."""
    name = f"{where} field {path[:-1]}" if path else where
    if ck.get("kind") != kind:
        raise CheckpointError(
            f"{name} is not a {kind!r} checkpoint (kind={ck.get('kind')!r})"
        )
    if ck.get("format_version") != STREAM_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{name} has unsupported format_version"
            f" {ck.get('format_version')!r} (this build reads"
            f" {STREAM_CHECKPOINT_VERSION})"
        )
    check_fields(ck, [("task", "'lasso' or 'svm'",
                       lambda v: v in ("lasso", "svm"))], where, path)
    if kind == "streaming-replay":
        check_fields(ck, _REPLAY_FIELDS, where, path)
        return check_stream_checkpoint(ck["engine"], "streaming", where,
                                       f"{path}'engine'.")
    task, eng = ck["task"], StreamingSweep
    check_fields(ck, eng._FIELDS + eng._TASK_FIELDS[task], where, path)
    solver = ("solver", f"one of {list(SOLVERS[task])}",
              lambda v: v in SOLVERS[task])
    check_fields(ck["defaults"], (solver,) + eng._DEFAULT_FIELDS, where,
                 f"{path}'defaults'.")
    for i, rev in enumerate(ck["revisions"]):
        check_fields(rev, eng._REVISION_FIELDS, where, f"{path}'revisions'.{i}.")


def _load_stream_checkpoint(source, kind: str) -> dict:
    """Read + validate a streaming checkpoint payload (dict or JSON path)."""
    ck = (source if isinstance(source, dict)
          else read_checkpoint_json(source, "streaming checkpoint"))
    check_stream_checkpoint(ck, kind)
    return ck


@dataclass
class DataRevision:
    """Ledger bucket for one state of the streamed dataset."""

    #: revision number (0 = the initial data)
    rev: int
    #: total rows after this revision's mutation
    rows_total: int
    #: rows this revision added (= ``rows_total`` for revision 0)
    rows_added: int
    #: rows this revision evicted (explicit ``evict`` or the ``max_rows``
    #: window trimming the oldest rows after an append)
    rows_removed: int = 0
    #: rows whose labels this revision rewrote in place
    labels_changed: int = 0
    #: modelled cost of the incremental state update itself (shard
    #: append + the ``A^T b`` extension; the label-delta reduction for a
    #: label revision; for revision 0, the initial ``A^T b`` derivation)
    append_cost: CostSnapshot = field(default_factory=CostSnapshot.zero)
    #: modelled cost of this revision's eviction (the ``A^T b`` downdate
    #: — one n-word Allreduce — plus the per-rank shard compaction)
    evict_cost: CostSnapshot = field(default_factory=CostSnapshot.zero)
    #: per-solve modelled costs banked against this revision
    solve_costs: list = field(default_factory=list)

    @property
    def refit_cost(self) -> CostSnapshot:
        """Total solve cost at this revision (summed solves)."""
        return sum(self.solve_costs, CostSnapshot.zero())


def _revision_entry(r: DataRevision) -> dict:
    """One revision's entry in :meth:`StreamingSweep.checkpoint`."""
    return {
        "rev": int(r.rev),
        "rows_total": int(r.rows_total),
        "rows_added": int(r.rows_added),
        "rows_removed": int(r.rows_removed),
        "labels_changed": int(r.labels_changed),
        "append_cost": r.append_cost.to_dict(),
        "evict_cost": r.evict_cost.to_dict(),
        "solve_costs": [c.to_dict() for c in r.solve_costs],
    }


def _check_svm_labels(y: np.ndarray) -> None:
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise SolverError("SVM labels must be in {-1, +1}")


def _check_row_ids(ids, op: str) -> np.ndarray:
    """Arrival-index array for a mutation op, validated *before* the
    intp cast — a NaN/inf would raise an opaque cast error and a
    fractional id would silently truncate onto the wrong row."""
    arr = np.asarray(ids).ravel()
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        try:
            flt = arr.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise SolverError(
                f"{op}: row ids must be integers, got dtype {arr.dtype}"
            ) from exc
        if not np.all(np.isfinite(flt)):
            raise SolverError(f"{op}: row ids contain non-finite entries")
        if not np.all(flt == np.floor(flt)):
            raise SolverError(
                f"{op}: row ids must be integral arrival indices, got "
                "fractional values"
            )
        arr = flt
    return arr.astype(np.intp)


class StreamingSweep:
    """Online refit engine: append/evict rows between solves, warm-restart.

    Parameters
    ----------
    A, b:
        Initial data (global dense/CSR, or an already-partitioned
        matrix whose communicator is adopted) and labels.
    task:
        ``"lasso"`` (row partition, warm primal) or ``"svm"`` (column
        partition, warm dual).
    max_rows:
        Sliding count window: after every append, the oldest surviving
        rows are evicted until at most ``max_rows`` remain (within the
        same :class:`DataRevision`, the trim measured as its
        ``evict_cost``). The initial data must already fit the window.
        ``None`` (default) keeps every row.
    comm, virtual_p, machine, eig_memo:
        As in :class:`~repro.path.SweepContext` (which this engine owns;
        the context's caches — sampling views, gather workspace, packed
        buffers, eig memo — persist across appends, evictions, and
        solves).
    solver, loss, lam, mu, s, max_iter, tol, seed, record_every, fast,
    schedule:
        Default solver knobs for :meth:`solve`, each overridable per
        call. ``lam=None`` resolves per solve: ``0.1 * lambda_max`` of
        the *current* data for Lasso, ``1.0`` for SVM. ``schedule``
        (default: :data:`~repro.solvers.outer.SWEEP_SCHEDULE`) runs as in
        :func:`~repro.path.lasso_path`, and :attr:`schedule` says what
        runs. A checkpoint pins these defaults, so an engine resumed
        from one keeps the schedule it was written with.

    Rows are identified by **arrival index** — the position of the row
    in the full arrival history (initial rows get ``0..m0-1``, each
    appended batch the next block) — which is what :meth:`evict` and
    :meth:`update_labels` take and what :meth:`arrival_order` /
    :meth:`surviving_rows` report. Arrival indices are never reused.

    Like the sweep context it owns, the engine takes ownership of the
    communicator's ledger: it is zeroed at every mutation and every
    solve so each :class:`DataRevision` carries isolated per-revision
    cost.
    """

    def __init__(
        self,
        A,
        b,
        *,
        task: str = "lasso",
        max_rows: int | None = None,
        comm: Comm | None = None,
        virtual_p: int = 1,
        machine: MachineSpec | None = None,
        eig_memo: EigMemo | None = None,
        solver: str | None = None,
        loss: str = "l1",
        lam=None,
        mu: int = 8,
        s: int = 16,
        max_iter: int = 500,
        tol: float | None = 1e-6,
        seed: int = 0,
        record_every: int = 10,
        fast: bool = True,
        schedule: Schedule = SWEEP_SCHEDULE,
    ) -> None:
        self.ctx = SweepContext(
            A, b, task=task, comm=comm, virtual_p=virtual_p, machine=machine,
            eig_memo=eig_memo,
        )
        self.task = task
        self.dist = self.ctx.dist
        self.comm = self.ctx.comm
        solver = solver if solver is not None else DEFAULT_SOLVER[task]
        check_solver(solver, task)
        self.defaults = dict(
            solver=solver,
            loss=loss, lam=lam, mu=mu, s=s, max_iter=max_iter, tol=tol,
            seed=seed, record_every=record_every, fast=fast,
            schedule=schedule,
        )
        self._x_warm: np.ndarray | None = None
        self._alpha_warm: np.ndarray | None = None
        m = self.dist.shape[0]
        if max_rows is not None:
            max_rows = int(max_rows)
            if max_rows < 1:
                raise SolverError(f"max_rows must be >= 1, got {max_rows}")
            if m > max_rows:
                raise SolverError(
                    f"initial data has {m} rows, more than max_rows="
                    f"{max_rows}; trim the data or widen the window"
                )
        self.max_rows = max_rows
        part = self.dist.partition
        if task == "lasso":
            #: per-rank arrival indices, mirroring the rank-blocked
            #: global row order of the row-partitioned layout
            self._arrivals = [
                np.arange(*part.range_of(r)) for r in range(self.comm.size)
            ]
        else:
            #: arrival index per row of the (arrival-ordered) SVM layout
            self._svm_arrivals = np.arange(m)
        self._next_arrival = m
        # revision 0: derive the incremental lambda_max state (measured)
        self.comm.reset()
        if task == "lasso":
            lo, hi = part.range_of(self.comm.rank)
            local_part = np.asarray(
                self.dist.local.T @ self.ctx.b[lo:hi], dtype=np.float64
            ).ravel()
            self.comm.account_flops(2.0 * self.dist.local_nnz, "spmv")
            self._atb = np.asarray(
                self.comm.Allreduce(local_part, timeout=self.comm.timeout)).ravel()
        else:
            _check_svm_labels(self.ctx.b)
            self._atb = None
        self.revisions: list[DataRevision] = [
            DataRevision(0, m, m, append_cost=self.comm.ledger.snapshot())
        ]
        #: the checkpoint entries of the revisions before the last, which
        #: can no longer change (a solve banks against the last): each is
        #: built once and shared by every later checkpoint
        self._closed_entries: list[dict] = []

    # -- state ---------------------------------------------------------------
    @property
    def b(self) -> np.ndarray:
        """Labels in the engine's effective global row order."""
        return self.ctx.b

    @property
    def n_rows(self) -> int:
        return self.dist.shape[0]

    @property
    def revision(self) -> int:
        """Current data revision (0 = the initial data)."""
        return self.revisions[-1].rev

    @property
    def lambda_max(self) -> float:
        """``||A^T b||_inf`` of the current data, maintained incrementally."""
        if self._atb is None:
            raise SolverError("lambda_max is a Lasso quantity (task='svm')")
        return float(np.max(np.abs(self._atb))) if self._atb.size else 0.0

    @property
    def schedule(self) -> Schedule:
        """The schedule :meth:`solve` runs at the engine defaults."""
        d = self.defaults
        return self.ctx.resolve(d["schedule"], d["solver"], s=d["s"],
                                mu=d["mu"], tol=d["tol"])

    def arrival_order(self) -> np.ndarray:
        """Arrival index of each row of the effective global matrix.

        ``materialize()[0]`` equals the full arrival-history
        concatenation ``[A; B_1; B_2; ...]`` indexed by this array
        (evicted rows simply never appear). Ascending for the SVM
        layout (exact arrival order); rank-blocked for the Lasso
        layout.
        """
        if self.task == "svm":
            return self._svm_arrivals.copy()
        return np.concatenate(self._arrivals)

    def surviving_rows(self) -> np.ndarray:
        """Sorted arrival indices of the rows currently in the window."""
        return np.sort(self.arrival_order())

    def materialize(self):
        """``(A_eff, b_eff)``: the effective global problem, on every rank.

        Instrumentation only (the gather is ledger-paused): this is the
        reference the equivalence tests cold-solve against. Partition
        ``A_eff`` with ``self.dist.partition`` to reproduce the engine's
        shards bit for bit.
        """
        with self.comm.ledger.paused():
            shards = self.comm.allgather(self.dist.local, timeout=self.comm.timeout)
        if self.task == "lasso":
            if self.dist.is_sparse:
                A_eff = sp.vstack(shards, format="csr")
            else:
                A_eff = np.vstack(shards)
        else:
            if self.dist.is_sparse:
                A_eff = sp.hstack(shards, format="csr")
            else:
                A_eff = np.hstack(shards)
        return A_eff, self.ctx.b.copy()

    # -- checkpoint / resume -------------------------------------------------
    #: (field, what it must be, check) for each field :meth:`from_checkpoint`
    #: reads: of every task, by task, of the solve defaults (the schedule
    #: as ``Schedule.flags``, the solver checked apart) and of a revision
    _FIELDS = fields(
        ("null or an integer", or_null(is_int), "max_rows"),
        ("an object", is_obj, "defaults"),
        ("a dense or CSR matrix", lambda v: is_obj(v) and ("csr" in v or "dense" in v),
         "matrix"),
        ("a list of numbers", list_of(is_num), "b"),
        ("a list of integers", list_of(is_int), "offsets"),
        ("an integer", is_int, "next_arrival"),
        ("null or a list of numbers", or_null(list_of(is_num)), "x_warm", "alpha_warm"),
        ("a non-empty list of objects", lambda v: list_of(is_obj)(v) and len(v) > 0,
         "revisions"),
    )
    _TASK_FIELDS = {
        "lasso": fields(("one list of integers per rank", list_of(list_of(is_int)),
                         "arrivals"), ("a list of numbers", list_of(is_num), "atb")),
        "svm": fields(("a list of integers", list_of(is_int), "arrivals"),
                      ("null", lambda v: v is None, "atb")),
    }
    _DEFAULT_FIELDS = fields(
        ("a string", lambda v: isinstance(v, str), "loss"),
        ("null, a number or a penalty", or_null(lambda v: is_num(v) or is_obj(v)), "lam"),
        ("an integer", is_int, "mu", "s", "max_iter", "seed", "record_every"),
        ("null or a number", or_null(is_num), "tol"),
        ("a boolean", lambda v: isinstance(v, bool), "fast", "pipeline", "async_"),
        ("an integer >= 0", lambda v: is_int(v) and v >= 0, "tau"),
    )
    # CostSnapshot.from_dict reads each cost block, naming a bad cost field
    _REVISION_FIELDS = fields(
        ("an integer", is_int, "rev", "rows_total", "rows_added", "rows_removed",
         "labels_changed"),
        ("a cost block (an object)", is_obj, "append_cost", "evict_cost"),
        ("a list of cost blocks (objects)", list_of(is_obj), "solve_costs"),
    )

    def checkpoint(self, sink=None) -> dict:
        """Snapshot the engine as a JSON-serialisable dict (and optionally
        deliver it).

        SPMD-collective (the effective matrix is reassembled via
        :meth:`materialize`, ledger-paused). The payload carries the
        materialized data, the explicit partition offsets (so resume
        reproduces every rank's shard bit for bit), the arrival-index
        bookkeeping, the incremental ``A^T b`` state, the warm vectors,
        the solve defaults, and the full per-revision cost history —
        everything :meth:`from_checkpoint` needs to continue the stream
        as if the process had never died.

        ``sink`` follows the solver-checkpoint convention: a callable is
        invoked on every rank with the payload; a path is written
        atomically by rank 0 only.

        Every ``revisions`` entry but the last is the very object earlier
        checkpoints of this engine carried, so a payload is read-only:
        copy it before editing.
        """
        A_eff, b_eff = self.materialize()
        closed = self._closed_entries
        closed += map(_revision_entry, self.revisions[len(closed):-1])
        payload = {
            "format_version": STREAM_CHECKPOINT_VERSION,
            "kind": "streaming",
            "task": self.task,
            "max_rows": self.max_rows,
            "defaults": {
                **{k: v for k, v in self.defaults.items() if k != "schedule"},
                "lam": encode_lam(self.defaults["lam"]),
                **self.defaults["schedule"].flags(),
            },
            "matrix": _matrix_to_dict(A_eff),
            "b": b_eff.tolist(),
            "offsets": [int(o) for o in self.dist.partition.offsets],
            "arrivals": (
                [arr.tolist() for arr in self._arrivals]
                if self.task == "lasso" else self._svm_arrivals.tolist()
            ),
            "next_arrival": int(self._next_arrival),
            "atb": None if self._atb is None else self._atb.tolist(),
            "x_warm": None if self._x_warm is None else self._x_warm.tolist(),
            "alpha_warm": (
                None if self._alpha_warm is None else self._alpha_warm.tolist()
            ),
            "revisions": closed + [_revision_entry(self.revisions[-1])],
        }
        emit_solver_checkpoint(payload, sink, self.comm.rank)
        return payload

    @classmethod
    def from_checkpoint(
        cls,
        source,
        *,
        comm: Comm | None = None,
        virtual_p: int = 1,
        machine: MachineSpec | None = None,
        eig_memo: EigMemo | None = None,
    ) -> "StreamingSweep":
        """Rebuild an engine from a :meth:`checkpoint` payload (or path).

        The partitioned matrix is reconstructed from the materialized
        data with the checkpoint's *explicit* partition offsets — not
        re-balanced — so every rank's shard, the arrival bookkeeping,
        the ``A^T b`` state, and the warm vectors come back exactly as
        checkpointed: a resumed :meth:`solve` produces the same iterates
        the uninterrupted engine would have. The communicator must have
        the same size the checkpoint was taken at (the offsets are
        per-rank); the backend is free to differ.
        """
        ck = _load_stream_checkpoint(source, "streaming")
        task = ck["task"]
        if comm is None:
            comm = VirtualComm(virtual_size=virtual_p, machine=machine)
        offsets = tuple(ck["offsets"])
        if len(offsets) - 1 != comm.size:
            raise CheckpointError(
                f"streaming checkpoint was taken at {len(offsets) - 1}"
                f" ranks; the resuming communicator has {comm.size}"
            )
        A_eff = _matrix_from_dict(ck["matrix"])
        mat_cls = RowPartitionedMatrix if task == "lasso" else ColPartitionedMatrix
        dist = mat_cls.from_global(A_eff, comm, partition=Partition1D(offsets))
        d = ck["defaults"]
        engine = cls(
            dist, np.asarray(ck["b"], dtype=np.float64), task=task,
            max_rows=ck["max_rows"], eig_memo=eig_memo,
            **{key: d[key] for key in ("solver", "loss", "mu", "s", "max_iter",
                                       "tol", "seed", "record_every", "fast")},
            lam=decode_lam(d["lam"]),
            schedule=Schedule.from_flags(d["pipeline"], d["async_"], d["tau"]),
        )
        # overwrite the constructor's fresh revision-0 state with the
        # checkpointed stream state (arrival history, incremental A^T b,
        # warm vectors, per-revision cost ledgers)
        if task == "lasso":
            engine._arrivals = [
                np.asarray(a, dtype=np.intp) for a in ck["arrivals"]
            ]
            engine._atb = np.asarray(ck["atb"], dtype=np.float64)
        else:
            engine._svm_arrivals = np.asarray(ck["arrivals"], dtype=np.intp)
        engine._next_arrival = ck["next_arrival"]
        engine._x_warm, engine._alpha_warm = (
            None if ck[key] is None else np.asarray(ck[key], dtype=np.float64)
            for key in ("x_warm", "alpha_warm")
        )
        try:
            engine.revisions = [
                DataRevision(
                    r["rev"], r["rows_total"], r["rows_added"],
                    rows_removed=r["rows_removed"],
                    labels_changed=r["labels_changed"],
                    append_cost=CostSnapshot.from_dict(r["append_cost"]),
                    evict_cost=CostSnapshot.from_dict(r["evict_cost"]),
                    solve_costs=[
                        CostSnapshot.from_dict(c) for c in r["solve_costs"]
                    ],
                )
                for r in ck["revisions"]
            ]
        except CostModelError as exc:
            raise CheckpointError(
                f"streaming checkpoint revision costs: {exc}"
            ) from exc
        return engine

    # -- streaming -----------------------------------------------------------
    def append(self, B, y) -> int:
        """Ingest a batch of ``k`` new rows (and labels); returns the new
        revision number.

        SPMD-collective: every rank calls with the same global batch.
        The incremental work — per-rank shard append, the ``O(nnz(B))``
        extension of ``A^T b`` (Lasso), the label reordering — is
        measured into the new revision's ``append_cost``. With
        ``max_rows=`` set, the oldest surviving rows are then evicted
        until the batch fits the window, measured separately into the
        same revision's ``evict_cost``.

        An empty batch (``k == 0``) is a defined no-op: no revision is
        emitted, no cost charged, no cache invalidated; the current
        revision number is returned.
        """
        y = np.asarray(y, dtype=np.float64).ravel()
        k = int(B.shape[0])
        if y.shape[0] != k:
            raise SolverError(
                f"labels must match the batch: got {y.shape[0]} labels "
                f"for {k} rows"
            )
        if k == 0:
            return self.revision
        if not np.all(np.isfinite(y)):
            raise SolverError("append: labels contain non-finite entries")
        if self.task == "svm":
            _check_svm_labels(y)
        self.comm.reset()
        if self.task == "lasso":
            old_part = self.dist.partition
            batch_part = self.dist.append_rows(B)
            # labels follow the rank-blocked row order of the shards
            segs = []
            for r in range(self.comm.size):
                olo, ohi = old_part.range_of(r)
                blo, bhi = batch_part.range_of(r)
                segs.append(self.ctx.b[olo:ohi])
                segs.append(y[blo:bhi])
                self._arrivals[r] = np.concatenate(
                    [self._arrivals[r],
                     self._next_arrival + np.arange(blo, bhi)]
                )
            new_b = np.concatenate(segs)
            # incremental lambda_max: A^T b gains B_share^T y_share,
            # summed across ranks — O(nnz(B)) + one n-word Allreduce
            # instead of an O(nnz(A)) recompute
            blo, bhi = batch_part.range_of(self.comm.rank)
            share = B[blo:bhi]
            part = np.asarray(share.T @ y[blo:bhi], dtype=np.float64).ravel()
            self.comm.account_flops(2.0 * nnz_of(share), "spmv")
            self._atb = self._atb + np.asarray(
                self.comm.Allreduce(part, timeout=self.comm.timeout)).ravel()
            self.comm.account_flops(float(self._atb.shape[0]), "blas1")
        else:
            self.dist.append_rows(B)
            new_b = np.concatenate([self.ctx.b, y])
            # the dual box gains k coordinates; the warm dual enters at 0
            # (always feasible — the box is [0, nu] per coordinate)
            if self._alpha_warm is not None:
                self._alpha_warm = np.concatenate([self._alpha_warm, np.zeros(k)])
            self._svm_arrivals = np.concatenate(
                [self._svm_arrivals, self._next_arrival + np.arange(k)]
            )
        self._next_arrival += k
        removed = (0 if self.max_rows is None
                   else max(0, self.n_rows - self.max_rows))
        # the window trim re-derives the problem signature itself, so
        # fingerprint the post-append shard only when no trim follows
        self.ctx.b = new_b
        if removed == 0:
            self.ctx.refresh_problem()
        append_cost = self.comm.ledger.snapshot()
        if removed:
            self._apply_evict(self.surviving_rows()[:removed])
        self.revisions.append(
            DataRevision(
                self.revision + 1, self.n_rows, k, rows_removed=removed,
                append_cost=append_cost,
                evict_cost=self.comm.ledger.snapshot() - append_cost,
            )
        )
        return self.revision

    def _apply_evict(self, ids: np.ndarray) -> None:
        """State change for one eviction of the (unique, sorted) arrival
        indices ``ids``; the caller owns the ledger reset and the
        revision bookkeeping. Validates before mutating anything."""
        if self.task == "lasso":
            masks = [np.isin(arr, ids) for arr in self._arrivals]
            found = sum(int(m.sum()) for m in masks)
        else:
            svm_mask = np.isin(self._svm_arrivals, ids)
            found = int(svm_mask.sum())
        if found != ids.size:
            raise SolverError(
                f"evict: {ids.size - found} of {ids.size} row ids are not "
                "present (already evicted, or never appended)"
            )
        if found >= self.n_rows:
            raise SolverError("cannot evict every row")
        part = self.dist.partition
        if self.task == "lasso":
            # downdate A^T b from the owned evicted rows *before* the
            # compaction drops them: A^T b -= B_ev_share^T y_ev_share,
            # summed across ranks — O(nnz(B_ev)) + one n-word Allreduce
            # instead of an O(nnz(A)) rescan of the survivors
            lo, hi = part.range_of(self.comm.rank)
            own = np.nonzero(masks[self.comm.rank])[0]
            B_ev = self.dist.local[own]
            y_ev = self.ctx.b[lo:hi][masks[self.comm.rank]]
            contrib = np.asarray(B_ev.T @ y_ev, dtype=np.float64).ravel()
            self.comm.account_flops(2.0 * nnz_of(B_ev), "spmv")
            self._atb = self._atb - np.asarray(
                self.comm.Allreduce(contrib, timeout=self.comm.timeout)).ravel()
            self.comm.account_flops(float(self._atb.shape[0]), "blas1")
            global_idx, segs = [], []
            for r in range(self.comm.size):
                rlo, rhi = part.range_of(r)
                global_idx.append(rlo + np.nonzero(masks[r])[0])
                segs.append(self.ctx.b[rlo:rhi][~masks[r]])
                self._arrivals[r] = self._arrivals[r][~masks[r]]
            self.dist.remove_rows(np.concatenate(global_idx))
            new_b = np.concatenate(segs)
        else:
            self.dist.remove_rows(np.nonzero(svm_mask)[0])
            new_b = self.ctx.b[~svm_mask]
            if self._alpha_warm is not None:
                # surviving duals keep their (compacted) positions; the
                # evicted coordinates leave the box with their rows
                self._alpha_warm = self._alpha_warm[~svm_mask]
            self._svm_arrivals = self._svm_arrivals[~svm_mask]
        self.ctx.refresh_problem(new_b)

    def evict(self, ids) -> int:
        """Retire rows by arrival index; returns the new revision number.

        SPMD-collective: every rank calls with the same ``ids`` —
        arrival indices of currently-present rows (:meth:`arrival_order`
        / :meth:`surviving_rows`; duplicates are merged). Each rank
        compacts its own shard in place; the Lasso ``A^T b`` state is
        *downdated* (one ``O(nnz(B_ev))`` local product plus an n-word
        Allreduce), so :attr:`lambda_max` stays exact without a rescan.
        The Lasso primal warm start is kept verbatim — its dimension
        ``n`` is untouched — while the SVM warm dual drops the evicted
        rows' coordinates (the survivors stay feasible: the dual box is
        per-coordinate). The downdate + compaction cost is measured into
        the new revision's ``evict_cost``.

        Evicting an unknown id or the entire dataset raises
        :class:`SolverError` before any state changes; empty ``ids`` is
        a no-op (no revision, current number returned).
        """
        ids = np.unique(_check_row_ids(ids, "evict"))
        if ids.size == 0:
            return self.revision
        self.comm.reset()
        self._apply_evict(ids)
        self.revisions.append(
            DataRevision(
                self.revision + 1, self.n_rows, 0, rows_removed=int(ids.size),
                evict_cost=self.comm.ledger.snapshot(),
            )
        )
        return self.revision

    def update_labels(self, ids, y_new) -> int:
        """Rewrite the labels of rows ``ids`` (arrival indices) in place;
        returns the new revision number.

        SPMD-collective, and the shards are never touched: for Lasso the
        ``A^T b`` state is re-derived via a **delta reduction** —
        ``A^T b += A_rows^T (y_new - y_old)``, an ``O(nnz(rows))`` local
        product plus one n-word Allreduce — so :attr:`lambda_max` stays
        exact; the primal warm start is kept verbatim. For SVM the
        labels are replicated, so only ``b`` changes; the warm dual's
        *changed* coordinates are reset to 0 (the old alpha pushed for
        the old label; 0 is always feasible), the rest kept. The delta
        reduction's cost is measured into the new revision's
        ``append_cost``.

        Unknown ids or duplicate ids raise :class:`SolverError` before
        any state changes; empty ``ids`` is a no-op.
        """
        ids = _check_row_ids(ids, "update_labels")
        y_new = np.asarray(y_new, dtype=np.float64).ravel()
        if y_new.shape[0] != ids.shape[0]:
            raise SolverError(
                f"labels must match the ids: got {y_new.shape[0]} labels "
                f"for {ids.shape[0]} ids"
            )
        if ids.size == 0:
            return self.revision
        if not np.all(np.isfinite(y_new)):
            raise SolverError(
                "update_labels: labels contain non-finite entries"
            )
        order = np.argsort(ids)
        ids_sorted = ids[order]
        if np.unique(ids_sorted).size != ids.size:
            raise SolverError("update_labels got duplicate row ids")
        y_sorted = y_new[order]
        if self.task == "svm":
            _check_svm_labels(y_new)
            mask = np.isin(self._svm_arrivals, ids_sorted)
            pos = np.nonzero(mask)[0]
            found = int(pos.size)
        else:
            sel = [np.nonzero(np.isin(arr, ids_sorted))[0]
                   for arr in self._arrivals]
            found = sum(int(p.size) for p in sel)
        if found != ids.size:
            raise SolverError(
                f"update_labels: {ids.size - found} of {ids.size} row ids "
                "are not present (evicted, or never appended)"
            )
        self.comm.reset()
        new_b = self.ctx.b.copy()
        if self.task == "lasso":
            part = self.dist.partition
            contrib = np.zeros(self.dist.shape[1])
            for r in range(self.comm.size):
                pos = sel[r]
                if pos.size == 0:
                    continue
                lo, _ = part.range_of(r)
                y_vals = y_sorted[
                    np.searchsorted(ids_sorted, self._arrivals[r][pos])
                ]
                if r == self.comm.rank:
                    rows = self.dist.local[pos]
                    delta = y_vals - self.ctx.b[lo + pos]
                    # repro: lint-ignore[collective-in-rank-branch] -- the
                    # owning rank's local partial product, no communication;
                    # every rank joins the Allreduce below
                    contrib = np.asarray(rows.T @ delta, dtype=np.float64).ravel()
                    # repro: lint-ignore[collective-in-rank-branch] -- owner-only flop accounting
                    self.comm.account_flops(2.0 * nnz_of(rows), "spmv")
                new_b[lo + pos] = y_vals
            # every rank joins the reduction, edits owned or not
            self._atb = self._atb + np.asarray(
                self.comm.Allreduce(contrib, timeout=self.comm.timeout)).ravel()
            self.comm.account_flops(float(self._atb.shape[0]), "blas1")
        else:
            new_b[pos] = y_sorted[
                np.searchsorted(ids_sorted, self._svm_arrivals[pos])
            ]
            if self._alpha_warm is not None:
                self._alpha_warm = self._alpha_warm.copy()
                self._alpha_warm[pos] = 0.0
            self.comm.account_flops(float(ids.size), "blas1")
        # label-only: the matrix (and its fingerprint) is unchanged
        self.ctx.b = new_b
        self.revisions.append(
            DataRevision(
                self.revision + 1, self.n_rows, 0,
                labels_changed=int(ids.size),
                append_cost=self.comm.ledger.snapshot(),
            )
        )
        return self.revision

    # -- solving -------------------------------------------------------------
    def solve(self, lam=None, warm_start: bool = True, **overrides) -> SolverResult:
        """Refit at the current revision; warm-started by default.

        ``lam`` and any solver knob override the engine defaults for
        this call, which runs :meth:`~repro.path.SweepContext.solve` on
        the engine's context. The solve's modelled cost is banked
        against the current :class:`DataRevision`.
        """
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise SolverError(f"unknown solve override(s): {sorted(unknown)}")
        knobs = {**self.defaults, **overrides}
        default_lam = knobs.pop("lam")
        if lam is None:
            lam = default_lam
            if lam is None:
                lam = 0.1 * self.lambda_max if self.task == "lasso" else 1.0
        warm = self._x_warm if self.task == "lasso" else self._alpha_warm
        res = self.ctx.solve(lam, warm if warm_start else None, **knobs)
        if self.task == "lasso":
            self._x_warm = res.x
        else:
            self._alpha_warm = res.extras["alpha"]
        self.revisions[-1].solve_costs.append(res.cost)
        return res

    def refit(self, B, y, lam=None, **overrides) -> SolverResult:
        """``append(B, y)`` + warm :meth:`solve` in one call."""
        self.append(B, y)
        return self.solve(lam=lam, **overrides)


# ---------------------------------------------------------------------------
# schedule replay (CLI / benchmark / test harness)
# ---------------------------------------------------------------------------


def _solve_dict(res: SolverResult) -> dict:
    return {
        "iterations": int(res.iterations),
        "final_metric": float(res.final_metric),
        "converged": bool(res.converged),
        "cost": res.cost.to_report(),
    }


def _normalize_events(batches) -> list:
    """Coerce a replay schedule into ``(op, ...)`` event tuples.

    Accepted entries: a plain ``(B, y)`` pair (row arrival, backward
    compatible), or an op-tagged tuple — ``("append", B, y)``,
    ``("evict", ids)`` / ``("evict_oldest", n)``, ``("labels", ids,
    y_new)`` / ``("relabel_oldest", n)`` (the latter negates the current
    labels of the ``n`` oldest surviving rows, a deterministic label
    edit valid for both tasks), and ``("sleep", seconds)`` — advance
    virtual time by ``seconds`` without touching the data or refitting
    (charged to the ledger as idle time; no wall clock is spent). The
    sleep token is how timestamped arrival traces are expressed in the
    schedule vocabulary shared with the serving engine
    (:mod:`repro.serve`).
    """
    events = []
    for ev in batches:
        if not isinstance(ev, (tuple, list)) or not len(ev):
            raise SolverError(f"unknown streaming event {ev!r}")
        if not isinstance(ev[0], str):
            if len(ev) != 2:
                raise SolverError(f"unknown streaming event {ev!r}")
            events.append(("append", ev[0], ev[1]))
            continue
        op = ev[0]
        if op == "append" and len(ev) == 3:
            events.append(("append", ev[1], ev[2]))
        elif op == "evict" and len(ev) == 2:
            events.append(("evict", np.asarray(ev[1], dtype=np.intp).ravel()))
        elif op == "evict_oldest" and len(ev) == 2:
            events.append(("evict_oldest", int(ev[1])))
        elif op == "labels" and len(ev) == 3:
            events.append((
                "labels",
                np.asarray(ev[1], dtype=np.intp).ravel(),
                np.asarray(ev[2], dtype=np.float64).ravel(),
            ))
        elif op == "relabel_oldest" and len(ev) == 2:
            events.append(("relabel_oldest", int(ev[1])))
        elif op == "sleep" and len(ev) == 2:
            seconds = float(ev[1])
            if not np.isfinite(seconds) or seconds < 0:
                raise SolverError(
                    f"sleep seconds must be finite and >= 0, got {ev[1]!r}"
                )
            events.append(("sleep", seconds))
        else:
            raise SolverError(f"unknown streaming event {ev!r}")
    return events


def _sched_entry(ev) -> dict:
    """Echo one input event for the report's ``schedule`` field.

    ``rows`` is the *requested* count; for the ``*_oldest`` ops it may
    exceed the surviving rows, in which case the matching revision's
    ``rows_removed`` / ``labels_changed`` records what was actually
    affected.
    """
    op = ev[0]
    if op == "append":
        return {"op": "append", "rows": int(ev[1].shape[0])}
    if op == "sleep":
        return {"op": "sleep", "rows": 0, "seconds": float(ev[1])}
    if op in ("evict", "labels"):
        return {"op": op, "rows": int(len(ev[1]))}
    # the *_oldest ops carry a count, not ids
    return {"op": {"evict_oldest": "evict", "relabel_oldest": "labels"}[op],
            "rows": int(ev[1])}


#: (field, what it must be, check) for each field of a
#: ``kind="streaming-replay"`` checkpoint (written by
#: :func:`replay_schedule`) that its resume reads
_REPLAY_FIELDS = fields(
    ("an integer", is_int, "events_applied"),
    ("a number", is_num, "slept_seconds"),
    ("null, a number or a penalty", or_null(lambda v: is_num(v) or is_obj(v)), "lam_used"),
    ("a list of objects", list_of(is_obj), "entries"),
    ("an object", is_obj, "engine"),
)


def replay_schedule(
    A,
    b,
    batches,
    *,
    task: str = "lasso",
    max_rows: int | None = None,
    lam=None,
    solver: str | None = None,
    loss: str = "l1",
    mu: int = 8,
    s: int = 16,
    max_iter: int = 500,
    tol: float | None = 1e-6,
    seed: int = 0,
    record_every: int = 10,
    fast: bool = True,
    schedule: Schedule = SWEEP_SCHEDULE,
    backend: str = "virtual",
    ranks: int = 4,
    virtual_p: int = 1,
    machine: MachineSpec | None = None,
    warm_start: bool = True,
    compare_cold: bool = False,
    checkpoint_path=None,
    resume_from=None,
    recover: str = "raise",
    max_recoveries: int = 2,
) -> dict:
    """Replay a streaming schedule through a :class:`StreamingSweep`.

    ``batches`` is a sequence of events ingested in order — plain
    ``(B_i, y_i)`` pairs (row arrivals) or op-tagged tuples carrying
    evictions and label edits (see :func:`_normalize_events`); the
    initial fit happens at revision 0 and each event triggers one warm
    refit. ``max_rows`` turns the replay into a sliding window: each
    append evicts the oldest surviving rows beyond the window within the
    same revision. With ``compare_cold=True`` every refit is also
    measured against a cold re-solve (fresh partitioned matrix over the
    *surviving* materialized data, zero start, fresh eig memo) — the
    honest "retrain from scratch" baseline — and the warm/cold
    solutions' relative difference is recorded.

    ``backend`` selects where the whole engine runs: ``"virtual"``
    in-process at ``virtual_p`` modelled ranks, or ``"thread"`` /
    ``"process"`` as ``ranks`` real SPMD participants (costs modelled at
    ``max(virtual_p, ranks)``). Returns a plain-dict report (JSON-ready,
    picklable across the process backend).

    ``schedule`` is the engine's (:class:`StreamingSweep`), for every
    refit and cold re-solve; the report's ``pipeline``, ``async`` and
    ``tau`` keys record the schedule that ran (``Schedule.report``).

    ``checkpoint_path`` makes the replay crash-safe: after the initial
    fit and after every processed event, a ``kind="streaming-replay"``
    checkpoint (engine snapshot + completed report entries + the number
    of events applied) is written atomically by rank 0. ``resume_from``
    (the payload dict or its path) continues a killed replay: the engine
    and completed entries are restored, the already-applied prefix of
    ``batches`` is skipped, and the remaining events run as usual — the
    final report is identical to an uninterrupted replay (modelled
    costs included). Pass the same schedule and knobs when resuming;
    the checkpoint pins the engine's solve defaults, so a checkpoint
    written blocking resumes blocking.

    ``recover="checkpoint"`` (``backend="process"`` only) turns a rank
    death mid-replay into a supervised recovery: the dead rank is
    respawned and the replay resumes from the supervisor's latest
    in-memory streaming checkpoint (shipped after every event, whether
    or not ``checkpoint_path`` is set), at most ``max_recoveries``
    times. The report's ``recovery`` block carries the counters.
    """
    if task not in ("lasso", "svm"):
        raise SolverError(f"unknown streaming task {task!r}; known: ['lasso', 'svm']")
    events = _normalize_events(batches)
    knobs = dict(
        solver=solver, loss=loss, lam=lam, mu=mu, s=s, max_iter=max_iter,
        tol=tol, seed=seed, record_every=record_every, fast=fast,
        schedule=schedule,
    )

    def work(comm, rank):
        # under recover="checkpoint" a redispatched attempt resumes from
        # the supervisor's latest checkpoint, and every checkpoint is
        # shipped to the supervisor as well as to checkpoint_path
        _, ck_sink, resume_src = recovery_knobs(
            comm, 0, checkpoint_path, resume_from, default_every=1
        )
        if resume_src is not None:
            rck = _load_stream_checkpoint(resume_src, "streaming-replay")
            if rck["task"] != task:
                raise CheckpointError(
                    f"replay checkpoint is a {rck['task']!r} run; resume"
                    f" was called with task={task!r}"
                )
            applied = rck["events_applied"]
            if applied > len(events):
                raise CheckpointError(
                    f"replay checkpoint already applied {applied} events;"
                    f" the resuming schedule has only {len(events)}"
                )
            engine = StreamingSweep.from_checkpoint(rck["engine"], comm=comm)
            lam_used = decode_lam(rck["lam_used"])
            entries = list(rck["entries"])
            slept = float(rck["slept_seconds"])
        else:
            engine = StreamingSweep(
                A, b, task=task, comm=comm, max_rows=max_rows, **knobs
            )
            # resolve lambda once, on the initial data, and hold it
            # fixed across revisions (the production scenario: the model
            # spec does not change when data arrives)
            lam_used = knobs["lam"]
            if lam_used is None:
                lam_used = 0.1 * engine.lambda_max if task == "lasso" else 1.0
            applied = 0
            entries = []
            slept = 0.0

        def emit_replay_ck(n_applied):
            if ck_sink is None:
                return
            # collective (the engine snapshot gathers the shards), but
            # only rank 0 writes — the payload is replicated knowledge
            payload = {
                "format_version": STREAM_CHECKPOINT_VERSION,
                "kind": "streaming-replay",
                "task": task,
                "events_applied": int(n_applied),
                "slept_seconds": float(slept),
                "lam_used": encode_lam(lam_used),
                "warm_start": bool(warm_start),
                "entries": entries,
                "engine": engine.checkpoint(),
            }
            emit_solver_checkpoint(payload, ck_sink, comm.rank)

        def run_cold():
            # the warm refits' solver configuration (the engine defaults,
            # schedule included) — the variable under measurement is the
            # warm start + incremental state, not the solver mode
            A_eff, b_eff = engine.materialize()
            cls = RowPartitionedMatrix if task == "lasso" else ColPartitionedMatrix
            cold_dist = cls.from_global(A_eff, comm,
                                        partition=engine.dist.partition)
            knobs = {k: v for k, v in engine.defaults.items() if k != "lam"}
            return SweepContext(cold_dist, b_eff, task=task,
                                eig_memo=EigMemo()).solve(lam_used, **knobs)

        def entry(rev_obj, warm_res, cold_res):
            e = {
                "rev": rev_obj.rev,
                "rows_total": rev_obj.rows_total,
                "rows_added": rev_obj.rows_added,
                "rows_removed": rev_obj.rows_removed,
                "labels_changed": rev_obj.labels_changed,
                "append_cost": rev_obj.append_cost.to_report(),
                "evict_cost": rev_obj.evict_cost.to_report(),
                "warm": _solve_dict(warm_res),
                "cold": _solve_dict(cold_res) if cold_res is not None else None,
                "solution_rel_diff": None,
            }
            if cold_res is not None:
                scale = max(float(np.max(np.abs(cold_res.x))), 1e-30)
                e["solution_rel_diff"] = (
                    float(np.max(np.abs(warm_res.x - cold_res.x))) / scale
                )
            return e

        def apply_event(ev):
            op = ev[0]
            if op == "append":
                engine.append(ev[1], ev[2])
            elif op == "evict":
                engine.evict(ev[1])
            elif op == "evict_oldest":
                engine.evict(engine.surviving_rows()[: ev[1]])
            elif op == "labels":
                engine.update_labels(ev[1], ev[2])
            else:  # relabel_oldest: negate the oldest rows' current labels
                ids = engine.surviving_rows()[: ev[1]]
                order = engine.arrival_order()
                pos = np.nonzero(np.isin(order, ids))[0]
                engine.update_labels(order[pos], -engine.b[pos])

        if not entries:
            res0 = engine.solve(lam=lam_used, warm_start=False)
            entries.append(entry(engine.revisions[0], res0, None))
            emit_replay_ck(applied)
        for ev in events[applied:]:
            if ev[0] == "sleep":
                # virtual time only: charge the ledger's idle counter,
                # advance the replay clock, no revision and no refit —
                # but the event still counts as applied for resume
                comm.ledger.add_idle(ev[1])
                slept += ev[1]
                applied += 1
                emit_replay_ck(applied)
                continue
            before = engine.revision
            apply_event(ev)
            applied += 1
            if engine.revision == before:
                # defined no-op (empty batch/ids): no refit, no entry —
                # but the event still counts as applied for resume
                emit_replay_ck(applied)
                continue
            res = engine.solve(lam=lam_used, warm_start=warm_start)
            cold = run_cold() if compare_cold else None
            entries.append(entry(engine.revisions[-1], res, cold))
            emit_replay_ck(applied)
        # a warm refit's cost is the revision's incremental state work
        # (append and/or eviction) PLUS the warm solve — the same
        # definition the per-revision table rows (and the bench gates)
        # use
        warm_costs = [e["warm"]["cost"] for e in entries[1:]]
        warm_costs += [e["append_cost"] for e in entries[1:]]
        warm_costs += [e["evict_cost"] for e in entries[1:]]
        cold_costs = [e["cold"]["cost"] for e in entries[1:] if e["cold"]]
        return {
            "format_version": STREAM_REPORT_VERSION,
            "task": task,
            "solver": engine.defaults["solver"],
            # the schedule the refits ran (see StreamingSweep.schedule)
            **engine.schedule.report(),
            "backend": backend,
            "ranks": 1 if backend == "virtual" else ranks,
            "virtual_p": virtual_p,
            "warm_start": bool(warm_start),
            "max_rows": max_rows,
            "lam": float(lam_used) if np.isscalar(lam_used) else None,
            "m0": int(np.asarray(b).ravel().shape[0]),
            "n": int(engine.dist.shape[1]),
            "schedule": [_sched_entry(ev) for ev in events],
            "revisions": entries,
            # physical-attempt bookkeeping from the supervised pool (the
            # counters at the final — successful — dispatch, so they are
            # whole-run totals); all zeros outside recover="checkpoint"
            "recovery": recovery_counters(comm),
            "totals": {
                "slept_seconds": float(slept),
                "warm_refit_cost": report_total(warm_costs),
                "cold_resolve_cost": (
                    report_total(cold_costs) if cold_costs else None
                ),
            },
        }

    return launch(
        work, backend=backend, ranks=ranks, virtual_p=virtual_p,
        machine=machine, recover=recover, max_recoveries=max_recoveries,
        nb_depth=schedule.depth,
    )
