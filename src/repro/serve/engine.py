"""Multi-tenant serving engine over the supervised SPMD worker pool.

One engine hosts N tenants — each an independent
:class:`~repro.streaming.StreamingSweep` with its own model, revision
history, eigenvalue memo, and fault budget — multiplexed over a single
shared communicator (virtual / thread / process backend). A
timestamped arrival trace (:mod:`repro.serve.trace`) drives the run in
**virtual time**: the clock advances by modelled service seconds (the
rank-MAX of per-rank ledger costs, so the SPMD ranks never diverge)
and by idle gaps between arrivals, never by wall-clock sleeping.

The robustness contract, per tenant:

* **admission control / backpressure** — a bounded
  :class:`~repro.serve.admission.AdmissionQueue`; a full queue rejects
  with :class:`~repro.errors.AdmissionError` (typed, names the depth,
  carries a modelled ``retry_after``) instead of queueing unboundedly;
* **deadlines** — requests expire while queued, and a refit that lands
  past *every* coalesced member's deadline is rolled back (the tenant
  keeps its last committed model — wasted work is not committed work);
  collective-level deadlines ride the existing ``timeout=`` plumbing
  via ``comm_deadline``;
* **coalescing** — consecutive ``append`` arrivals for one tenant are
  batched into a single warm refit (``max_coalesce``), amortising the
  solve;
* **fault isolation** — a rank death mid-refit is recovered through
  the PR-7 supervised pool (``recover="checkpoint"``): every dispatch
  ships a ``kind="serve-engine"`` checkpoint, the respawned world
  resumes it, and the in-flight batch is deterministically replayed —
  or, past the tenant's fault budget, the tenant is **quarantined**:
  its last-good model stays servable (predicts still admitted) while
  every other tenant is untouched. :class:`~repro.errors.SolverError`
  during one tenant's refit likewise rolls back only that tenant.

Durability: with ``checkpoint_path`` set, rank 0 rewrites one compact
JSON file (:func:`~repro.utils.io.atomic_write_json`) after setup,
before every dispatch and once the trace is done: one write per
dispatch. Each dispatch's outcome rides the next write, which records
all a write right after the dispatch would; a crash before it lands
leaves the dispatch's own pre-dispatch file, whose resume replays the
batch and charges its tenant one fault for the incident (a predict
charges none, and a replayed refit that fails again no second). Under
``recover="checkpoint"`` rank 0 ships the supervisor the same payloads.
Each write encodes only what changed since the previous one: every
request record, tenant model and committed sweep state keeps its
encoded JSON text, and a record or model is encoded again only once its
content has changed. A commit encodes its one tenant's state: the
window's CSR arrays and labels go through the tenant's
:class:`~repro.utils.io.TailEncoder`, so rows appended since the last
commit are all of the window that is encoded, and of the revision
history only the entries closed since then and the open last one.

Determinism: everything the engine branches on (clock, queue state,
deadlines, fault counters) is replicated across ranks, and per-rank
cost asymmetry is folded with a ledger-paused MAX-allreduce before it
touches the clock — so a recovered run's surviving tenants end
byte-identical to an undisturbed run.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint import (
    check_fields,
    fields,
    is_int,
    is_num,
    is_obj,
    list_of,
    obj_of,
    or_null,
)
from repro.errors import (
    AdmissionError,
    CheckpointError,
    CommTimeoutError,
    DeadlineError,
    ServeError,
    SolverError,
    TenantQuarantinedError,
)
from repro.faults import FaultyComm
from repro.launch import launch
from repro.linalg.kernels import EigMemo
from repro.machine.ledger import report_total
from repro.machine.spec import MachineSpec
from repro.mpi.ops import MAX
from repro.serve.admission import AdmissionQueue
from repro.serve.report import (
    SERVE_CHECKPOINT_VERSION,
    build_report,
    latency_stats,
)
from repro.serve.trace import load_trace, validate_trace
from repro.solvers.outer import SWEEP_SCHEDULE
from repro.streaming import StreamingSweep, check_stream_checkpoint
from repro.utils.io import JSONText, TailEncoder, atomic_write_json, compact_json
from repro.utils.validation import nnz_of

__all__ = ["TenantSpec", "serve_trace"]


@dataclass
class TenantSpec:
    """Static description of one tenant.

    ``A`` / ``b`` hold the tenant's full arrival history: rows
    ``[0, m0)`` are the onboarding data (fit before the trace starts),
    and ``append`` requests consume the tail ``[m0, ...)`` in order.
    ``predict`` requests score the leading rows of ``A`` against the
    tenant's last committed model. ``knobs`` are
    :class:`~repro.streaming.StreamingSweep` solver defaults (solver,
    mu, s, max_iter, tol, seed, schedule, ...); as there, an SA tenant
    on more than one modelled rank overlaps each refit's Gram reductions
    on the sweeps' default ring, as its stream resolves it, unless its
    knobs say ``schedule=Schedule()``.
    """

    name: str
    A: object
    b: object
    m0: int
    task: str = "lasso"
    lam: object = None
    max_rows: int | None = None
    knobs: dict = field(default_factory=dict)


#: the lists of a committed sweep state that grow at their end as rows
#: are appended: the labels, and the window matrix's CSR arrays
_TAIL_LISTS = ("b",)
_CSR_TAIL_LISTS = ("data", "indices", "indptr")


class _Tenant:
    """Runtime state for one hosted tenant.

    ``last_good`` is the committed sweep checkpoint, the state rollbacks
    restore and checkpoints carry. It is held as a
    :class:`~repro.utils.io.JSONText` encoded by :meth:`encode_state`,
    so the checkpoint file encodes it once per commit, not once per
    write. ``model_text`` is ``(model bytes, JSONText)`` of the model
    the file last carried.
    """

    __slots__ = (
        "spec", "rows_total", "eig_memo", "sweep", "state", "faults",
        "consumed", "model", "model_hash", "metric", "lam_used",
        "last_good", "tails", "model_text", "setup_cost", "serve_cost",
        "counters", "latencies", "recovered_requests",
    )

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.rows_total = int(spec.A.shape[0])
        self.eig_memo = EigMemo()
        self.sweep = None
        self.state = "active"
        self.faults = 0
        self.consumed = int(spec.m0)
        self.model = None
        self.model_hash = None
        self.metric = None
        self.lam_used = None
        self.last_good = None
        self.tails = {key: TailEncoder()
                      for key in _TAIL_LISTS + _CSR_TAIL_LISTS + ("revisions",)}
        self.model_text = None
        self.setup_cost = report_total([])
        self.serve_cost = report_total([])
        self.counters = {k: 0 for k in ("completed", "rejected", "timed_out",
                                        "failed", "quarantined")}
        self.latencies: list = []
        self.recovered_requests = 0

    def set_model(self, res) -> None:
        # both families return the whole primal on every rank (the SVM
        # result has gathered its column shards)
        self.model = np.asarray(res.x, dtype=np.float64).copy()
        self.model_hash = _hash(self.model)

    def commit_state(self, state: dict) -> None:
        """Make ``state`` (a sweep checkpoint) the committed one."""
        self.last_good = JSONText(state, self.encode_state)

    def encode_state(self, state: dict) -> str:
        """``compact_json(state)``, with the window's CSR arrays and labels
        through this tenant's tail encoders, so a commit that only
        appended rows encodes just those rows of the window, and the
        revision history through :meth:`encode_revisions`."""
        def tailed(block: dict, keys) -> dict:
            return {key: JSONText(value, self.tails[key].encode)
                    if key in keys and isinstance(value, list) else value
                    for key, value in block.items()}

        view = tailed(state, _TAIL_LISTS)
        view["revisions"] = JSONText(state["revisions"], self.encode_revisions)
        matrix = state["matrix"]
        if "csr" in matrix:
            view["matrix"] = dict(matrix,
                                  csr=tailed(matrix["csr"], _CSR_TAIL_LISTS))
        return compact_json(view)

    def encode_revisions(self, revisions: list) -> str:
        """``compact_json(revisions)``. A sweep checkpoint shares its
        entries of the revisions before the last, which can no longer
        change, with the sweep's later checkpoints, so the tail encoder
        encodes only those closed since the last commit; the open last
        entry is encoded afresh."""
        if len(revisions) < 2:
            return compact_json(revisions)
        closed = self.tails["revisions"].encode(revisions[:-1])
        return f"{closed[:-1]},{compact_json(revisions[-1])}]"

    def model_json(self) -> JSONText | None:
        """The model's text for the checkpoint file, encoded again only
        when the model's bytes differ from those it was encoded from."""
        if self.model is None:
            return None
        key = self.model.tobytes()
        if self.model_text is None or self.model_text[0] != key:
            self.model_text = (key, JSONText(self.model.tolist()))
        return self.model_text[1]


def _same_record(record: dict, copy: dict) -> bool:
    """Whether ``record`` still holds, key for key and in order, the very
    objects of ``copy``. A record's values are immutable JSON scalars, so
    then it encodes as ``copy`` did; ``==`` would not do, as it lets
    ``1`` stand for ``1.0`` or ``True`` and ``0.0`` for ``-0.0``."""
    return (list(record) == list(copy)
            and all(map(operator.is_, record.values(), copy.values())))


def _hash(arr) -> str:
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


#: (field, what it must be, check) for each field of a serve checkpoint
#: that :meth:`_Engine.restore` reads, then for each tenant's block
_MANIFEST = fields(
    ("a number", is_num, "clock", "idle_seconds"),
    ("an integer", is_int, "next_arrival", "dispatch_no"),
    ("an object of integers", obj_of(is_int), "counters"),
    ("a list of objects", list_of(is_obj), "requests"),
    ("an object", is_obj, "queue"),
    ("an object of objects", obj_of(is_obj), "tenants"),
)
_TENANT_MANIFEST = fields(
    ("an object", is_obj, "engine", "setup_cost", "serve_cost"),
    ("'active' or 'quarantined'", lambda v: v in ("active", "quarantined"), "state"),
    ("an integer", is_int, "faults", "consumed", "recovered_requests"),
    ("null or a list of numbers", or_null(list_of(is_num)), "model"),
    ("a number", is_num, "lam_used", "metric"),
    ("an object of integers", obj_of(is_int), "counters"),
    ("a list of numbers", list_of(is_num), "latencies"),
)


def _load_serve_checkpoint(source) -> tuple:
    """``(checkpoint, where)``: the parsed checkpoint, of the right kind
    and version, and the words that name it in errors."""
    if isinstance(source, dict):
        ck, where = source, "serve checkpoint"
    else:
        where = f"serve checkpoint {os.fspath(source)!r}"
        try:
            with open(os.fspath(source), "r", encoding="utf-8") as fh:
                ck = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"could not read {where}: {exc}") from exc
        if not isinstance(ck, dict):
            raise CheckpointError(
                f"{where} holds a JSON {type(ck).__name__}, not an object"
            )
    if ck.get("kind") != "serve-engine":
        raise CheckpointError(
            f"{where} is not a kind='serve-engine' checkpoint"
            f" (kind={ck.get('kind')!r})"
        )
    version = ck.get("format_version")
    if type(version) is not int or version != SERVE_CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{where} format_version {version!r} is not supported"
            f" (expected {SERVE_CHECKPOINT_VERSION})"
        )
    return ck, where


class _Engine:
    """The per-rank serving loop (SPMD: every rank runs it in lockstep)."""

    def __init__(self, comm, specs, trace, *, default_deadline,
                 queue_depth, max_coalesce, max_faults, rctx,
                 checkpoint_path, fault_hook):
        self.comm = comm
        self.trace = trace
        self.names = [s.name for s in specs]
        self.tenants = {s.name: _Tenant(s) for s in specs}
        self.queue = AdmissionQueue(queue_depth, self.names,
                                    max_coalesce=max_coalesce)
        self.max_faults = int(max_faults)
        self.rctx = rctx
        self.checkpoint_path = checkpoint_path
        self.fault_hook = fault_hook
        self.clock = 0.0
        self.total_idle = 0.0
        self.next_arrival = 0
        self.dispatch_no = 0
        self._avg_service = 0.0
        self.counters = {k: 0 for k in ("completed", "rejected", "timed_out",
                                        "failed", "quarantined", "recovered")}
        self.requests = [
            {
                "eidx": i, "t": float(ev.t), "tenant": ev.tenant,
                "op": ev.op, "rows": int(ev.rows),
                "deadline": (float(ev.deadline) if ev.deadline is not None
                             else default_deadline),
                "outcome": None, "dispatched_at": None, "completed_at": None,
                "latency": None, "coalesced": 0, "recovered": False,
                "late": False, "error": None, "result_hash": None,
            }
            for i, ev in enumerate(trace)
        ]
        #: per request, the JSONText of the record copy the checkpoint
        #: file last carried
        self._record_texts = [None] * len(self.requests)

    # -- bookkeeping ---------------------------------------------------------
    def _resolve(self, eidx: int, outcome: str, *, error=None) -> None:
        r = self.requests[eidx]
        r["outcome"] = outcome
        r["completed_at"] = float(self.clock)
        if outcome in ("completed", "timed_out"):
            r["latency"] = float(self.clock - r["t"])
        if error is not None:
            r["error"] = str(error)
        self.counters[outcome] += 1
        ten = self.tenants[r["tenant"]]
        ten.counters[outcome] += 1
        if outcome == "completed":
            ten.latencies.append(r["latency"])

    def _retry_after(self) -> float:
        return self._avg_service * float(len(self.queue) + 1)

    def _note_service(self, dt: float) -> None:
        if self._avg_service == 0.0:
            self._avg_service = float(dt)
        else:
            self._avg_service = 0.5 * self._avg_service + 0.5 * float(dt)

    def _rollback(self, ten: _Tenant) -> None:
        with self.comm.ledger.paused():
            ten.sweep = StreamingSweep.from_checkpoint(
                ten.last_good.value, comm=self.comm, eig_memo=ten.eig_memo
            )

    def _quarantine_if_exhausted(self, ten: _Tenant) -> None:
        if ten.faults > self.max_faults and ten.state == "active":
            ten.state = "quarantined"

    # -- checkpointing -------------------------------------------------------
    def _emit_ck(self, in_flight) -> None:
        if self.rctx is not None:
            self.rctx.save(self._payload(in_flight, texts=False))
        if self.checkpoint_path is not None and self.comm.rank == 0:
            # repro: lint-ignore[collective-in-rank-branch] -- rank-0
            # checkpoint IO: a local atomic file write, no communication
            self._write_ck(in_flight)

    def _write_ck(self, in_flight) -> None:
        """Write the checkpoint file, encoding only what changed since the
        last write (see the module docstring)."""
        atomic_write_json(os.fspath(self.checkpoint_path),
                          self._payload(in_flight, texts=True))

    def _record_json(self, eidx: int) -> JSONText:
        record, text = self.requests[eidx], self._record_texts[eidx]
        if text is None or not _same_record(record, text.value):
            text = self._record_texts[eidx] = JSONText(dict(record))
        return text

    def _payload(self, in_flight, *, texts: bool) -> dict:
        """The checkpoint payload: plain values, or (``texts``) with each
        request record, tenant model and committed state as its cached
        :class:`~repro.utils.io.JSONText`, which encodes alike."""
        return {
            "format_version": SERVE_CHECKPOINT_VERSION,
            "kind": "serve-engine",
            "clock": float(self.clock),
            "next_arrival": int(self.next_arrival),
            "dispatch_no": int(self.dispatch_no),
            "requests_done": sum(
                1 for r in self.requests if r["outcome"] is not None
            ),
            "idle_seconds": float(self.total_idle),
            "avg_service": float(self._avg_service),
            "counters": dict(self.counters),
            "requests": (
                [self._record_json(i) for i in range(len(self.requests))]
                if texts else [dict(r) for r in self.requests]
            ),
            "queue": self.queue.to_state(),
            "in_flight": in_flight,
            "tenants": {
                name: {
                    "engine": (ten.last_good if texts
                               else ten.last_good.value),
                    "state": ten.state,
                    "faults": int(ten.faults),
                    "consumed": int(ten.consumed),
                    "model": (ten.model_json() if texts
                              else None if ten.model is None
                              else ten.model.tolist()),
                    "lam_used": ten.lam_used,
                    "metric": ten.metric,
                    "setup_cost": ten.setup_cost,
                    "serve_cost": ten.serve_cost,
                    "counters": dict(ten.counters),
                    "latencies": list(ten.latencies),
                    "recovered_requests": int(ten.recovered_requests),
                }
                for name, ten in self.tenants.items()
            },
        }

    def _check_manifest(self, ck: dict, where: str) -> None:
        """Raise :class:`CheckpointError` naming ``where`` and the field
        unless :meth:`restore` can read every field of ``ck``."""
        check_fields(ck, _MANIFEST, where)
        if set(ck["tenants"]) != set(self.names):
            raise CheckpointError(
                f"{where} tenants do not match the engine: "
                f"{sorted(ck['tenants'])} vs {sorted(self.names)}"
            )
        if len(ck["requests"]) > len(self.requests):
            raise CheckpointError(
                f"{where} has {len(ck['requests'])} requests; the"
                f" resuming trace has only {len(self.requests)} — resume"
                f" with the same trace (or one it is a prefix of)"
            )
        n = len(self.requests)

        def in_trace(e) -> bool:  # a request index of the resuming trace
            return is_int(e) and 0 <= e < n

        def queued(e) -> bool:  # a queue entry: [request index, is_append]
            return (isinstance(e, list) and len(e) == 2 and in_trace(e[0])
                    and isinstance(e[1], bool))

        optional = [  # restore reads a missing one as 0 and null
            ("avg_service", "a number", is_num),
            ("in_flight", "null or a tenant and its request indices",
             or_null(lambda v: is_obj(v) and v.get("tenant") in self.names
                      and list_of(in_trace)(v.get("eidxs")))),
        ]
        check_fields(ck, [f for f in optional if f[0] in ck], where)
        for i, r in enumerate(ck["requests"]):
            # a record holds every field a fresh one does
            check_fields(r, [(key, "present", lambda v: True)
                             for key in self.requests[i]],
                         where, f"'requests'.{i}.")
        check_fields(ck["queue"], [
            ("cursor", "an integer", is_int),
            ("fifos", "one list of [request index, is_append] per tenant",
             lambda v: (obj_of(list_of(queued))(v)
                        and set(v) == set(self.names))),
        ], where, "'queue'.")
        for name, tck in ck["tenants"].items():
            check_fields(tck, _TENANT_MANIFEST, where, f"'tenants'.{name!r}.")
            check_stream_checkpoint(tck["engine"], "streaming", where,
                                    f"'tenants'.{name!r}.'engine'.")

    def restore(self, ck: dict, last_failure,
                where: str = "serve checkpoint") -> None:
        """Resume from a ``kind="serve-engine"`` checkpoint; if a batch
        was in flight when the previous attempt died, resolve or replay
        it according to ``last_failure`` (``"timeout"`` fails the batch
        with deadline semantics; a rank death replays it unless the
        tenant's fault budget is exhausted; a predict changes no tenant
        state, so it charges no fault and a rank death always replays
        it). A field that is missing or of the wrong type raises
        :class:`CheckpointError` naming ``where`` and the field, before
        any state changes."""
        self._check_manifest(ck, where)
        self.clock = float(ck["clock"])
        self.next_arrival = int(ck["next_arrival"])
        self.dispatch_no = int(ck["dispatch_no"])
        self.total_idle = float(ck["idle_seconds"])
        self._avg_service = float(ck.get("avg_service", 0.0))
        self.counters.update({k: int(v) for k, v in ck["counters"].items()})
        # the checkpointed trace prefix overwrites the fresh records;
        # any additional trailing arrivals keep their fresh state
        for i, r in enumerate(ck["requests"]):
            self.requests[i] = dict(r)
        self.queue.from_state(ck["queue"])
        for name, tck in ck["tenants"].items():
            ten = self.tenants[name]
            with self.comm.ledger.paused():
                ten.sweep = StreamingSweep.from_checkpoint(
                    tck["engine"], comm=self.comm, eig_memo=ten.eig_memo
                )
            ten.commit_state(tck["engine"])
            ten.state = tck["state"]
            ten.faults = int(tck["faults"])
            ten.consumed = int(tck["consumed"])
            if tck["model"] is not None:
                ten.model = np.asarray(tck["model"], dtype=np.float64)
                ten.model_hash = _hash(ten.model)
            ten.lam_used = tck["lam_used"]
            ten.metric = tck["metric"]
            ten.setup_cost = dict(tck["setup_cost"])
            ten.serve_cost = dict(tck["serve_cost"])
            ten.counters.update(
                {k: int(v) for k, v in tck["counters"].items()}
            )
            ten.latencies = [float(v) for v in tck["latencies"]]
            ten.recovered_requests = int(tck["recovered_requests"])
        inflight = ck.get("in_flight")
        if not inflight:
            return
        name = inflight["tenant"]
        eidxs = [int(e) for e in inflight["eidxs"]]
        ten = self.tenants[name]
        predict = self.requests[eidxs[0]]["op"] == "predict"
        if not predict:
            # the restored sweep is the pre-dispatch state, so the fault
            # is contained to this tenant's in-flight batch by construction
            ten.faults += 1
            self._quarantine_if_exhausted(ten)
        reason = last_failure or "rank-died"
        if reason == "timeout":
            error = (
                f"collective deadline missed while serving a predict for"
                f" tenant {name!r}; request failed" if predict else
                f"collective deadline missed while refitting tenant"
                f" {name!r}; batch failed, tenant rolled back to its last"
                f" committed model"
            )
            for eidx in eidxs:
                self._resolve(eidx, "timed_out", error=error)
        elif ten.state == "quarantined" and not predict:
            for eidx in eidxs:
                self._resolve(
                    eidx, "failed",
                    error=f"rank died while refitting tenant {name!r},"
                          f" which exhausted its fault budget"
                          f" ({ten.faults} > {self.max_faults}); tenant"
                          f" quarantined with last-good model servable",
                )
        else:
            # deterministic replay: re-enqueue at the head, same order
            for eidx in reversed(eidxs):
                r = self.requests[eidx]
                r["recovered"] = True
                r["dispatched_at"] = None
                r["coalesced"] = 0
                self.queue.push_front(eidx, name,
                                      is_append=(r["op"] == "append"))
            self.counters["recovered"] += len(eidxs)
            ten.recovered_requests += len(eidxs)

    # -- onboarding ----------------------------------------------------------
    def setup(self) -> None:
        """Cold-fit every tenant on its onboarding rows (before t=0)."""
        for name in self.names:
            ten = self.tenants[name]
            spec = ten.spec
            knobs = dict(spec.knobs)
            knobs.pop("lam", None)  # spec.lam is authoritative
            sweep = StreamingSweep(
                spec.A[: spec.m0], np.asarray(spec.b[: spec.m0],
                                              dtype=np.float64),
                task=spec.task, comm=self.comm, max_rows=spec.max_rows,
                eig_memo=ten.eig_memo, lam=spec.lam, **knobs,
            )
            lam = spec.lam
            if lam is None:
                lam = (0.1 * sweep.lambda_max if spec.task == "lasso"
                       else 1.0)
            res = sweep.solve(lam=lam, warm_start=False)
            ten.sweep = sweep
            ten.lam_used = float(lam)
            ten.metric = float(res.final_metric)
            ten.setup_cost = report_total([
                sweep.revisions[0].append_cost.to_report(),
                res.cost.to_report(),
            ])
            ten.set_model(res)
            with self.comm.ledger.paused():
                ten.commit_state(sweep.checkpoint())
        self._emit_ck(None)

    # -- the loop ------------------------------------------------------------
    def _admit_due(self) -> None:
        trace = self.trace
        while (self.next_arrival < len(trace)
               and trace[self.next_arrival].t <= self.clock):
            eidx = self.next_arrival
            self.next_arrival += 1
            r = self.requests[eidx]
            if r["outcome"] is not None:
                continue
            ten = self.tenants[r["tenant"]]
            if ten.state == "quarantined" and r["op"] != "predict":
                err = TenantQuarantinedError(
                    f"tenant {r['tenant']!r} is quarantined after"
                    f" {ten.faults} faults; mutating requests are refused"
                    f" (predicts still serve the last committed model)",
                    tenant=r["tenant"], faults=ten.faults,
                )
                self._resolve(eidx, "quarantined", error=err)
                continue
            try:
                self.queue.offer(eidx, r["tenant"],
                                 is_append=(r["op"] == "append"),
                                 retry_after=self._retry_after())
            except AdmissionError as exc:
                self._resolve(eidx, "rejected", error=exc)

    def _execute_batch(self, ten: _Tenant, eidxs: list):
        """Apply the batch's mutations and warm-refit. Returns
        ``(res, dt_local, consumed_after, rev_before)``; raises
        :class:`SolverError` on bad data (caller rolls back)."""
        sweep = ten.sweep
        rev_before = len(sweep.revisions)
        pos = ten.consumed
        for eidx in eidxs:
            r = self.requests[eidx]
            rows = r["rows"]
            if r["op"] == "append":
                if pos + rows > ten.rows_total:
                    raise SolverError(
                        f"tenant {ten.spec.name!r} has no arrival data left:"
                        f" append wants rows [{pos}, {pos + rows}) of"
                        f" {ten.rows_total}"
                    )
                sweep.append(
                    ten.spec.A[pos: pos + rows],
                    np.asarray(ten.spec.b[pos: pos + rows], dtype=np.float64),
                )
                pos += rows
            elif r["op"] == "evict_oldest":
                sweep.evict(sweep.surviving_rows()[:rows])
            else:  # relabel_oldest: negate the oldest rows' current labels
                ids = sweep.surviving_rows()[:rows]
                order = sweep.arrival_order()
                sel = np.nonzero(np.isin(order, ids))[0]
                sweep.update_labels(order[sel], -sweep.b[sel])
        if len(sweep.revisions) == rev_before:
            # defined no-op (e.g. evicting zero rows): nothing to refit
            return None, 0.0, pos, rev_before
        res = sweep.solve(lam=ten.lam_used, warm_start=True)
        dt = float(res.cost.seconds)
        for rev in sweep.revisions[rev_before:]:
            dt += float(rev.append_cost.seconds)
            dt += float(rev.evict_cost.seconds)
        return res, dt, pos, rev_before

    def _execute_predict(self, ten: _Tenant, eidx: int) -> float:
        r = self.requests[eidx]
        rows = min(int(r["rows"]), ten.rows_total)
        X = ten.spec.A[:rows]
        self.comm.reset()
        scores = np.asarray(X @ ten.model, dtype=np.float64).ravel()
        self.comm.account_flops(2.0 * float(nnz_of(X)), "spmv")
        r["result_hash"] = _hash(scores)
        ten.serve_cost = report_total([
            ten.serve_cost, self.comm.ledger.snapshot().to_report(),
        ])
        return float(self.comm.ledger.seconds)

    def _commit(self, ten: _Tenant, res, pos: int, rev_before: int) -> None:
        sweep = ten.sweep
        new = [(rev.append_cost + rev.evict_cost).to_report()
               for rev in sweep.revisions[rev_before:]]
        if res is not None:
            new.append(res.cost.to_report())
            ten.set_model(res)
            ten.metric = float(res.final_metric)
        ten.serve_cost = report_total([ten.serve_cost] + new)
        ten.consumed = pos
        with self.comm.ledger.paused():
            ten.commit_state(sweep.checkpoint())

    def _fault(self, ten: _Tenant, eidxs: list, outcome: str, err) -> None:
        """Contain a deterministic failure to this tenant: roll its
        sweep back to the last committed state, charge one fault, and
        fail only the batch that triggered it. A batch a resume replays
        is charged nothing more: the crash and the replay it forces are
        one incident, whose fault :meth:`restore` charged."""
        self._rollback(ten)
        if not self.requests[eidxs[0]]["recovered"]:
            ten.faults += 1
            self._quarantine_if_exhausted(ten)
        for eidx in eidxs:
            self._resolve(eidx, outcome, error=err)

    def _dispatch_one(self) -> None:
        nb = self.queue.next_batch()
        if nb is None:
            return
        name, eidxs = nb
        ten = self.tenants[name]
        # drop members that expired while queued
        live = []
        for eidx in eidxs:
            r = self.requests[eidx]
            dl = r["deadline"]
            if dl is not None and (self.clock - r["t"]) > dl:
                waited = self.clock - r["t"]
                err = DeadlineError(
                    f"request {eidx} for tenant {name!r} expired in the"
                    f" admission queue: waited {waited:.6g}s of a"
                    f" {dl:.6g}s deadline",
                    deadline=dl, latency=waited,
                )
                self._resolve(eidx, "timed_out", error=err)
            else:
                live.append(eidx)
        if not live:
            return
        is_predict = self.requests[live[0]]["op"] == "predict"
        if ten.state == "quarantined" and not is_predict:
            # queued before the quarantine struck
            err = TenantQuarantinedError(
                f"tenant {name!r} was quarantined while this request was"
                f" queued", tenant=name, faults=ten.faults,
            )
            for eidx in live:
                self._resolve(eidx, "quarantined", error=err)
            return
        self.dispatch_no += 1
        for eidx in live:
            self.requests[eidx]["dispatched_at"] = float(self.clock)
            self.requests[eidx]["coalesced"] = len(live)
        # ship the pre-dispatch state so a rank death mid-refit resumes
        # from exactly here and replays this batch deterministically; the
        # same write records the previous dispatch's outcome
        self._emit_ck({"tenant": name, "eidxs": list(live)})
        try:
            if self.fault_hook is not None:
                self.fault_hook(self.comm, name, self.dispatch_no,
                                "predict" if is_predict else "refit")
            if is_predict:
                dt_local = self._execute_predict(ten, live[0])
                res, pos, rev_before = None, ten.consumed, None
            else:
                res, dt_local, pos, rev_before = self._execute_batch(ten, live)
        except SolverError as exc:
            self._fault(ten, live, "failed", exc)
            return
        except CommTimeoutError as exc:
            if self.comm.size > 1:
                # a real multi-rank timeout aborts the world; the
                # supervised pool (recover="checkpoint") owns recovery
                raise
            self._fault(ten, live, "timed_out", exc)
            return
        # fold per-rank cost asymmetry before it can touch control flow
        with self.comm.ledger.paused():
            dt = float(self.comm.allreduce(float(dt_local), MAX, timeout=self.comm.timeout))
        self.clock += dt
        self._note_service(dt)
        late, ontime = [], []
        for eidx in live:
            r = self.requests[eidx]
            dl = r["deadline"]
            (late if dl is not None and (self.clock - r["t"]) > dl
             else ontime).append(eidx)
        if not is_predict and not ontime:
            # every coalesced member missed its deadline: the refit is
            # wasted work — do not commit it
            self._rollback(ten)
            for eidx in late:
                r = self.requests[eidx]
                err = DeadlineError(
                    f"refit for tenant {name!r} finished at"
                    f" {self.clock:.6g}s, past every member's deadline;"
                    f" rolled back to the last committed model",
                    deadline=r["deadline"], latency=self.clock - r["t"],
                )
                self._resolve(eidx, "timed_out", error=err)
            return
        if not is_predict:
            self._commit(ten, res, pos, rev_before)
        for eidx in ontime:
            self._resolve(eidx, "completed")
        for eidx in late:
            r = self.requests[eidx]
            r["late"] = True
            err = DeadlineError(
                f"request {eidx} for tenant {name!r} completed past its"
                f" deadline (committed with the batch's on-time members)",
                deadline=r["deadline"] or 0.0, latency=self.clock - r["t"],
            )
            self._resolve(eidx, "timed_out", error=err)

    def run_loop(self) -> None:
        trace = self.trace
        while self.next_arrival < len(trace) or len(self.queue):
            self._admit_due()
            if not len(self.queue):
                if self.next_arrival < len(trace):
                    # idle until the next arrival (virtual time only)
                    gap = trace[self.next_arrival].t - self.clock
                    if gap > 0:
                        self.total_idle += gap
                        self.clock = trace[self.next_arrival].t
                    continue
                break
            self._dispatch_one()
        # the one write that records the last dispatch's outcome
        self._emit_ck(None)

    # -- report --------------------------------------------------------------
    def finish(self, config: dict) -> dict:
        # the run's request counters survive on the ledger (solves and
        # mutations reset it mid-run, so patch the final totals here)
        led = self.comm.ledger
        led.idle_seconds = float(self.total_idle)
        led.requests_rejected = int(self.counters["rejected"])
        led.requests_timed_out = int(self.counters["timed_out"])
        led.requests_quarantined = int(self.counters["quarantined"])
        led.requests_recovered = int(self.counters["recovered"])
        rctx = self.rctx
        tenants_block = []
        for name in self.names:
            ten = self.tenants[name]
            tenants_block.append({
                "name": name,
                "task": ten.spec.task,
                # the schedule the tenant's refits ran
                **ten.sweep.schedule.report(),
                "state": ten.state,
                "faults": int(ten.faults),
                "lam": ten.lam_used,
                "rows": int(ten.sweep.n_rows),
                "rows_consumed": int(ten.consumed),
                "model_hash": ten.model_hash,
                "final_metric": ten.metric,
                "requests": dict(ten.counters),
                "latency": latency_stats(ten.latencies),
                "cost": {"setup": ten.setup_cost, "serve": ten.serve_cost},
                "recovery": {
                    "replayed_requests": int(ten.recovered_requests),
                    "faults": int(ten.faults),
                    "quarantined": ten.state == "quarantined",
                },
            })
        total_cost = report_total(
            [t["cost"]["setup"] for t in tenants_block]
            + [t["cost"]["serve"] for t in tenants_block]
        )
        return build_report(
            config=config,
            tenants=tenants_block,
            requests=self.requests,
            clock=self.clock,
            idle_seconds=self.total_idle,
            counters=self.counters,
            total_cost=total_cost,
            recovery={
                "recoveries": 0 if rctx is None else int(rctx.recoveries),
                "respawns": 0 if rctx is None else int(rctx.respawns),
                "replayed_requests": int(self.counters["recovered"]),
            },
        )


def serve_trace(
    tenants,
    trace,
    *,
    queue_depth: int = 8,
    max_coalesce: int = 8,
    deadline: float | None = None,
    comm_deadline: float | None = None,
    tenant_max_faults: int = 1,
    backend: str = "virtual",
    ranks: int = 4,
    virtual_p: int = 1,
    machine: MachineSpec | None = None,
    recover: str = "raise",
    max_recoveries: int = 2,
    run_timeout: float = 120.0,
    nb_depth: int | None = None,
    checkpoint_path=None,
    resume_from=None,
    fault_plan=None,
    fault_hook=None,
) -> dict:
    """Serve a timestamped arrival ``trace`` over ``tenants`` and return
    the versioned report (:mod:`repro.serve.report`).

    ``tenants`` is a list of :class:`TenantSpec`; ``trace`` a list of
    :class:`~repro.serve.trace.TraceEvent` or a path to a JSON/JSONL
    trace file. ``deadline`` is the default per-request deadline
    (virtual seconds from arrival; ``None`` = none), ``comm_deadline``
    the per-collective wall-clock deadline ridden on the existing
    ``timeout=`` plumbing. ``backend``/``ranks``/``virtual_p``/
    ``machine`` select the world exactly as
    :func:`repro.streaming.replay_schedule` does, and
    ``recover="checkpoint"`` (process backend) turns a rank death
    mid-refit into a supervised recovery of only the faulted tenant's
    in-flight batch. ``fault_plan`` (a :class:`~repro.faults.FaultPlan`)
    is injected on the first physical attempt only; ``fault_hook``
    (``hook(comm, tenant, dispatch_no, op)`` with ``op`` one of
    ``"refit"``/``"predict"``) runs before every dispatch — both are
    test/chaos instrumentation. ``nb_depth`` sizes the thread/process
    backends' nonblocking-collective slot ring; the default is the
    deepest :attr:`~repro.solvers.outer.Schedule.depth` of the tenants'
    ``schedule`` knobs.

    Each tenant runs the schedule of its
    :class:`~repro.streaming.StreamingSweep` (the sweeps' default ring
    by default), which changes only a refit's modelled service time, and
    so the virtual clock (see ``docs/SERVING.md``). Each tenant block of
    the report records the schedule its refits ran (``pipeline``,
    ``async``, ``tau``).

    ``checkpoint_path`` names the compact JSON checkpoint file (see the
    module docstring); ``resume_from`` takes such a file or its parsed
    dict, and also reads the indented files earlier versions wrote. A
    file that is not a ``kind="serve-engine"`` object of the current
    ``format_version`` raises :class:`~repro.errors.CheckpointError`.
    """
    specs = list(tenants)
    if not specs:
        raise ServeError("serve_trace needs at least one tenant")
    seen = set()
    for spec in specs:
        if not isinstance(spec, TenantSpec):
            raise ServeError(
                f"tenants must be TenantSpec, got {type(spec).__name__}"
            )
        if not spec.name or spec.name in seen:
            raise ServeError(f"tenant names must be unique and non-empty;"
                             f" offending spec: {spec.name!r}")
        seen.add(spec.name)
        if spec.task not in ("lasso", "svm"):
            raise ServeError(
                f"tenant {spec.name!r}: unknown task {spec.task!r}"
            )
        m_total = int(spec.A.shape[0])
        if not 1 <= int(spec.m0) <= m_total:
            raise ServeError(
                f"tenant {spec.name!r}: m0={spec.m0} out of range for"
                f" {m_total} rows"
            )
        if int(np.asarray(spec.b).ravel().shape[0]) != m_total:
            raise ServeError(
                f"tenant {spec.name!r}: len(b) != rows of A"
            )
    if nb_depth is None:
        nb_depth = max(spec.knobs.get("schedule", SWEEP_SCHEDULE).depth
                       for spec in specs)
    if isinstance(trace, (str, os.PathLike)):
        events = load_trace(trace)
    else:
        events = trace
    events = validate_trace(events, known_tenants=seen)
    if deadline is not None:
        deadline = float(deadline)
        if deadline <= 0:
            raise ServeError(f"deadline must be > 0, got {deadline}")
    config = {
        "tenants": sorted(seen),
        "requests": len(events),
        "queue_depth": int(queue_depth),
        "max_coalesce": int(max_coalesce),
        "deadline": deadline,
        "comm_deadline": comm_deadline,
        "tenant_max_faults": int(tenant_max_faults),
        "backend": backend,
        "ranks": 1 if backend == "virtual" else int(ranks),
        "virtual_p": int(virtual_p),
    }

    def work(comm, rank):
        rctx = getattr(comm, "recovery", None)
        if rctx is not None and not rctx.active:
            rctx = None
        if fault_plan is not None and (rctx is None or rctx.recoveries == 0):
            comm = FaultyComm(comm, fault_plan)
        if comm_deadline is not None:
            comm.timeout = float(comm_deadline)
        eng = _Engine(
            comm, specs, events,
            default_deadline=deadline, queue_depth=queue_depth,
            max_coalesce=max_coalesce, max_faults=tenant_max_faults,
            rctx=rctx, checkpoint_path=checkpoint_path,
            fault_hook=fault_hook,
        )
        resume_src = resume_from
        if rctx is not None and rctx.resume is not None:
            # a redispatched attempt resumes from the supervisor's
            # latest collected checkpoint, not the caller's original one
            resume_src = rctx.resume
        if resume_src is not None:
            ck, where = _load_serve_checkpoint(resume_src)
            eng.restore(ck, None if rctx is None else rctx.last_failure,
                        where)
        else:
            eng.setup()
        eng.run_loop()
        return eng.finish(config)

    return launch(
        work, backend=backend, ranks=ranks, virtual_p=virtual_p,
        machine=machine, recover=recover, max_recoveries=max_recoveries,
        nb_depth=nb_depth, timeout=run_timeout,
    )
