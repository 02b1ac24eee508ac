"""Per-rank cost accounting (flops F, words W, messages L, seconds T).

A :class:`CostLedger` is attached to a communicator. Collectives charge
communication costs automatically; solvers charge local computation via
:meth:`CostLedger.add_flops`. At the end of a run, the per-rank ledgers
are combined with :func:`critical_path` (bulk-synchronous max).

The ledger is also how the virtual-P mode works: with ``flop_divisor = P``
a single process executes the *full* computation, while the ledger charges
each rank ``1/P`` of the flops — valid because the paper's algorithms
partition work evenly (1D row / column partitions with balanced nnz).
An optional ``imbalance`` factor > 1 models stragglers (paper §VI notes
rcv1/news20 SVM runs suffered load imbalance).

The cost schema. :class:`CostSnapshot`'s fields are the only declaration
of what a cost is: their order, their type (``float`` seconds, words and
flops; ``int`` counts), their merge policy and whether they are
physical. A field merges by *sum* unless its metadata marks it a
*watermark* (``max_staleness``: ``a + b`` takes the max, ``a - b`` keeps
``a``). A *physical* field (``recoveries``, ``respawns``,
``replayed_iterations``) counts what happened to this run's processes,
so :meth:`CostLedger.restore` never rewinds it on a checkpoint resume.
The per-field table is built once, at import, and every operation on
costs iterates it: ``+`` and ``-``, :meth:`CostSnapshot.to_dict` and
:meth:`~CostSnapshot.from_dict` (the cost block of checkpoints and
saved results, fields in declaration order),
:meth:`~CostSnapshot.to_report` (the same with ``seconds`` first),
:func:`report_total`, and the ledger's running counters with its
``snapshot``, ``restore``, ``reset`` and ``summary``. A counter added
later is declared once, on :class:`CostSnapshot`.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, NamedTuple, get_type_hints

from repro.errors import CostModelError
from repro.machine.collectives import CollectiveCost
from repro.machine.compute import ComputeModel
from repro.machine.spec import MachineSpec

__all__ = ["CostLedger", "CostSnapshot", "critical_path", "report_total"]

#: field metadata of a watermark: ``a + b`` is the max, ``a - b`` keeps ``a``
_WATERMARK = {"merge": "watermark"}
#: field metadata of a physical-attempt counter, never rewound on resume
_PHYSICAL = {"physical": True}


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable view of a ledger at one instant, and the cost schema."""

    comm_seconds: float
    compute_seconds: float
    messages: int
    words: float
    flops: float
    #: modelled communication seconds hidden behind overlapped computation
    #: (nonblocking collectives charge only the unoverlapped remainder)
    comm_seconds_hidden: float = 0.0
    #: modelled communication seconds hidden behind computation that ran
    #: *past* the point a synchronous consumer would have waited — the
    #: extra overlap bought by accepting bounded staleness (async
    #: solvers). ``comm_seconds + comm_seconds_hidden + stale_seconds``
    #: always equals what the blocking collectives would have cost.
    stale_seconds: float = 0.0
    #: largest observed staleness (in harvest steps) of any collective;
    #: a watermark, never a sum — 0 for blocking/pipelined runs
    max_staleness: int = field(default=0, metadata=_WATERMARK)
    #: transient-fault retries of collectives (fault-tolerance layer)
    retries: int = 0
    #: collectives that missed their deadline (fault-tolerance layer)
    timeouts: int = 0
    #: supervised recovery rounds this run survived (self-healing runtime)
    recoveries: int = field(default=0, metadata=_PHYSICAL)
    #: worker processes respawned across those recovery rounds
    respawns: int = field(default=0, metadata=_PHYSICAL)
    #: iterations restored from the latest checkpoint instead of re-run
    replayed_iterations: int = field(default=0, metadata=_PHYSICAL)

    @property
    def seconds(self) -> float:
        return self.comm_seconds + self.compute_seconds

    @classmethod
    def zero(cls) -> "CostSnapshot":
        return _ZERO

    def __add__(self, other: "CostSnapshot") -> "CostSnapshot":
        if not isinstance(other, CostSnapshot):
            return NotImplemented
        return CostSnapshot(*[
            f.add(a, b)
            for f, a, b in zip(_SCHEMA, _costs_of(self), _costs_of(other))
        ])

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        """Delta between two snapshots of the *same* ledger (later - earlier);
        used to split one measured span into phases (e.g. the streaming
        engine's append vs. window-eviction work within one revision)."""
        if not isinstance(other, CostSnapshot):
            return NotImplemented
        return CostSnapshot(*[
            f.sub(a, b)
            for f, a, b in zip(_SCHEMA, _costs_of(self), _costs_of(other))
        ])

    def to_dict(self) -> dict:
        """The cost block of checkpoints and saved results: every field,
        in declaration order, counts as ``int``."""
        # a frozen dataclass's __dict__ holds exactly its fields, in order
        d = self.__dict__.copy()
        for name in _INT_FIELDS:
            d[name] = int(d[name])
        return d

    def to_report(self) -> dict:
        """The report form: ``seconds`` first, then :meth:`to_dict`."""
        return {"seconds": self.seconds, **self.to_dict()}

    @classmethod
    def from_dict(cls, data) -> "CostSnapshot":
        """Parse a cost block (:meth:`to_dict`; a report's derived
        ``seconds`` is ignored). A missing field reads as zero.

        Raises :class:`~repro.errors.CostModelError` naming the field
        when the block is not an object, a value is not a JSON number
        (a string, ``null``, a list or a bool), or a count is not whole.
        """
        if not isinstance(data, dict):
            raise CostModelError(
                f"cost block is {type(data).__name__}, expected an object"
            )
        values = []
        for f in _SCHEMA:
            name, kind = f.name, f.kind
            v = data.get(name, 0)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise CostModelError(
                    f"cost field {name!r} holds {type(v).__name__} {v!r},"
                    f" expected a number"
                )
            if kind is int and isinstance(v, float) and not v.is_integer():
                raise CostModelError(
                    f"cost field {name!r} holds {v!r}, expected a whole"
                    f" number"
                )
            values.append(kind(v))
        return cls(*values)


class _Field(NamedTuple):
    """One row of the cost schema table."""

    name: str
    #: ``int`` or ``float``; called with no argument it gives the zero
    kind: type
    #: ``a + b`` and ``a - b`` under the field's merge policy
    add: Callable
    sub: Callable
    physical: bool


def _keep_later(later, earlier):
    return later


_MERGES = {"sum": (operator.add, operator.sub),
           "watermark": (max, _keep_later)}
_HINTS = get_type_hints(CostSnapshot)
_SCHEMA = tuple(
    _Field(f.name, _HINTS[f.name], *_MERGES[f.metadata.get("merge", "sum")],
           f.metadata.get("physical", False))
    for f in fields(CostSnapshot)
)
_INT_FIELDS = tuple(f.name for f in _SCHEMA if f.kind is int)
#: the fields a checkpoint resume restores (all but the physical ones)
_LOGICAL = tuple(f for f in _SCHEMA if not f.physical)
#: every schema field of a snapshot or a ledger, as a tuple in order
_costs_of = operator.attrgetter(*(f.name for f in _SCHEMA))
_ZERO = CostSnapshot(*[f.kind() for f in _SCHEMA])


def report_total(reports: Iterable[dict]) -> dict:
    """Total of :meth:`CostSnapshot.to_report` dicts, in report form.

    ``seconds`` adds each report's value as written; re-deriving it from
    the summed ``comm_seconds`` and ``compute_seconds`` can move the last
    bit. Every field merges by its policy, and a missing key reads as
    zero.
    """
    total = _ZERO.to_report()
    for rep in reports:
        total["seconds"] += rep.get("seconds", 0)
        for f in _SCHEMA:
            total[f.name] = f.add(total[f.name], rep.get(f.name, 0))
    return total


def _collective_entry() -> list:
    """Fresh per-collective counter row (module-level so ledgers pickle:
    the process backend ships each rank's ledger back to the parent)."""
    return [0, 0, 0.0, 0.0]


@dataclass
class CostLedger:
    """Accumulates modelled costs for one rank.

    The running totals are the :class:`CostSnapshot` schema's fields
    (``comm_seconds``, ``messages``, ``max_staleness``, ...), plain
    attributes zeroed from the schema rather than declared here.
    """

    machine: MachineSpec | None = None
    #: virtual-parallelism divisor applied to every add_flops call
    flop_divisor: float = 1.0
    #: multiplicative straggler factor on compute time (>= 1)
    imbalance: float = 1.0
    #: dataset-extrapolation multiplier applied before the divisor
    #: (virtual-P runs on a scaled-down stand-in charge full-size flops)
    default_scale: float = 1.0
    #: per-kind overrides of default_scale (e.g. "gather" work scales with
    #: the row count, not the nnz count)
    kind_scales: dict = field(default_factory=dict)

    #: modelled seconds this rank sat idle (serving engine waiting for
    #: the next arrival, or an explicit ``("sleep", s)`` schedule token);
    #: virtual time only — no wall clock is ever spent
    idle_seconds: float = 0.0
    #: serving-layer request counters (multi-tenant engine; see
    #: :mod:`repro.serve`) — admission rejections, per-request deadline
    #: misses, requests refused because their tenant is quarantined, and
    #: requests replayed to completion after a supervised recovery
    requests_rejected: int = 0
    requests_timed_out: int = 0
    requests_quarantined: int = 0
    requests_recovered: int = 0
    #: when False, charges are dropped (used while evaluating diagnostics
    #: such as objective values that the measured algorithm never computes)
    enabled: bool = True
    #: per-collective-name (calls, messages, words, seconds)
    by_collective: dict = field(default_factory=lambda: defaultdict(_collective_entry))
    #: per-kind flop counts
    by_kind: dict = field(default_factory=lambda: defaultdict(float))

    def __post_init__(self) -> None:
        if self.flop_divisor <= 0:
            raise CostModelError("flop_divisor must be > 0")
        if self.imbalance < 1.0:
            raise CostModelError("imbalance must be >= 1")
        self._compute_model = ComputeModel(self.machine) if self.machine else None
        self._zero_costs()

    def _zero_costs(self) -> None:
        for f in _SCHEMA:
            setattr(self, f.name, f.kind())

    # -- charging ----------------------------------------------------------
    def add_collective(
        self, name: str, cost: CollectiveCost, overlap_seconds: float = 0.0,
        stale_overlap_seconds: float = 0.0,
    ) -> None:
        """Charge one collective call (called by the communicator).

        ``overlap_seconds`` is computation time the caller provably spent
        while the collective was in flight (nonblocking collectives): the
        modelled latency hidden behind it is *not* charged to
        ``comm_seconds`` but tracked in ``comm_seconds_hidden``.
        ``stale_overlap_seconds`` is the portion of that in-flight window
        past the point a synchronous consumer would have harvested (async
        bounded-staleness solvers); it lands in ``stale_seconds``. The
        fresh window takes precedence when the collective is shorter than
        the combined overlap, so
        ``comm_seconds + comm_seconds_hidden + stale_seconds`` always
        equals what the blocking collective would have cost. Messages and
        words are charged in full either way — overlap hides time, not
        traffic.
        """
        if not self.enabled:
            return
        hidden = min(max(overlap_seconds, 0.0), cost.seconds)
        stale = min(max(stale_overlap_seconds, 0.0), cost.seconds - hidden)
        charged = cost.seconds - hidden - stale
        self.comm_seconds += charged
        self.comm_seconds_hidden += hidden
        self.stale_seconds += stale
        self.messages += cost.messages
        self.words += cost.words
        entry = self.by_collective[name]
        entry[0] += 1
        entry[1] += cost.messages
        entry[2] += cost.words
        entry[3] += charged

    def add_flops(
        self,
        flops: float,
        kind: str = "blas1",
        working_set_bytes: float | None = None,
    ) -> None:
        """Charge local computation, scaled by the virtual-P divisor."""
        if flops < 0:
            raise CostModelError(f"flops must be non-negative, got {flops}")
        if not self.enabled:
            return
        scale = self.kind_scales.get(kind, self.default_scale)
        eff = float(flops) * scale / self.flop_divisor
        self.flops += eff
        self.by_kind[kind] += eff
        if self._compute_model is not None:
            self.compute_seconds += (
                self._compute_model.seconds(eff, kind, working_set_bytes)
                * self.imbalance
            )

    def add_idle(self, seconds: float) -> None:
        """Charge modelled idle time (virtual sleep; no wall clock).

        Used by the serving engine when the admission queue drains and
        the virtual clock jumps to the next trace arrival, and by the
        streaming replayer's ``("sleep", seconds)`` schedule token.
        Tracked separately from ``comm_seconds``/``compute_seconds``:
        idle time advances the serving clock but is not algorithmic
        cost, so it never contaminates warm-refit measurements.
        """
        if seconds < 0:
            raise CostModelError(
                f"idle seconds must be non-negative, got {seconds}"
            )
        if self.enabled:
            self.idle_seconds += float(seconds)

    def note_staleness(self, steps: int) -> None:
        """Record the staleness (harvest steps) one collective was consumed
        at; ``max_staleness`` is the watermark over the run."""
        if self.enabled and int(steps) > self.max_staleness:
            self.max_staleness = int(steps)

    def add_retry(self) -> None:
        """Record one transient-fault retry of a collective."""
        if self.enabled:
            self.retries += 1

    def add_timeout(self) -> None:
        """Record one collective deadline miss."""
        if self.enabled:
            self.timeouts += 1

    def add_recovery(
        self, respawns: int = 0, replayed_iterations: int = 0
    ) -> None:
        """Record one supervised recovery round (self-healing runtime).

        Recovery counters are *physical-attempt* bookkeeping: they count
        what actually happened to this run's processes, so unlike the
        modelled cost totals they are never rewound by
        :meth:`restore` on a checkpoint resume.
        """
        if self.enabled:
            self.recoveries += 1
            self.respawns += int(respawns)
            self.replayed_iterations += int(replayed_iterations)

    def add_request_event(self, kind: str, count: int = 1) -> None:
        """Record ``count`` serving-layer request outcomes.

        ``kind`` is one of ``"rejected"`` (admission queue full),
        ``"timed_out"`` (per-request deadline missed), ``"quarantined"``
        (request refused because its tenant is quarantined), or
        ``"recovered"`` (request replayed to completion after a
        supervised recovery). Like the recovery counters these are
        bookkeeping, not modelled cost.
        """
        if kind not in ("rejected", "timed_out", "quarantined", "recovered"):
            raise CostModelError(f"unknown request-event kind {kind!r}")
        if count < 0:
            raise CostModelError(f"count must be non-negative, got {count}")
        if self.enabled:
            attr = f"requests_{kind}"
            setattr(self, attr, getattr(self, attr) + int(count))

    @contextmanager
    def paused(self) -> Iterator["CostLedger"]:
        """Context manager suspending cost accounting (diagnostics)."""
        prev = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = prev

    # -- reading -----------------------------------------------------------
    @property
    def seconds(self) -> float:
        """Total modelled seconds so far (communication + computation)."""
        return self.comm_seconds + self.compute_seconds

    def snapshot(self) -> CostSnapshot:
        return CostSnapshot(*_costs_of(self))

    def restore(self, snapshot: CostSnapshot) -> None:
        """Set the running counters to ``snapshot`` (checkpoint resume).

        Per-collective / per-kind breakdowns are not checkpointed; only
        the totals continue across a resume. The schema's physical
        counters (``recoveries`` / ``respawns`` / ``replayed_iterations``)
        are deliberately *not* restored: they describe this physical
        run's supervision history, not the logical solve the checkpoint
        came from, and are owned by the worker pool. This is the one
        place that rule lives.
        """
        for f in _LOGICAL:
            setattr(self, f.name, f.kind(getattr(snapshot, f.name)))

    def child(self) -> "CostLedger":
        """A fresh zero-counter ledger with this ledger's configuration.

        Used by sweep engines that want per-solve accounting without the
        parent's accumulated totals (e.g. one ledger per regularization-
        path point).
        """
        return CostLedger(
            machine=self.machine,
            flop_divisor=self.flop_divisor,
            imbalance=self.imbalance,
            default_scale=self.default_scale,
            kind_scales=dict(self.kind_scales),
        )

    def reset(self) -> None:
        """Zero all counters (ledger can be reused across solver runs)."""
        self._zero_costs()
        self.idle_seconds = 0.0
        self.requests_rejected = 0
        self.requests_timed_out = 0
        self.requests_quarantined = 0
        self.requests_recovered = 0
        self.by_collective.clear()
        self.by_kind.clear()

    def summary(self) -> dict:
        """Plain-dict summary for reports."""
        return {
            **self.snapshot().to_report(),
            "idle_seconds": self.idle_seconds,
            "requests_rejected": self.requests_rejected,
            "requests_timed_out": self.requests_timed_out,
            "requests_quarantined": self.requests_quarantined,
            "requests_recovered": self.requests_recovered,
            "by_collective": {
                k: {
                    "calls": v[0],
                    "messages": v[1],
                    "words": v[2],
                    "seconds": v[3],
                }
                for k, v in self.by_collective.items()
            },
            "by_kind": dict(self.by_kind),
        }


def critical_path(ledgers: Iterable[CostLedger]) -> CostSnapshot:
    """Bulk-synchronous critical path: the slowest rank bounds each epoch.

    For the balanced partitions used here, taking the max of rank totals
    is an adequate critical-path estimate (collectives are charged
    identically on every rank).
    """
    snaps = [led.snapshot() for led in ledgers]
    if not snaps:
        raise CostModelError("critical_path needs at least one ledger")
    slowest = max(snaps, key=lambda s: s.seconds)
    return slowest
