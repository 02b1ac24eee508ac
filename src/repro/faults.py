"""Deterministic fault injection for the SPMD runtime.

The paper's setting — hiding synchronization latency on large machines —
is exactly the regime where ranks stall, die, and messages go slow. This
module makes every such failure mode a *reproducible test case*:

* :class:`FaultPlan` — a declarative schedule of :class:`FaultEvent`\\ s
  keyed by ``(rank, collective ordinal)``, either written explicitly or
  drawn deterministically from a seed (:meth:`FaultPlan.random`);
* :class:`FaultyComm` — a :class:`~repro.mpi.comm.Comm` wrapper that
  injects the plan into *any* backend (virtual / thread / process) by
  intercepting the three backend chokepoints every collective routes
  through, and recovers transient faults with a bounded
  exponential-backoff :class:`RetryPolicy` (retries/timeouts are charged
  to the wrapped communicator's ledger).

Fault kinds
-----------
``transient``
    Raise :class:`~repro.errors.TransientCommError` for the event's
    ``count`` attempts, then let the collective proceed. Injected
    *before* the real collective is entered, so a retry re-enters it
    with all peers still parked at the barrier — recovery is exact and
    the run completes bit-identical to the fault-free one.
``crash``
    Raise :class:`InjectedFailure` (unrecoverable; the SPMD driver's
    abort path propagates it and peers fail with
    :class:`~repro.errors.CommAborted`).
``die``
    Hard rank death: ``os._exit`` on the process backend (exercising the
    :class:`~repro.mpi.process_backend.ProcessWorld` watchdog →
    :class:`~repro.errors.RankDiedError` on survivors); equivalent to
    ``crash`` on in-process backends, where a rank cannot be killed
    without taking the interpreter with it.
``delay``
    Slow completion: sleep ``delay`` seconds before the collective. If
    the active deadline is ``<= delay`` the event instead raises
    :class:`~repro.errors.CommTimeoutError` *deterministically* (no
    wall-clock involved), so timeout handling is testable on all three
    backends, including the single-participant virtual one.
``straggle``
    A slow rank over a window: like ``delay`` but applied to every
    collective ordinal in ``[ordinal, ordinal + count)``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.errors import CommError, CommTimeoutError, TransientCommError
from repro.mpi.comm import Comm
from repro.mpi.ops import SUM, Op

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "RetryPolicy",
    "FaultyComm",
    "InjectedFailure",
]

FAULT_KINDS = ("transient", "crash", "die", "delay", "straggle")


class InjectedFailure(CommError):
    """An unrecoverable fault injected by a :class:`FaultPlan`.

    Distinct from organic errors so tests can assert that a failure
    observed on some rank is exactly the one the plan scheduled.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``rank``/``ordinal`` key the event: the ordinal counts collectives
    *as entered by that rank* (blocking calls and nonblocking posts
    alike), so a plan is meaningful on any backend. ``count`` is the
    number of failing attempts for ``transient`` and the window width
    for ``straggle``; ``delay`` is the injected latency in seconds for
    ``delay``/``straggle``.
    """

    rank: int
    ordinal: int
    kind: str
    count: int = 1
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise CommError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.ordinal < 0 or self.rank < 0:
            raise CommError("fault rank and ordinal must be non-negative")
        if self.count < 1:
            raise CommError("fault count must be >= 1")
        if self.delay < 0:
            raise CommError("fault delay must be non-negative")


class FaultPlan:
    """A deterministic schedule of faults, keyed by (rank, ordinal)."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events = tuple(events)
        self._by_key: dict = {}
        for ev in self.events:
            if ev.kind == "straggle":
                for k in range(ev.count):
                    self._by_key.setdefault((ev.rank, ev.ordinal + k), ev)
            else:
                self._by_key.setdefault((ev.rank, ev.ordinal), ev)

    def lookup(self, rank: int, ordinal: int) -> FaultEvent | None:
        """The event scheduled for this rank at this collective, if any."""
        return self._by_key.get((rank, ordinal))

    @classmethod
    def random(
        cls,
        seed: int,
        size: int,
        n_collectives: int,
        rate: float = 0.05,
        kinds: tuple = ("transient", "delay"),
        max_count: int = 2,
        delay: float = 0.0,
    ) -> "FaultPlan":
        """Draw a plan deterministically from ``seed``.

        Every ``(rank, ordinal)`` cell over ``size`` ranks and
        ``n_collectives`` ordinals independently faults with probability
        ``rate``, with kind/count drawn from the given menu. The same
        seed always yields the same plan — the determinism contract the
        fuzz suite pins down.
        """
        rng = np.random.default_rng(seed)
        events = []
        for rank in range(size):
            for ordinal in range(n_collectives):
                if rng.random() >= rate:
                    continue
                kind = str(rng.choice(list(kinds)))
                count = int(rng.integers(1, max_count + 1))
                events.append(
                    FaultEvent(
                        rank=rank,
                        ordinal=ordinal,
                        kind=kind,
                        count=count,
                        delay=delay,
                    )
                )
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({len(self.events)} events)"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient collective faults."""

    max_retries: int = 3
    backoff: float = 0.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise CommError("max_retries must be >= 0")
        if self.backoff < 0 or self.factor < 1.0:
            raise CommError("backoff must be >= 0 and factor >= 1")

    def sleep_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return self.backoff * self.factor ** (attempt - 1)


class FaultyComm(Comm):
    """Inject a :class:`FaultPlan` into any communicator.

    A thin :class:`~repro.mpi.comm.Comm` whose three backend hooks
    (``_allgather_impl`` / ``_exchange_fold`` / ``_iallreduce_impl`` —
    the chokepoints every public collective routes through) consult the
    plan before delegating to the wrapped communicator's hook. The
    wrapped ledger is shared, so solver code sees one coherent cost
    stream plus the new ``retries``/``timeouts`` counters.
    """

    def __init__(
        self,
        inner: Comm,
        plan: FaultPlan,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            rank=inner.rank,
            size=inner.size,
            cost_size=inner.cost_size,
            machine=inner.machine,
            ledger=inner.ledger,
            timeout=inner.timeout,
        )
        self.inner = inner
        self.plan = plan
        self.retry = retry if retry is not None else RetryPolicy()
        #: collectives entered by this rank so far (= next fault ordinal)
        self.ordinal = 0
        self._attempt = 1

    # -- injection core ----------------------------------------------------
    def _inject(self, tag: str, ordinal: int) -> None:
        """Apply the scheduled fault for the collective being entered.

        Raises for ``transient`` (per failing attempt — the caller's
        retry loop decides whether to re-enter), ``crash`` and timed-out
        ``delay``; sleeps for in-deadline ``delay``/``straggle``; exits
        the process for ``die`` on a forked rank.
        """
        ev = self.plan.lookup(self.rank, ordinal)
        if ev is None:
            return
        if ev.kind == "transient":
            if self._attempt <= ev.count:
                raise TransientCommError(
                    f"rank {self.rank}: injected transient fault on"
                    f" collective #{ordinal} ({tag!r}), attempt"
                    f" {self._attempt}/{ev.count}"
                )
            return
        if ev.kind in ("crash", "die"):
            if ev.kind == "die" and self._is_forked_rank():
                os._exit(13)
            raise InjectedFailure(
                f"rank {self.rank}: injected {ev.kind} on collective"
                f" #{ordinal} ({tag!r})"
            )
        # delay / straggle
        deadline = self._active_timeout
        if deadline is not None and ev.delay >= deadline:
            self.ledger.add_timeout()
            raise CommTimeoutError(
                f"rank {self.rank}: collective #{ordinal} ({tag!r})"
                f" injected delay of {ev.delay}s exceeds the {deadline}s"
                " deadline",
                tag=tag,
                stalled=(self.rank,),
            )
        if ev.delay:
            time.sleep(ev.delay)

    def _is_forked_rank(self) -> bool:
        """True when this rank is a forked child that can die alone."""
        from repro.mpi.process_backend import ProcessComm

        return isinstance(self.inner, ProcessComm)

    def _with_faults(self, tag: str, call):
        """Ordinal bookkeeping + injection + bounded retry around ``call``."""
        ordinal = self.ordinal
        self.ordinal += 1
        self._attempt = 1
        # the inner hook reads its own _active_timeout; mirror ours down
        self.inner._active_timeout = self._active_timeout
        while True:
            try:
                self._inject(tag, ordinal)
                return call()
            except TransientCommError:
                if self._attempt > self.retry.max_retries:
                    raise
                self.ledger.add_retry()
                pause = self.retry.sleep_for(self._attempt)
                if pause:
                    time.sleep(pause)
                self._attempt += 1

    def payload_fits(self, words: int, nonblocking: bool = False) -> bool:
        return self.inner.payload_fits(words, nonblocking)

    # -- backend hooks -----------------------------------------------------
    def _allgather_impl(self, tag: str, obj: Any) -> list:
        return self._with_faults(tag, lambda: self.inner._allgather_impl(tag, obj))

    def _exchange_fold(self, tag: str, obj: Any, fold) -> Any:
        return self._with_faults(
            tag, lambda: self.inner._exchange_fold(tag, obj, fold)
        )

    def _iallreduce_impl(self, tag: str, arr: np.ndarray, op: Op = SUM, out=None):
        return self._with_faults(
            tag, lambda: self.inner._iallreduce_impl(tag, arr, op, out)
        )
