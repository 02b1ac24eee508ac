"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CommError",
    "CommAborted",
    "CommTimeoutError",
    "NbRingDepthError",
    "RankDiedError",
    "TransientCommError",
    "RankMismatchError",
    "PartitionError",
    "DatasetError",
    "SolverError",
    "ConvergenceError",
    "CostModelError",
    "CheckpointError",
    "ServeError",
    "AdmissionError",
    "DeadlineError",
    "TenantQuarantinedError",
]


class ReproError(Exception):
    """Base class for all :mod:`repro` exceptions."""


class CommError(ReproError):
    """A collective or point-to-point communication call was misused."""


class CommAborted(CommError):
    """A peer rank raised, aborting the collective the caller was in."""


class CommTimeoutError(CommError):
    """A collective missed its deadline.

    Raised by the rank whose wait expired; the message names the
    collective's tag and, where the backend can tell, the ranks that had
    not yet arrived. The timing-out rank aborts the world so peers fail
    fast with :class:`CommAborted` instead of blocking forever.
    """

    def __init__(self, message: str, *, tag: str = "", stalled: tuple = ()):
        super().__init__(message)
        self.tag = tag
        self.stalled = tuple(stalled)


class NbRingDepthError(CommError):
    """A rank posted more in-flight nonblocking collectives than the ring holds.

    The thread/process backends recycle each nonblocking slot only after
    every rank has harvested it, so posting ``nb_depth`` reductions while
    this rank's oldest handle is still unharvested would deadlock inside
    the post (the rank itself holds the slot it is waiting for). The
    error is raised *before* blocking, deterministically on every rank
    (the check is against the posting rank's own unharvested handles).
    ``depth`` is the configured ring depth; raise it via the backends'
    ``nb_depth=`` knob (the ring at depth ``tau`` needs ``tau + 1``).
    """

    def __init__(self, message: str, *, depth: int = 0, outstanding: int = 0):
        super().__init__(message)
        self.depth = int(depth)
        self.outstanding = int(outstanding)


class RankDiedError(CommAborted):
    """A peer rank died (process exit / kill) mid-collective.

    A structured refinement of :class:`CommAborted` (callers catching
    the generic abort keep working): surfaced on every surviving rank by
    the :class:`ProcessWorld` watchdog so an unrecoverable rank death
    never turns into a hang, and raised by the parent driver naming the
    dead ranks.
    """

    def __init__(self, message: str, *, dead_ranks: tuple = ()):
        super().__init__(message)
        self.dead_ranks = tuple(dead_ranks)


class TransientCommError(CommError):
    """A collective failed in a way marked recoverable (retry-safe).

    :class:`repro.faults.FaultyComm` raises this for injected transient
    faults *before* touching the real collective, so a bounded-backoff
    retry re-enters the collective with all peers still waiting.
    """


class RankMismatchError(CommError):
    """Ranks disagreed about the collective being executed (SPMD bug)."""


class PartitionError(ReproError):
    """Invalid data partition (empty ranges, overlap, wrong axis...)."""


class DatasetError(ReproError):
    """Dataset could not be parsed, generated, or validated."""


class SolverError(ReproError):
    """Solver received invalid inputs or reached an invalid state."""


class ConvergenceError(SolverError):
    """A solver failed to reach the requested tolerance within budget."""


class CostModelError(ReproError):
    """Machine/cost model was configured or queried inconsistently."""


class CheckpointError(ReproError):
    """A checkpoint could not be produced, parsed, or resumed from."""


class ServeError(ReproError):
    """The multi-tenant serving engine was misconfigured or misused
    (unknown tenant, malformed trace, invalid engine state)."""


class AdmissionError(ServeError):
    """A request was rejected at admission: the bounded queue is full.

    Explicit backpressure instead of unbounded growth: the error names
    the queue depth it bounced off (``queue_depth``) and carries a
    modelled retry hint (``retry_after``, virtual seconds — an estimate
    of when capacity frees up, 0.0 when the engine has no service-time
    history yet).
    """

    def __init__(self, message: str, *, queue_depth: int = 0,
                 retry_after: float = 0.0):
        super().__init__(message)
        self.queue_depth = int(queue_depth)
        self.retry_after = float(retry_after)


class DeadlineError(ServeError):
    """A request missed its per-request deadline.

    Raised/recorded for requests that expire while queued, and for
    refits whose completion lands past every coalesced member's
    deadline (the refit is rolled back — the tenant keeps serving its
    last committed model). ``latency`` is the virtual seconds the
    request had been waiting; ``deadline`` the budget it missed.
    """

    def __init__(self, message: str, *, deadline: float = 0.0,
                 latency: float = 0.0):
        super().__init__(message)
        self.deadline = float(deadline)
        self.latency = float(latency)


class TenantQuarantinedError(ServeError):
    """A mutating request was refused because its tenant is quarantined.

    The tenant exceeded its fault budget (rank deaths, comm deadlines,
    or solver divergence during its refits); its last committed model
    stays servable (``predict`` requests are still admitted) while other
    tenants are unaffected.
    """

    def __init__(self, message: str, *, tenant: str = "", faults: int = 0):
        super().__init__(message)
        self.tenant = tenant
        self.faults = int(faults)
