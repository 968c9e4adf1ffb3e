"""The versioned job record and its state machine.

A job is one scan request moving through the service:

.. code-block:: text

            submit            claim              complete
    (new) --------> QUEUED --------> RUNNING --------------> SUCCEEDED
                     | |               |  | \\
              cancel | | deadline      |  |  \\ fail (attempts left)
                     v v               |  |   v       or attempt-deadline
            CANCELLED  FAILED <--------+  |  QUEUED   or lease reaped
                 ^                        |           (retry *resumes* from
                 |            exhausted   v           the scan checkpoint)
                 +----------- via reap  QUARANTINED
                              /deadline (poison job: error chain kept)

Every transition goes through :meth:`JobRecord.transition`, which
enforces the edge set above — an illegal move raises
:class:`InvalidTransition` instead of silently corrupting the record.
Records serialize to a versioned dict (``schema`` =
:data:`JOB_SCHEMA`); a store handing back a record from a newer schema
refuses rather than guessing, while schema-1 documents (pre-lease) are
migrated forward in place.

``RUNNING -> QUEUED`` is the preemption/retry edge: a worker crash,
drain, reaped lease, or per-attempt deadline re-queues the job, and
because the worker scans with a per-job checkpoint directory, the retry
*resumes* the interrupted scan instead of restarting it (see
:mod:`repro.runtime.checkpoint`).

``RUNNING -> QUARANTINED`` is the poison-job edge: a job whose every
attempt died a worker-fatal death (crash-looped workers, reaped leases,
deterministic per-attempt timeouts) exhausts ``max_attempts`` and is
parked terminally with its full ``error_chain`` preserved, instead of
silently burning fleet capacity forever.

Leases
------
A claim grants a **lease**: ``lease_token`` (a fencing token unique to
that claim) and ``lease_expires_at`` (wall clock).  The worker renews
the lease from its progress heartbeats; every settle
(complete/fail/release) is conditional on the token still matching, so
a worker that finishes *after* its lease was reaped and re-claimed
cannot double-settle the job.
"""

from __future__ import annotations

import enum
import itertools
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional, Tuple

#: bump when the JobRecord dict layout changes incompatibly (3: file
#: stores checksum the record; the fields are those of schema 2)
JOB_SCHEMA = 3

#: longest error chain a record keeps (oldest entries drop first)
MAX_ERROR_CHAIN = 20


class JobState(str, enum.Enum):
    """Lifecycle states; the value is the wire spelling."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"


#: states a job can still make progress from
ACTIVE_STATES: FrozenSet[JobState] = frozenset(
    {JobState.QUEUED, JobState.RUNNING}
)

#: states a job never leaves
TERMINAL_STATES: FrozenSet[JobState] = frozenset(
    {
        JobState.SUCCEEDED,
        JobState.FAILED,
        JobState.CANCELLED,
        JobState.QUARANTINED,
    }
)

#: the legal edge set (see the module docstring diagram)
_ALLOWED: Dict[JobState, Tuple[JobState, ...]] = {
    JobState.QUEUED: (
        JobState.RUNNING,
        JobState.CANCELLED,
        JobState.FAILED,  # job deadline expired while still queued
    ),
    JobState.RUNNING: (
        JobState.SUCCEEDED,
        JobState.FAILED,
        JobState.CANCELLED,
        JobState.QUEUED,  # preemption / bounded retry / reaped lease
        JobState.QUARANTINED,  # poison job: worker-fatal exhaustion
    ),
    JobState.SUCCEEDED: (),
    JobState.FAILED: (),
    JobState.CANCELLED: (),
    JobState.QUARANTINED: (),
}

_SEQ = itertools.count()


class InvalidTransition(RuntimeError):
    """A state change outside the legal edge set was attempted."""


def new_job_id() -> str:
    """Opaque, URL-safe job identifier."""
    return uuid.uuid4().hex


def new_lease_token() -> str:
    """Fencing token minted per claim; settles must present it back."""
    return uuid.uuid4().hex


@dataclass(frozen=True)
class JobRecord:
    """One job's full durable state — everything a store persists.

    Immutable: transitions return a new record (stores swap atomically).

    ``seq`` orders jobs by submission within one process; stores persist
    it so a recovered fleet replays queued work in the original order.
    ``attempts`` counts claims: 0 until the first worker picks the job
    up, and a value > 1 on a running job means the scan is a
    checkpoint-resumed retry.  ``error`` is the latest attempt's failure
    and ``error_chain`` the bounded history of every dead attempt.

    ``deadline_s`` budgets the job's total wall clock from submission
    (queue wait included); ``attempt_deadline_s`` budgets each claim
    from ``attempt_started_at``.  Both are enforced cooperatively at the
    worker's heartbeat boundary and by the lease reaper's sweep.
    """

    job_id: str
    request: Dict[str, object]
    state: JobState = JobState.QUEUED
    seq: int = field(default_factory=lambda: next(_SEQ))
    attempts: int = 0
    max_attempts: int = 3
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)
    worker: Optional[str] = None
    error: Optional[str] = None
    error_chain: Tuple[str, ...] = ()
    cancel_requested: bool = False
    lease_token: Optional[str] = None
    lease_expires_at: Optional[float] = None
    attempt_started_at: Optional[float] = None
    deadline_s: Optional[float] = None
    attempt_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        for name in ("deadline_s", "attempt_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def transition(self, to: JobState, **changes) -> "JobRecord":
        """A copy of this record moved to ``to`` (plus field changes).

        Raises :class:`InvalidTransition` for any edge outside
        :data:`_ALLOWED`; stamps ``updated_at``.
        """
        if to not in _ALLOWED[self.state]:
            raise InvalidTransition(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {to.value}"
            )
        return replace(self, state=to, updated_at=time.time(), **changes)

    def chain_error(self, message: str) -> Dict[str, object]:
        """Field changes recording one more dead attempt's error."""
        chain = (self.error_chain + (message,))[-MAX_ERROR_CHAIN:]
        return {"error": message, "error_chain": chain}

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def retries_left(self) -> int:
        """Claims still available (a first run is not a retry)."""
        return max(0, self.max_attempts - self.attempts)

    # ------------------------------------------------------------------
    # lease / deadline clocks
    # ------------------------------------------------------------------
    def lease_expired(self, now: float) -> bool:
        """True when this running job's lease has lapsed at ``now``."""
        return (
            self.state is JobState.RUNNING
            and self.lease_expires_at is not None
            and now >= self.lease_expires_at
        )

    def job_deadline_exceeded(self, now: float) -> bool:
        """True when the whole-job wall-clock budget is spent."""
        return (
            self.deadline_s is not None
            and now - self.created_at >= self.deadline_s
        )

    def attempt_deadline_exceeded(self, now: float) -> bool:
        """True when the current attempt's wall-clock budget is spent."""
        return (
            self.attempt_deadline_s is not None
            and self.attempt_started_at is not None
            and now - self.attempt_started_at >= self.attempt_deadline_s
        )

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The versioned, JSON-ready representation stores persist."""
        return {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "state": self.state.value,
            "seq": self.seq,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "worker": self.worker,
            "error": self.error,
            "error_chain": list(self.error_chain),
            "cancel_requested": self.cancel_requested,
            "lease_token": self.lease_token,
            "lease_expires_at": self.lease_expires_at,
            "attempt_started_at": self.attempt_started_at,
            "deadline_s": self.deadline_s,
            "attempt_deadline_s": self.attempt_deadline_s,
            "request": self.request,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobRecord":
        """Rebuild a record persisted by :meth:`to_dict`.

        Schema-1 documents (pre-lease/deadline) are migrated forward by
        defaulting the new fields; anything newer than this build's
        :data:`JOB_SCHEMA` is refused — a store migration, not a silent
        reinterpretation, is the correct response.
        """
        schema = payload.get("schema")
        if schema not in (1, 2, JOB_SCHEMA):
            raise ValueError(
                f"unsupported JobRecord schema {schema!r} "
                f"(this build reads 1..{JOB_SCHEMA})"
            )

        def opt_float(key: str) -> Optional[float]:
            value = payload.get(key)
            return None if value is None else float(value)

        return cls(
            job_id=str(payload["job_id"]),
            request=dict(payload["request"]),
            state=JobState(payload["state"]),
            seq=int(payload["seq"]),
            attempts=int(payload["attempts"]),
            max_attempts=int(payload["max_attempts"]),
            created_at=float(payload["created_at"]),
            updated_at=float(payload["updated_at"]),
            worker=payload["worker"],
            error=payload["error"],
            error_chain=tuple(
                str(entry) for entry in payload.get("error_chain", ())
            ),
            cancel_requested=bool(payload["cancel_requested"]),
            lease_token=payload.get("lease_token"),
            lease_expires_at=opt_float("lease_expires_at"),
            attempt_started_at=opt_float("attempt_started_at"),
            deadline_s=opt_float("deadline_s"),
            attempt_deadline_s=opt_float("attempt_deadline_s"),
        )

    def public_dict(self) -> Dict[str, object]:
        """What ``GET /jobs/<id>`` returns: the record minus the request
        payload (megabytes of geometry) and the lease token (a fencing
        capability that only the owning worker may present)."""
        out = self.to_dict()
        del out["request"]
        del out["lease_token"]
        return out
