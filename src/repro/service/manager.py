"""JobManager: the submit/status/cancel/result lifecycle over the ports.

One manager owns the service's state: it validates and admits
submissions (shedding load past the queue cap and refusing everything
while draining), hands queued jobs to workers through an atomic
lease-granting claim, records outcomes (retrying preempted or crashed
jobs with bounded attempts, quarantining poison jobs), and aggregates
per-job scan metrics into one service-level telemetry stream.  It holds
**no** scan threads and does **no** scanning — the
:class:`~repro.service.fleet.WorkerFleet` drives it, and the HTTP layer
(:mod:`~repro.service.http`) translates it to routes.

Concurrency model: every state change is one
:meth:`~repro.service.ports.JobStore.update` — an atomic
read-modify-write under the store lock.  A submit/cancel or
claim/cancel race therefore resolves to exactly one winner, and the
**lease token** minted per claim extends the same guarantee to the
reap-vs-complete race: :meth:`complete`, :meth:`fail`, and
:meth:`release` all re-check inside the RMW that the job is still
``running`` *and* still owned by the presenting token, so a worker that
finishes after its lease was reaped (and possibly re-claimed by another
worker) settles nothing — exactly one attempt's outcome lands.

Failure model, end to end:

* **crashed/hung worker** — its job's lease stops being renewed; the
  :class:`LeaseReaper` (a daemon thread any live fleet runs) finds the
  expired lease and requeues the job through the same RMW state
  machine, so the *live* fleet reclaims the work without any restart,
* **poison job** — a job whose attempts are all consumed by
  worker-fatal deaths (reaps, crash loops, deterministic per-attempt
  timeouts) lands terminally ``quarantined`` with its full error chain
  preserved, instead of cycling forever,
* **deadlines** — per-job (``deadline_s``, from submission, queue wait
  included) and per-attempt (``attempt_deadline_s``) budgets are
  enforced at the worker's heartbeat boundary and by the reaper sweep;
  a spent job budget fails the job, a spent attempt budget requeues it
  (checkpoint kept) until attempts run out,
* **backpressure** — ``max_queue_depth`` sheds submissions with
  :class:`~repro.service.ports.QueueFull` (HTTP 503 + ``Retry-After``),
  distinct from the per-client 429 rate limit,
* **drain** — :meth:`begin_drain` stops admission; the fleet then
  releases in-flight attempts back to the queue (checkpoints intact,
  attempt refunded) so a rolling restart loses zero accepted jobs.

Restart story (:meth:`JobManager.recover`): the queue is a *hint*, the
job store is the truth.  On fleet startup the queue is rebuilt from the
store — jobs found ``running`` (the previous process died mid-scan) are
moved back to ``queued`` and, because each job scans with its own
checkpoint directory, their next attempt resumes rather than restarts.
Each replayed job is enqueued exactly once regardless of what stale
entries the durable queue held.
"""

from __future__ import annotations

import enum
import shutil
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..runtime import Telemetry
from .jobs import JobRecord, JobState, new_job_id, new_lease_token
from .memory import NullRateLimiter
from .ports import (
    JobNotFound,
    JobQueue,
    JobStore,
    QueueFull,
    RateLimited,
    RateLimiter,
    ResultStore,
    ServiceDraining,
    StoredResult,
)
from .wire import validate_job_request

PathLike = Union[str, Path]


class HeartbeatVerdict(enum.Enum):
    """What a worker must do after renewing its lease at a heartbeat."""

    #: lease renewed — keep scanning
    CONTINUE = "continue"
    #: a cancel landed while the scan ran — abort and settle cancelled
    CANCELLED = "cancelled"
    #: the lease was reaped/re-claimed — abort *without* settling
    LEASE_LOST = "lease_lost"
    #: the whole-job budget is spent — already failed; abort, no settle
    JOB_DEADLINE = "job_deadline"
    #: the attempt budget is spent — already requeued/quarantined;
    #: abort, no settle
    ATTEMPT_DEADLINE = "attempt_deadline"


class LeaseReaper:
    """Daemon thread sweeping expired leases back into the queue.

    Any live fleet runs one; that is what makes a crashed or hung
    worker's job reclaimable *without a fleet restart*.  The sweep
    itself (:meth:`JobManager.reap`) is safe to run from any number of
    processes concurrently — every requeue/quarantine is one guarded
    store RMW, so two reapers racing settle each job exactly once.
    """

    def __init__(
        self, manager: "JobManager", interval_s: Optional[float] = None
    ) -> None:
        if interval_s is None:
            interval_s = max(0.05, manager.lease_duration_s / 4.0)
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.manager = manager
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LeaseReaper":
        if self._thread is not None:
            raise RuntimeError("reaper already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-lease-reaper", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.manager.reap()


class JobManager:
    """Service-side job lifecycle over pluggable storage ports.

    Parameters
    ----------
    store, queue, results:
        The three storage ports (in-memory or file-backed adapters, or
        anything else honouring the port contracts).  A port with an
        unset ``on_quarantine`` hook gets :meth:`on_quarantine`.
    rate_limiter:
        Per-client admission control for :meth:`submit` (HTTP 429);
        default admits everything.
    max_attempts:
        Total claims a job may consume (first run + retries).
    checkpoint_root:
        Directory receiving one checkpoint subdirectory per job; when
        set, a retried job *resumes* its interrupted scan.  ``None``
        disables checkpointing (retries restart from scratch).
    lease_duration_s:
        How long a claim's lease lasts without a heartbeat renewal
        before the reaper may requeue the job.
    max_queue_depth:
        Queue-depth admission cap; ``None`` disables shedding (503).
    default_deadline_s / default_attempt_deadline_s:
        Wall-clock budgets applied to jobs whose requests do not set
        their own; ``None`` means unlimited.
    telemetry:
        Shared :class:`~repro.runtime.Telemetry` for the ``job_*`` /
        ``lease_*`` / ``service_*`` counter families; one is created
        when omitted.
    clock:
        Wall-clock source for leases and deadlines (tests inject a fake
        to make expiry deterministic).
    """

    def __init__(
        self,
        store: JobStore,
        queue: JobQueue,
        results: ResultStore,
        *,
        rate_limiter: Optional[RateLimiter] = None,
        max_attempts: int = 3,
        checkpoint_root: Optional[PathLike] = None,
        lease_duration_s: float = 30.0,
        max_queue_depth: Optional[int] = None,
        default_deadline_s: Optional[float] = None,
        default_attempt_deadline_s: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_duration_s <= 0:
            raise ValueError("lease_duration_s must be positive")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 or None")
        self.store = store
        self.queue = queue
        self.results = results
        self.rate_limiter = rate_limiter or NullRateLimiter()
        self.max_attempts = max_attempts
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.lease_duration_s = lease_duration_s
        self.max_queue_depth = max_queue_depth
        self.default_deadline_s = default_deadline_s
        self.default_attempt_deadline_s = default_attempt_deadline_s
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._clock = clock
        # counters and the scan aggregate are touched from many worker
        # threads; Telemetry itself is unsynchronized by design (it is
        # per-scan inside the engine), so the manager serializes access
        self._lock = threading.Lock()
        self._scan_aggregate: Dict[str, int] = {}
        self._draining = threading.Event()
        self._reaper: Optional[LeaseReaper] = None
        # file adapters report quarantined entries through this hook
        for port in (store, queue, results):
            if getattr(port, "on_quarantine", False) is None:
                port.on_quarantine = self.on_quarantine

    @classmethod
    def in_memory(cls, **kwargs) -> "JobManager":
        """A manager over fresh in-memory adapters (tests, single process)."""
        from .memory import (
            InMemoryJobQueue,
            InMemoryJobStore,
            InMemoryResultStore,
        )

        return cls(
            InMemoryJobStore(),
            InMemoryJobQueue(),
            InMemoryResultStore(),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Thread-safe service-counter increment."""
        with self._lock:
            self.telemetry.count(name, n)

    def on_quarantine(self, kind: str, path: Path) -> None:
        """Adapter hook: a corrupt persisted entry was quarantined."""
        self.count("service_entry_quarantined")

    def scan_aggregate(self) -> Dict[str, int]:
        """Summed scan counters over every completed job."""
        with self._lock:
            return dict(self._scan_aggregate)

    def _absorb_scan_metrics(self, metrics: Dict[str, object]) -> None:
        counters = metrics.get("counters")
        if not isinstance(counters, dict):
            return
        with self._lock:
            for name, value in counters.items():
                self._scan_aggregate[name] = self._scan_aggregate.get(
                    name, 0
                ) + int(value)

    # ------------------------------------------------------------------
    # admission / drain state
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting jobs; everything else keeps serving."""
        self._draining.set()

    def end_drain(self) -> None:
        """Re-open admission (a drained manager reused after restart)."""
        self._draining.clear()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(
        self, request: Dict[str, object], client: str = "anonymous"
    ) -> JobRecord:
        """Validate, admit, persist, and enqueue one scan request.

        Refusals, in order: :class:`ServiceDraining` while a drain is in
        progress, :class:`QueueFull` past the queue-depth cap (both are
        *load shedding* — HTTP 503 + ``Retry-After``), and
        :class:`RateLimited` for a client over its budget (HTTP 429).
        """
        request = validate_job_request(request)
        if self.draining:
            self.count("job_shed")
            raise ServiceDraining(
                "service is draining; submissions are closed"
            )
        if (
            self.max_queue_depth is not None
            and self.queue_depth() >= self.max_queue_depth
        ):
            self.count("job_shed")
            raise QueueFull(
                f"queue is at its admission cap "
                f"({self.max_queue_depth} pending jobs)"
            )
        if not self.rate_limiter.allow(client):
            self.count("service_rate_limited")
            raise RateLimited(
                f"client {client!r} is over its submission rate",
                retry_after_s=max(
                    0.1, self.rate_limiter.retry_after_s(client)
                ),
            )
        record = JobRecord(
            job_id=new_job_id(),
            request=request,
            max_attempts=self.max_attempts,
            deadline_s=request.get("deadline_s") or self.default_deadline_s,
            attempt_deadline_s=request.get("attempt_deadline_s")
            or self.default_attempt_deadline_s,
        )
        self.store.put(record)
        self.queue.push(record.job_id)
        self.count("job_submitted")
        return record

    def status(self, job_id: str) -> JobRecord:
        record = self.store.get(job_id)
        if record is None:
            raise JobNotFound(job_id)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs transition now, running jobs are
        flagged and honour the request at their next heartbeat."""

        transitioned = []

        def mutate(record: JobRecord) -> Optional[JobRecord]:
            if record.state is JobState.QUEUED:
                moved = record.transition(JobState.CANCELLED)
                transitioned.append(moved)
                return moved
            if record.state is JobState.RUNNING and not record.cancel_requested:
                return replace(record, cancel_requested=True)
            return None

        updated = self.store.update(job_id, mutate)
        if transitioned:
            self.count("job_cancelled")
            self._drop_checkpoints(job_id)
        return updated if updated is not None else self.status(job_id)

    def result(self, job_id: str) -> StoredResult:
        """The stored result of a succeeded job (JobNotFound otherwise)."""
        self.status(job_id)  # 404 before 409: unknown ids raise here
        stored = self.results.get(job_id)
        if stored is None:
            raise JobNotFound(f"no result stored for job {job_id}")
        return stored

    def delete(self, job_id: str) -> JobRecord:
        """Remove a terminal job and its result; cancel-then-keep an
        active one (the caller retries the delete once it lands)."""
        record = self.status(job_id)
        if not record.terminal:
            return self.cancel(job_id)
        self.results.delete(job_id)
        self.store.delete(job_id)
        self._drop_checkpoints(job_id)
        return record

    # ------------------------------------------------------------------
    # worker surface
    # ------------------------------------------------------------------
    def claim(
        self, worker: str, timeout: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Pop and atomically claim the next runnable job under a lease.

        The claim mints a fresh ``lease_token`` and stamps
        ``lease_expires_at``; the worker renews both via
        :meth:`heartbeat`.  ``None`` on queue timeout *or* when the
        popped entry turned out stale (job cancelled/claimed/settled
        since enqueueing) — callers loop.
        """
        job_id = self.queue.pop(timeout)
        if job_id is None:
            return None
        now = self._clock()

        def mutate(record: JobRecord) -> Optional[JobRecord]:
            if record.state is not JobState.QUEUED:
                return None  # stale queue entry: lost the race, skip
            return record.transition(
                JobState.RUNNING,
                attempts=record.attempts + 1,
                worker=worker,
                lease_token=new_lease_token(),
                lease_expires_at=now + self.lease_duration_s,
                attempt_started_at=now,
            )

        try:
            claimed = self.store.update(job_id, mutate)
        except JobNotFound:
            return None
        if claimed is None:
            return None
        self.count("job_started")
        if claimed.attempts > 1:
            self.count("job_retries")
        return claimed

    def heartbeat(self, job_id: str, lease_token: str) -> HeartbeatVerdict:
        """Renew a worker's lease; one RMW deciding the attempt's fate.

        The returned verdict tells the worker to keep scanning
        (``CONTINUE``, lease extended), abort and settle cancelled
        (``CANCELLED``), or abort **without settling** — the manager
        already settled the record inside this call (deadlines) or the
        lease now belongs to someone else (``LEASE_LOST``).
        """
        now = self._clock()
        verdict = [HeartbeatVerdict.LEASE_LOST]
        requeued = []

        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if (
                current.state is not JobState.RUNNING
                or current.lease_token != lease_token
            ):
                verdict[0] = HeartbeatVerdict.LEASE_LOST
                return None
            if current.cancel_requested:
                verdict[0] = HeartbeatVerdict.CANCELLED
                return None
            if current.job_deadline_exceeded(now):
                verdict[0] = HeartbeatVerdict.JOB_DEADLINE
                return current.transition(
                    JobState.FAILED,
                    worker=None,
                    lease_token=None,
                    lease_expires_at=None,
                    **current.chain_error(
                        f"job deadline of {current.deadline_s}s exceeded "
                        f"at attempt {current.attempts}"
                    ),
                )
            if current.attempt_deadline_exceeded(now):
                verdict[0] = HeartbeatVerdict.ATTEMPT_DEADLINE
                changes = current.chain_error(
                    f"attempt {current.attempts} exceeded its "
                    f"{current.attempt_deadline_s}s deadline"
                )
                if current.attempts < current.max_attempts:
                    requeued.append(True)
                    return current.transition(
                        JobState.QUEUED,
                        worker=None,
                        lease_token=None,
                        lease_expires_at=None,
                        attempt_started_at=None,
                        **changes,
                    )
                return current.transition(
                    JobState.QUARANTINED,
                    worker=None,
                    lease_token=None,
                    lease_expires_at=None,
                    **changes,
                )
            verdict[0] = HeartbeatVerdict.CONTINUE
            return replace(
                current, lease_expires_at=now + self.lease_duration_s
            )

        try:
            settled = self.store.update(job_id, mutate)
        except JobNotFound:
            self.count("lease_lost")
            return HeartbeatVerdict.LEASE_LOST

        outcome = verdict[0]
        if outcome is HeartbeatVerdict.CONTINUE:
            self.count("lease_renewed")
        elif outcome is HeartbeatVerdict.LEASE_LOST:
            self.count("lease_lost")
        elif outcome is HeartbeatVerdict.JOB_DEADLINE:
            self.count("job_deadline_exceeded")
            self._drop_checkpoints(job_id)
        elif outcome is HeartbeatVerdict.ATTEMPT_DEADLINE:
            self.count("job_deadline_attempt_exceeded")
            if requeued:
                self.queue.push(job_id)
            elif settled is not None and settled.state is JobState.QUARANTINED:
                self.count("job_quarantined")
                self._drop_checkpoints(job_id)
        return outcome

    def complete(
        self,
        record: JobRecord,
        document: str,
        metrics: Dict[str, object],
    ) -> Optional[JobRecord]:
        """Record a finished scan: publish the result, settle the state.

        A cancel that arrived while the scan ran wins — the job lands
        ``cancelled`` and the report is discarded.  A worker whose lease
        was reaped mid-scan settles **nothing**: the guarded RMW sees
        the stale token (or a non-running state) and returns ``None``,
        so a reaped-and-re-claimed job is never double-settled.
        """

        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if (
                current.state is not JobState.RUNNING
                or current.lease_token != record.lease_token
            ):
                return None  # lease reaped/re-claimed: outcome discarded
            cleared = {
                "worker": None,
                "lease_token": None,
                "lease_expires_at": None,
            }
            if current.cancel_requested:
                return current.transition(JobState.CANCELLED, **cleared)
            return current.transition(JobState.SUCCEEDED, **cleared)

        settled = self.store.update(record.job_id, mutate)
        if settled is None:
            self.count("lease_lost")
            return None
        if settled.state is JobState.SUCCEEDED:
            self.results.put(
                StoredResult(
                    job_id=record.job_id, document=document, metrics=metrics
                )
            )
            self._absorb_scan_metrics(metrics)
            self.count("job_succeeded")
        else:
            self.count("job_cancelled")
        self._drop_checkpoints(record.job_id)
        return settled

    def fail(
        self, record: JobRecord, error: BaseException
    ) -> Optional[JobRecord]:
        """Record a dead attempt: requeue while attempts remain, else fail.

        The requeue edge is what makes preemption cheap — the job's
        checkpoint directory survives, so the next claim resumes the
        scan instead of repeating completed chunks.  Like
        :meth:`complete`, the settle is lease-guarded: a stale token
        settles nothing (``None``).
        """

        message = f"{type(error).__name__}: {error}"

        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if (
                current.state is not JobState.RUNNING
                or current.lease_token != record.lease_token
            ):
                return None
            cleared = {
                "worker": None,
                "lease_token": None,
                "lease_expires_at": None,
            }
            changes = current.chain_error(message)
            if current.cancel_requested:
                return current.transition(
                    JobState.CANCELLED, **cleared, **changes
                )
            if current.attempts < current.max_attempts:
                return current.transition(
                    JobState.QUEUED,
                    attempt_started_at=None,
                    **cleared,
                    **changes,
                )
            return current.transition(JobState.FAILED, **cleared, **changes)

        settled = self.store.update(record.job_id, mutate)
        if settled is None:
            self.count("lease_lost")
            return None
        if settled.state is JobState.QUEUED:
            self.queue.push(settled.job_id)
            self.count("job_requeued")
        elif settled.state is JobState.FAILED:
            self.count("job_failed")
            self._drop_checkpoints(record.job_id)
        else:
            self.count("job_cancelled")
            self._drop_checkpoints(record.job_id)
        return settled

    def release(self, record: JobRecord) -> Optional[JobRecord]:
        """Hand a running job back to the queue without burning an attempt.

        The drain path: the worker aborted cooperatively (checkpoint on
        disk), so the attempt is *refunded* and the job rejoins the
        queue for the next fleet.  Lease-guarded like every settle.
        """

        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if (
                current.state is not JobState.RUNNING
                or current.lease_token != record.lease_token
            ):
                return None
            return current.transition(
                JobState.QUEUED,
                attempts=max(0, current.attempts - 1),
                worker=None,
                lease_token=None,
                lease_expires_at=None,
                attempt_started_at=None,
            )

        settled = self.store.update(record.job_id, mutate)
        if settled is None:
            self.count("lease_lost")
            return None
        self.queue.push(settled.job_id)
        self.count("job_drained")
        return settled

    def is_cancel_requested(self, job_id: str) -> bool:
        record = self.store.get(job_id)
        return record is not None and record.cancel_requested

    # ------------------------------------------------------------------
    # lease reaping / operator seams
    # ------------------------------------------------------------------
    def reap(self, now: Optional[float] = None) -> int:
        """Sweep expired leases and spent queued deadlines; settled count.

        Jobs found ``running`` past their lease are requeued (attempts
        remaining) or quarantined (exhausted — the poison-job edge);
        jobs still ``queued`` past their whole-job deadline fail.  Every
        settle is one guarded RMW re-checking expiry under the store
        lock, so a job that completes as its lease expires is settled by
        exactly one side.
        """
        if now is None:
            now = self._clock()
        settled = 0
        for snapshot in self.store.list_records():
            if snapshot.lease_expired(now):
                settled += self._reap_one(snapshot.job_id, now)
            elif (
                snapshot.state is JobState.QUEUED
                and snapshot.job_deadline_exceeded(now)
            ):
                settled += self._expire_queued(snapshot.job_id, now)
        return settled

    def _reap_one(self, job_id: str, now: float) -> int:
        requeued = []

        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if not current.lease_expired(now):
                return None  # completed/renewed since the sweep snapshot
            changes = current.chain_error(
                f"lease expired at attempt {current.attempts} "
                f"(worker {current.worker!r} presumed dead)"
            )
            cleared = {
                "worker": None,
                "lease_token": None,
                "lease_expires_at": None,
            }
            if current.attempts < current.max_attempts:
                requeued.append(True)
                return current.transition(
                    JobState.QUEUED,
                    attempt_started_at=None,
                    **cleared,
                    **changes,
                )
            return current.transition(
                JobState.QUARANTINED, **cleared, **changes
            )

        try:
            settled = self.store.update(job_id, mutate)
        except JobNotFound:
            return 0
        if settled is None:
            return 0
        if requeued:
            self.queue.push(job_id)
            self.count("lease_reaped")
        else:
            self.count("job_quarantined")
            self._drop_checkpoints(job_id)
        return 1

    def _expire_queued(self, job_id: str, now: float) -> int:
        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if (
                current.state is not JobState.QUEUED
                or not current.job_deadline_exceeded(now)
            ):
                return None
            return current.transition(
                JobState.FAILED,
                **current.chain_error(
                    f"job deadline of {current.deadline_s}s exceeded "
                    "while queued"
                ),
            )

        try:
            settled = self.store.update(job_id, mutate)
        except JobNotFound:
            return 0
        if settled is None:
            return 0
        self.count("job_deadline_exceeded")
        self._drop_checkpoints(job_id)
        return 1

    def start_reaper(
        self, interval_s: Optional[float] = None
    ) -> LeaseReaper:
        """Start (or return) this manager's :class:`LeaseReaper` thread."""
        with self._lock:
            if self._reaper is None or not self._reaper.running:
                self._reaper = LeaseReaper(self, interval_s=interval_s)
                self._reaper.start()
            return self._reaper

    def stop_reaper(self) -> None:
        with self._lock:
            reaper = self._reaper
            self._reaper = None
        if reaper is not None:
            reaper.stop()

    def break_lease(self, job_id: str) -> bool:
        """Operator/chaos seam: void a running job's lease *now*.

        The current worker's next heartbeat observes ``LEASE_LOST`` and
        aborts without settling; the next :meth:`reap` sweep requeues
        the job.  True when a running lease was actually broken.
        """
        now = self._clock()

        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if current.state is not JobState.RUNNING:
                return None
            return replace(
                current, lease_token=new_lease_token(), lease_expires_at=now
            )

        try:
            return self.store.update(job_id, mutate) is not None
        except JobNotFound:
            return False

    def expire_attempt_deadline(self, job_id: str) -> bool:
        """Operator/chaos seam: spend a running attempt's budget *now*.

        The worker's next heartbeat observes ``ATTEMPT_DEADLINE`` and
        the job requeues (or quarantines, attempts exhausted) through
        the ordinary deadline machinery.
        """
        now = self._clock()

        def mutate(current: JobRecord) -> Optional[JobRecord]:
            if current.state is not JobState.RUNNING:
                return None
            return replace(
                current,
                attempt_deadline_s=self.lease_duration_s,
                attempt_started_at=now - 2 * self.lease_duration_s,
            )

        try:
            return self.store.update(job_id, mutate) is not None
        except JobNotFound:
            return False

    # ------------------------------------------------------------------
    # restart recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Rebuild the queue from the store after a process restart.

        Returns the number of jobs re-enqueued.  Jobs persisted as
        ``running`` belonged to a fleet that died mid-scan; they move
        back to ``queued`` (their checkpoints intact, leases cleared)
        and count as ``job_recovered``.  The durable queue's stale
        entries are discarded first, so every replayed job is enqueued
        exactly once.
        """
        self.queue.clear()
        replayed = 0
        for record in self.store.list_records():
            if record.state is JobState.RUNNING:
                self.store.update(
                    record.job_id,
                    lambda current: current.transition(
                        JobState.QUEUED,
                        worker=None,
                        lease_token=None,
                        lease_expires_at=None,
                        attempt_started_at=None,
                    )
                    if current.state is JobState.RUNNING
                    else None,
                )
                self.count("job_recovered")
                self.queue.push(record.job_id)
                replayed += 1
            elif record.state is JobState.QUEUED:
                self.queue.push(record.job_id)
                replayed += 1
        return replayed

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def checkpoint_dir_for(self, job_id: str) -> Optional[Path]:
        """The per-job scan checkpoint directory (None when disabled)."""
        if self.checkpoint_root is None:
            return None
        return self.checkpoint_root / job_id

    def _drop_checkpoints(self, job_id: str) -> None:
        ckpt = self.checkpoint_dir_for(job_id)
        if ckpt is not None and ckpt.exists():
            shutil.rmtree(ckpt, ignore_errors=True)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def jobs_by_state(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        for record in self.store.list_records():
            counts[record.state.value] += 1
        return counts

    def list_jobs(self) -> List[JobRecord]:
        return self.store.list_records()

    def queue_depth(self) -> int:
        return len(self.queue)
