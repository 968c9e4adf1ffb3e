"""WorkerFleet: N scan workers draining the job queue through the engine.

Each worker is one daemon thread looping claim → scan → settle:

* **claim** — :meth:`JobManager.claim` pops the queue and atomically
  flips the record ``queued → running`` under a fresh lease (stale
  entries skip silently),
* **scan** — the validated request is decoded back to engine-native
  objects and run through a fresh :class:`~repro.runtime.ScanEngine`
  built over this worker's private detector copy (detectors mutate
  per-scan state — cascade tallies, tracer handles — so sharing one
  across threads would corrupt both scans),
* **settle** — success publishes the verbatim ``ScanReport.to_json()``
  document plus its metrics snapshot to the result store; any failure
  funnels through :meth:`JobManager.fail`, which requeues while
  attempts remain.  Both settles are lease-guarded: a worker whose
  lease was reaped mid-scan settles nothing.

Everything cooperative rides the engine's progress heartbeats, which
are delivered synchronously and propagate their exceptions out of
``scan``.  The fleet's per-job hook renews the job's lease through
:meth:`JobManager.heartbeat` on every beat and turns the verdict into
control flow: ``CANCELLED`` raises :class:`JobCancelled` (settles
cancelled), ``LEASE_LOST`` raises :class:`LeaseLost` and the spent
deadlines raise :class:`JobDeadlineExceeded` (both abort *without*
settling — the manager already owns the outcome), and a drain in
progress raises :class:`JobDrained`, which hands the job back to the
queue with its attempt refunded and its checkpoint intact.

Because every job scans with its own checkpoint directory, the *next*
claim of a preempted/drained/reaped job runs with ``resume=True`` and
replays only the unscanned remainder — the canonical report is
byte-identical to an uninterrupted run.

Fault injection: a fleet-level :class:`~repro.runtime.FaultInjector`
is consulted once per claim for each fleet point —

* ``job_interrupt`` — preempt the attempt (bounded retry + resume),
* ``worker_crash`` — the worker abandons the job *without settling*,
  exactly like a process death: the lease stops renewing and a live
  fleet's :class:`~repro.service.manager.LeaseReaper` reclaims it,
* ``lease_lost`` — the job's lease is voided mid-scan (simulating a
  reap-and-reclaim); the next heartbeat observes ``LEASE_LOST``,
* ``deadline_exceeded`` — the attempt's deadline is spent mid-scan;
  the next heartbeat requeues/quarantines through the deadline path.

Each firing point is also counted (``fault_<point>``), which is what
the CI chaos gate asserts on.
"""

from __future__ import annotations

import copy
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..geometry import region_fingerprint
from ..runtime import (
    FaultInjector,
    ScanEngine,
    ScanReport,
    ShardPlan,
    ShardPlanner,
    ShardRunner,
    merge_reports,
    scan_chip,
    metrics_snapshot,
)
from .jobs import JobRecord, JobState
from .manager import HeartbeatVerdict, JobManager
from .wire import build_engine_config, decode_layer, decode_region


class JobInterrupted(RuntimeError):
    """An injected mid-scan preemption (the ``job_interrupt`` point)."""


class JobCancelled(RuntimeError):
    """The job's cancel flag was observed at a heartbeat."""


class JobDrained(RuntimeError):
    """A drain began mid-scan; the attempt checkpoints and requeues."""


class WorkerCrashed(RuntimeError):
    """Injected worker death: abandon the job without settling it."""


class LeaseLost(RuntimeError):
    """A heartbeat found the lease reaped/re-claimed; abort, no settle."""


class JobDeadlineExceeded(RuntimeError):
    """A heartbeat spent the job/attempt deadline; the manager settled."""


#: fleet-level injection points, in firing priority per claim
_FLEET_FAULT_POINTS = (
    "worker_crash",
    "job_interrupt",
    "lease_lost",
    "deadline_exceeded",
)


class WorkerFleet:
    """N worker threads executing jobs from a :class:`JobManager`.

    Parameters
    ----------
    manager:
        The job lifecycle authority this fleet drains.
    detector:
        Prototype detector; each worker scans with its own deep copy.
    workers:
        Number of concurrent scan threads.
    faults:
        Optional :class:`~repro.runtime.FaultInjector` (or spec string)
        consulted once per claim at each fleet point (see the module
        docstring); a firing point takes effect after
        ``interrupt_after_events`` scoring heartbeats.
    interrupt_after_events:
        *Scoring* heartbeats (``event.scored > 0``) a fault-marked job
        survives before its point fires.  Counting only scoring beats —
        not the beats a dedup scan emits while cutting chunks before its
        first batch — guarantees scored chunks, and therefore
        checkpoints, exist by the time the fault fires, so the retry
        genuinely resumes.
    heartbeat_every_chunks:
        Chunks between progress heartbeats (bounds cancel/drain latency
        and sets the lease-renewal cadence).
    poll_timeout_s:
        Queue-poll period; also bounds how fast :meth:`stop` lands.
    """

    def __init__(
        self,
        manager: JobManager,
        detector,
        workers: int = 1,
        *,
        faults: Union[FaultInjector, str, None] = None,
        interrupt_after_events: int = 2,
        heartbeat_every_chunks: int = 1,
        poll_timeout_s: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if interrupt_after_events < 1:
            raise ValueError("interrupt_after_events must be >= 1")
        self.manager = manager
        self.detector = detector
        self.workers = workers
        self.faults = (
            FaultInjector(faults) if isinstance(faults, str) else faults
        )
        self.interrupt_after_events = interrupt_after_events
        self.heartbeat_every_chunks = heartbeat_every_chunks
        self.poll_timeout_s = poll_timeout_s
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = threading.Event()
        # fires() mutates injector counters; claims race from N threads
        self._fault_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerFleet":
        """Recover persisted state, start the lease reaper, then launch
        the worker threads."""
        if self._threads:
            raise RuntimeError("fleet already started")
        self._stop.clear()
        self._draining.clear()
        self.manager.recover()
        self.manager.start_reaper()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(f"worker-{i}",),
                name=f"repro-scan-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Ask the workers to finish their current job and exit."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        self.manager.stop_reaper()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful shutdown: stop admission, requeue in-flight work.

        :meth:`JobManager.begin_drain` closes the front door (submits
        shed with 503); each in-flight attempt observes the drain at its
        next heartbeat, checkpoints implicitly (checkpoints are written
        per chunk), and is :meth:`released <JobManager.release>` back to
        the queue with its attempt refunded — so the fleet that picks it
        up after the restart *resumes* the scan and serves a result
        byte-identical to an uninterrupted run.  Zero accepted jobs are
        lost.  Returns True when every worker exited within ``timeout``.
        """
        self.manager.begin_drain()
        self._draining.set()
        clean = True
        for thread in self._threads:
            thread.join(timeout)
            clean = clean and not thread.is_alive()
        self._threads = []
        self.manager.stop_reaper()
        return clean

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no job is queued or running (True) or timeout."""
        deadline = threading.Event()
        poll = min(self.poll_timeout_s, 0.05)
        waited = 0.0
        while waited <= timeout:
            counts = self.manager.jobs_by_state()
            if (
                counts["queued"] == 0
                and counts["running"] == 0
                and self.manager.queue_depth() == 0
            ):
                return True
            deadline.wait(poll)
            waited += poll
        return False

    # ------------------------------------------------------------------
    # the worker loop
    # ------------------------------------------------------------------
    def _worker_loop(self, worker_name: str) -> None:
        detector = copy.deepcopy(self.detector)
        while not (self._stop.is_set() or self._draining.is_set()):
            record = self.manager.claim(worker_name, self.poll_timeout_s)
            if record is None:
                continue
            self._run_job(record, detector)

    def _armed_faults(self) -> Dict[str, bool]:
        """Consume each fleet injection point once for this claim."""
        armed: Dict[str, bool] = {}
        if self.faults is None:
            return armed
        with self._fault_lock:
            for point in _FLEET_FAULT_POINTS:
                if self.faults.fires(point):
                    armed[point] = True
        return armed

    def _run_job(self, record: JobRecord, detector) -> None:
        try:
            document, metrics = self._execute(record, detector)
        except JobDrained:
            # cooperative drain: checkpoint is on disk, attempt refunded
            self.manager.release(record)
            return
        except WorkerCrashed:
            # simulated process death: settle NOTHING — the lease just
            # stops renewing and the live fleet's reaper reclaims it
            return
        except (LeaseLost, JobDeadlineExceeded):
            # the manager settled (or re-owned) the record inside the
            # heartbeat; this attempt's outcome is void
            return
        except Exception as exc:  # lint: disable=broad-except  (every job failure — injected preemption, cancel, or a genuine scan error — must settle the record instead of killing the worker thread)
            self.manager.fail(record, exc)
            return
        self.manager.complete(record, document, metrics)

    def _execute(self, record: JobRecord, detector):
        request = record.request
        layer = decode_layer(request["layer"])
        region = decode_region(request)
        armed = self._armed_faults()
        if "worker_crash" in armed:
            self.manager.count("fault_worker_crash")
        if "job_interrupt" in armed:
            self.manager.count("fault_job_interrupt")
        if "lease_lost" in armed:
            self.manager.count("fault_lease_lost")
        if "deadline_exceeded" in armed:
            self.manager.count("fault_deadline_exceeded")
        fire_point = next(
            (p for p in _FLEET_FAULT_POINTS if p in armed), None
        )
        beats = [0]
        fired = [False]

        def on_heartbeat(event) -> None:
            if self.manager.draining:
                raise JobDrained(record.job_id)
            if event.scored > 0:
                beats[0] += 1
            if (
                fire_point is not None
                and not fired[0]
                and beats[0] >= self.interrupt_after_events
            ):
                fired[0] = True
                if fire_point == "worker_crash":
                    raise WorkerCrashed(
                        f"job {record.job_id}: worker death injected at "
                        f"scoring heartbeat {beats[0]}"
                    )
                if fire_point == "job_interrupt":
                    raise JobInterrupted(
                        f"job {record.job_id} preempted at scoring "
                        f"heartbeat {beats[0]} (injected)"
                    )
                if fire_point == "lease_lost":
                    # void the lease, then fall through: THIS beat's
                    # renewal observes LEASE_LOST
                    self.manager.break_lease(record.job_id)
                elif fire_point == "deadline_exceeded":
                    # spend the attempt budget, then fall through: THIS
                    # beat's renewal observes ATTEMPT_DEADLINE
                    self.manager.expire_attempt_deadline(record.job_id)
            verdict = self.manager.heartbeat(
                record.job_id, record.lease_token
            )
            if verdict is HeartbeatVerdict.CANCELLED:
                raise JobCancelled(record.job_id)
            if verdict is HeartbeatVerdict.LEASE_LOST:
                raise LeaseLost(record.job_id)
            if verdict in (
                HeartbeatVerdict.JOB_DEADLINE,
                HeartbeatVerdict.ATTEMPT_DEADLINE,
            ):
                raise JobDeadlineExceeded(record.job_id)

        shard = request.get("shard")
        chip = request.get("chip") or {}
        if shard is None and int(chip.get("shards", 1)) > 1 and self.workers > 1:
            # chip fan-out: this worker becomes the plan/merge
            # coordinator while the rest of the fleet drains the
            # per-shard child jobs it submits
            return self._execute_chip(record, layer, region)

        config = build_engine_config(
            request,
            checkpoint_dir=self.manager.checkpoint_dir_for(record.job_id),
            progress=on_heartbeat,
            progress_every_chunks=self.heartbeat_every_chunks,
        )
        ckpt_dir = config.checkpoint.dir
        # resume whenever a prior attempt left a checkpoint behind:
        # attempts > 1 covers failed/reaped retries, the on-disk
        # check covers drained attempts (whose attempt was refunded,
        # so the counter alone cannot tell); with nothing on disk
        # this scans from scratch either way
        resume = ckpt_dir is not None and (
            record.attempts > 1 or Path(ckpt_dir).exists()
        )
        if shard is not None:
            # one shard of a parent chip job: scan exactly the halo
            # region the plan assigned to this index
            plan = ShardPlan.from_json(shard["plan"])
            index = int(shard["index"])
            if not 0 <= index < len(plan.shards):
                raise ValueError(
                    f"shard index {index} out of range for plan "
                    f"{plan.digest} ({len(plan.shards)} shards)"
                )
            spec = plan.shards[index]
            engine = ScanEngine(detector, config=config)
            report = engine.scan(
                layer,
                spec.region,
                window_nm=plan.window_nm,
                core_nm=plan.core_nm,
                step_nm=plan.step_nm,
                resume=resume,
            )
            report.shard_id = spec.shard_id
            report.plan_digest = plan.digest
            return report.to_json(), metrics_snapshot(report)
        if chip:
            # inline chip scan (single-worker fleet, or shards=1):
            # scan_chip routes monolithic/sharded/instance-dedup through
            # the same plan-execute-merge path as the direct API
            report = scan_chip(
                layer,
                detector,
                config,
                region=region,
                window_nm=request["window_nm"],
                core_nm=request["core_nm"],
                step_nm=request["step_nm"],
                resume=resume,
            )
            return report.to_json(), metrics_snapshot(report)
        engine = ScanEngine(detector, config=config)
        report = engine.scan(
            layer,
            region,
            window_nm=request["window_nm"],
            core_nm=request["core_nm"],
            step_nm=request["step_nm"],
            resume=resume,
        )
        return report.to_json(), metrics_snapshot(report)

    # ------------------------------------------------------------------
    # chip fan-out
    # ------------------------------------------------------------------
    def _renew_lease(self, record: JobRecord) -> None:
        """Heartbeat a coordinator job while it waits on its children."""
        if self.manager.draining:
            raise JobDrained(record.job_id)
        verdict = self.manager.heartbeat(record.job_id, record.lease_token)
        if verdict is HeartbeatVerdict.CANCELLED:
            raise JobCancelled(record.job_id)
        if verdict is HeartbeatVerdict.LEASE_LOST:
            raise LeaseLost(record.job_id)
        if verdict in (
            HeartbeatVerdict.JOB_DEADLINE,
            HeartbeatVerdict.ATTEMPT_DEADLINE,
        ):
            raise JobDeadlineExceeded(record.job_id)

    def _execute_chip(self, record: JobRecord, layer, region):
        """Fan a chip job out into per-shard child jobs and merge.

        Child submission is idempotent on the parent job id, so a
        coordinator that was drained, reaped, or retried re-attaches to
        the children it already spawned instead of double-scanning.
        Shards whose halo region is an exact translated copy of another
        shard are not submitted at all — their scores are replayed from
        the canonical child at merge time (instance-level dedup).
        """
        request = record.request
        chip = request["chip"]
        t0 = time.perf_counter()
        planner = ShardPlanner(
            int(chip.get("shards", 1)),
            halo_nm=chip.get("halo_nm"),
            snap_nm=chip.get("snap_nm"),
        )
        plan = planner.plan(
            region,
            window_nm=request["window_nm"],
            core_nm=request["core_nm"],
            step_nm=request["step_nm"],
        )
        n_shards = len(plan.shards)

        # instance dedup: group congruent shards, scan one per class
        replay_of: Dict[int, int] = {}
        to_scan: List[int] = []
        if bool(chip.get("instance_dedup", True)):
            fps = [region_fingerprint(layer, s.region) for s in plan.shards]
            canon: Dict[tuple, int] = {}
            for i, spec in enumerate(plan.shards):
                key = (fps[i], spec.scan_w, spec.scan_h)
                if key in canon:
                    replay_of[i] = canon[key]
                else:
                    canon[key] = i
                    to_scan.append(i)
        else:
            to_scan = list(range(n_shards))

        # idempotent child submission keyed on (parent job id, index)
        existing: Dict[int, JobRecord] = {}
        for rec in self.manager.list_jobs():
            sh = rec.request.get("shard")
            if isinstance(sh, dict) and sh.get("parent") == record.job_id:
                existing[int(sh["index"])] = rec
        plan_doc = plan.to_json()
        children: Dict[int, str] = {}
        for i in to_scan:
            prior = existing.get(i)
            if prior is not None and prior.state not in (
                JobState.FAILED,
                JobState.CANCELLED,
                JobState.QUARANTINED,
            ):
                children[i] = prior.job_id
                continue
            spec = plan.shards[i]
            child = {
                "schema": request["schema"],
                "layer": request["layer"],
                "region": [
                    spec.region.x1,
                    spec.region.y1,
                    spec.region.x2,
                    spec.region.y2,
                ],
                "window_nm": request["window_nm"],
                "core_nm": request["core_nm"],
                "step_nm": request["step_nm"],
                "engine": dict(request.get("engine") or {}),
                "shard": {
                    "plan": plan_doc,
                    "index": i,
                    "parent": record.job_id,
                },
            }
            children[i] = self.manager.submit(
                child, client=f"chip:{record.job_id}"
            ).job_id
            self.manager.count("job_shards_spawned")

        # wait for the children, renewing this coordinator's lease
        poll = max(self.poll_timeout_s, 0.02)
        while True:
            self._renew_lease(record)
            pending = 0
            for i, job_id in children.items():
                state = self.manager.status(job_id).state
                if state is JobState.SUCCEEDED:
                    continue
                if state in (
                    JobState.FAILED,
                    JobState.CANCELLED,
                    JobState.QUARANTINED,
                ):
                    raise RuntimeError(
                        f"shard job {job_id} (index {i}) settled "
                        f"{state.value}; chip job cannot merge"
                    )
                pending += 1
            if pending == 0:
                break
            time.sleep(poll)

        reports: List[Optional[ScanReport]] = [None] * n_shards
        for i, job_id in children.items():
            reports[i] = ScanReport.from_json(
                self.manager.result(job_id).document
            )
        for i in sorted(replay_of):
            src = reports[replay_of[i]]
            assert src is not None
            reports[i] = ShardRunner.replay_report(plan, plan.shards[i], src)
        done = [r for r in reports if r is not None]
        merged = merge_reports(
            plan, done, layer=layer, elapsed_s=time.perf_counter() - t0
        )
        tele = merged.telemetry
        assert tele is not None
        tele.count("shard_scans", len(to_scan))
        tele.count(
            "shard_windows_scanned",
            sum(plan.shards[i].n_windows for i in to_scan),
        )
        tele.count("shard_replays", len(replay_of))
        tele.count(
            "shard_windows_replayed",
            sum(plan.shards[i].n_windows for i in replay_of),
        )
        self.manager.count("job_chip_merged")
        return merged.to_json(), metrics_snapshot(merged)
