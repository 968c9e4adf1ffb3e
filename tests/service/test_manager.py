"""JobManager lifecycle: claims, cancels, retries, recovery, metrics."""

import random
import threading
import time

import pytest

from repro.runtime import BASELINE_COUNTERS, SERVICE_COUNTERS
from repro.service import (
    FileJobQueue,
    FileJobStore,
    FileResultStore,
    HeartbeatVerdict,
    InMemoryJobQueue,
    InMemoryJobStore,
    InMemoryResultStore,
    JobManager,
    JobNotFound,
    JobState,
    QueueFull,
    RateLimited,
    ServiceDraining,
    TokenBucketRateLimiter,
    WireError,
)


class FakeClock:
    """Manual wall clock so lease/deadline expiry is deterministic."""

    def __init__(self) -> None:
        # anchored to real time: JobRecord.created_at is stamped with
        # time.time(), and the job-deadline check compares against it
        self.now = time.time()

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def clocked_manager(**kwargs):
    clock = FakeClock()
    return JobManager.in_memory(clock=clock, **kwargs), clock


class TestSubmit:
    def test_submit_persists_and_enqueues(self, manager, request_payload):
        record = manager.submit(request_payload)
        assert manager.status(record.job_id).state is JobState.QUEUED
        assert manager.queue_depth() == 1
        assert manager.telemetry.counters["job_submitted"] == 1

    def test_submit_validates(self, manager):
        with pytest.raises(WireError):
            manager.submit({"schema": 99})
        assert manager.queue_depth() == 0

    def test_rate_limited_submit_refused(self, request_payload):
        limiter = TokenBucketRateLimiter(rate=1.0, burst=1, clock=lambda: 0.0)
        manager = JobManager(
            InMemoryJobStore(),
            InMemoryJobQueue(),
            InMemoryResultStore(),
            rate_limiter=limiter,
        )
        manager.submit(request_payload, client="c")
        with pytest.raises(RateLimited):
            manager.submit(request_payload, client="c")
        assert manager.telemetry.counters["service_rate_limited"] == 1
        # other clients unaffected
        manager.submit(request_payload, client="other")

    def test_status_unknown_raises(self, manager):
        with pytest.raises(JobNotFound):
            manager.status("nope")


class TestClaim:
    def test_claim_transitions_and_counts_attempts(
        self, manager, request_payload
    ):
        record = manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        assert claimed.job_id == record.job_id
        assert claimed.state is JobState.RUNNING
        assert claimed.attempts == 1
        assert claimed.worker == "w0"

    def test_claim_empty_queue_times_out(self, manager):
        assert manager.claim("w0", timeout=0.01) is None

    def test_stale_queue_entry_skipped(self, manager, request_payload):
        record = manager.submit(request_payload)
        manager.cancel(record.job_id)  # QUEUED -> CANCELLED; entry now stale
        assert manager.claim("w0", timeout=0.05) is None

    def test_each_job_claimed_exactly_once(self, manager, request_payload):
        n = 20
        for _ in range(n):
            manager.submit(request_payload)
        claimed, lock = [], threading.Lock()

        def worker(name):
            while True:
                record = manager.claim(name, timeout=0.05)
                if record is None:
                    return
                with lock:
                    claimed.append(record.job_id)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == n
        assert len(set(claimed)) == n  # no double execution


class TestCompleteAndFail:
    def test_complete_publishes_result(self, manager, request_payload):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        manager.complete(claimed, '{"ok": 1}', {"counters": {"scored": 5}})
        final = manager.status(claimed.job_id)
        assert final.state is JobState.SUCCEEDED
        assert manager.result(claimed.job_id).document == '{"ok": 1}'
        assert manager.scan_aggregate()["scored"] == 5

    def test_fail_requeues_while_attempts_remain(
        self, manager, request_payload
    ):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        settled = manager.fail(claimed, RuntimeError("boom"))
        assert settled.state is JobState.QUEUED
        assert "boom" in settled.error
        assert manager.queue_depth() == 1
        assert manager.telemetry.counters["job_requeued"] == 1

    def test_fail_exhausts_to_failed(self, manager, request_payload):
        manager.submit(request_payload)
        for attempt in range(manager.max_attempts):
            claimed = manager.claim("w0", timeout=0.1)
            assert claimed.attempts == attempt + 1
            settled = manager.fail(claimed, RuntimeError(f"try {attempt}"))
        assert settled.state is JobState.FAILED
        assert manager.claim("w0", timeout=0.05) is None
        assert manager.telemetry.counters["job_failed"] == 1
        with pytest.raises(JobNotFound):
            manager.result(settled.job_id)

    def test_retry_counter(self, manager, request_payload):
        manager.submit(request_payload)
        manager.fail(manager.claim("w0", timeout=0.1), RuntimeError("x"))
        manager.claim("w0", timeout=0.1)
        assert manager.telemetry.counters["job_retries"] == 1


class TestCancel:
    def test_cancel_queued_is_immediate(self, manager, request_payload):
        record = manager.submit(request_payload)
        cancelled = manager.cancel(record.job_id)
        assert cancelled.state is JobState.CANCELLED
        assert manager.telemetry.counters["job_cancelled"] == 1

    def test_cancel_running_is_cooperative(self, manager, request_payload):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        flagged = manager.cancel(claimed.job_id)
        assert flagged.state is JobState.RUNNING
        assert flagged.cancel_requested
        assert manager.is_cancel_requested(claimed.job_id)

    def test_cancelled_running_job_lands_cancelled_not_succeeded(
        self, manager, request_payload
    ):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        manager.cancel(claimed.job_id)
        settled = manager.complete(claimed, "{}", {})
        assert settled.state is JobState.CANCELLED
        with pytest.raises(JobNotFound):
            manager.result(claimed.job_id)  # report discarded

    def test_cancelled_running_job_never_requeued(
        self, manager, request_payload
    ):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        manager.cancel(claimed.job_id)
        settled = manager.fail(claimed, RuntimeError("preempted"))
        assert settled.state is JobState.CANCELLED
        assert manager.queue_depth() == 0

    def test_cancel_terminal_is_noop(self, manager, request_payload):
        record = manager.submit(request_payload)
        manager.cancel(record.job_id)
        again = manager.cancel(record.job_id)
        assert again.state is JobState.CANCELLED
        assert manager.telemetry.counters["job_cancelled"] == 1

    def test_concurrent_submit_cancel_races_settle_consistently(
        self, manager, request_payload
    ):
        """cancel vs claim racing on every job: exactly one side wins."""
        ids = [manager.submit(request_payload).job_id for _ in range(16)]
        done = []

        def canceller():
            for job_id in ids:
                done.append(manager.cancel(job_id).job_id)

        def worker():
            while True:
                record = manager.claim("w0", timeout=0.05)
                if record is None:
                    return
                manager.complete(record, "{}", {})

        threads = [
            threading.Thread(target=canceller),
            threading.Thread(target=worker),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        states = [manager.status(job_id).state for job_id in ids]
        assert all(
            s in (JobState.SUCCEEDED, JobState.CANCELLED) for s in states
        )
        # accounting matches outcomes exactly
        counters = manager.telemetry.counters
        assert counters.get("job_succeeded", 0) == states.count(
            JobState.SUCCEEDED
        )
        assert counters.get("job_cancelled", 0) == states.count(
            JobState.CANCELLED
        )


class TestDelete:
    def test_delete_terminal_removes_everything(
        self, manager, request_payload
    ):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        manager.complete(claimed, "{}", {})
        manager.delete(claimed.job_id)
        with pytest.raises(JobNotFound):
            manager.status(claimed.job_id)

    def test_delete_active_cancels_instead(self, manager, request_payload):
        record = manager.submit(request_payload)
        manager.delete(record.job_id)
        assert manager.status(record.job_id).state is JobState.CANCELLED


class TestRecovery:
    def make_file_manager(self, tmp_path) -> JobManager:
        return JobManager(
            FileJobStore(tmp_path),
            FileJobQueue(tmp_path),
            FileResultStore(tmp_path),
            checkpoint_root=tmp_path / "ckpt",
        )

    def test_manager_counts_quarantined_file_entries(
        self, tmp_path, request_payload
    ):
        """The hook needs no wiring: a library-built manager counts too."""
        manager = self.make_file_manager(tmp_path)
        record = manager.submit(request_payload)
        (tmp_path / "jobs" / f"{record.job_id}.json").write_text('{"sch')
        assert manager.list_jobs() == []
        assert manager.telemetry.counters["service_entry_quarantined"] == 1

    def test_recover_replays_queued_and_running_exactly_once(
        self, tmp_path, request_payload
    ):
        before = self.make_file_manager(tmp_path)
        queued = [before.submit(request_payload).job_id for _ in range(3)]
        crashed = before.claim("w0", timeout=0.1)  # dies mid-scan

        after = self.make_file_manager(tmp_path)  # process restart
        replayed = after.recover()
        assert replayed == 3  # 2 still queued + 1 recovered
        assert after.status(crashed.job_id).state is JobState.QUEUED
        assert after.telemetry.counters["job_recovered"] == 1
        # exactly once: drain the queue and claim each id a single time
        seen = []
        while True:
            record = after.claim("w1", timeout=0.05)
            if record is None:
                break
            seen.append(record.job_id)
        assert sorted(seen) == sorted(queued)

    def test_recover_discards_stale_duplicate_queue_entries(
        self, tmp_path, request_payload
    ):
        manager = self.make_file_manager(tmp_path)
        record = manager.submit(request_payload)
        manager.queue.push(record.job_id)  # crash artifact: duplicate entry
        assert manager.recover() == 1
        assert manager.queue_depth() == 1

    def test_recover_clears_stale_leases(self, tmp_path, request_payload):
        """An orphaned RUNNING job's lease belongs to a dead process;
        recovery must scrub it so the next claim mints a fresh one."""
        before = self.make_file_manager(tmp_path)
        before.submit(request_payload)
        orphan = before.claim("w0", timeout=0.1)
        assert orphan.lease_token is not None

        after = self.make_file_manager(tmp_path)
        after.recover()
        record = after.status(orphan.job_id)
        assert record.state is JobState.QUEUED
        assert record.lease_token is None
        assert record.lease_expires_at is None
        assert record.attempt_started_at is None
        reclaimed = after.claim("w1", timeout=0.1)
        assert reclaimed.lease_token not in (None, orphan.lease_token)

    def test_recovered_job_keeps_checkpoints(self, tmp_path, request_payload):
        manager = self.make_file_manager(tmp_path)
        record = manager.submit(request_payload)
        ckpt = manager.checkpoint_dir_for(record.job_id)
        ckpt.mkdir(parents=True)
        (ckpt / "scan-checkpoint.npz").write_bytes(b"state")
        manager.claim("w0", timeout=0.1)
        manager.recover()
        assert (ckpt / "scan-checkpoint.npz").exists()  # resume material


class TestLeases:
    def test_claim_grants_lease(self, request_payload):
        manager, clock = clocked_manager(lease_duration_s=30.0)
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        assert claimed.lease_token
        assert claimed.lease_expires_at == pytest.approx(clock.now + 30.0)
        assert claimed.attempt_started_at == pytest.approx(clock.now)

    def test_heartbeat_renews_lease(self, request_payload):
        manager, clock = clocked_manager(lease_duration_s=30.0)
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        clock.advance(20.0)
        verdict = manager.heartbeat(claimed.job_id, claimed.lease_token)
        assert verdict is HeartbeatVerdict.CONTINUE
        renewed = manager.status(claimed.job_id)
        assert renewed.lease_expires_at == pytest.approx(clock.now + 30.0)
        assert manager.telemetry.counters["lease_renewed"] == 1

    def test_heartbeat_with_stale_token_is_lease_lost(
        self, manager, request_payload
    ):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        verdict = manager.heartbeat(claimed.job_id, "not-the-token")
        assert verdict is HeartbeatVerdict.LEASE_LOST
        assert manager.telemetry.counters["lease_lost"] == 1
        # the real owner is unaffected
        assert (
            manager.heartbeat(claimed.job_id, claimed.lease_token)
            is HeartbeatVerdict.CONTINUE
        )

    def test_heartbeat_unknown_job_is_lease_lost(self, manager):
        assert (
            manager.heartbeat("ghost", "tok") is HeartbeatVerdict.LEASE_LOST
        )

    def test_heartbeat_observes_cancel(self, manager, request_payload):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        manager.cancel(claimed.job_id)
        assert (
            manager.heartbeat(claimed.job_id, claimed.lease_token)
            is HeartbeatVerdict.CANCELLED
        )

    def test_break_lease_voids_ownership(self, manager, request_payload):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        assert manager.break_lease(claimed.job_id)
        assert (
            manager.heartbeat(claimed.job_id, claimed.lease_token)
            is HeartbeatVerdict.LEASE_LOST
        )

    def test_complete_with_reaped_lease_settles_nothing(
        self, request_payload
    ):
        """The fencing token: a worker finishing after its lease was
        reaped (and the job re-claimed) must not double-settle."""
        manager, clock = clocked_manager(lease_duration_s=1.0)
        manager.submit(request_payload)
        first = manager.claim("w0", timeout=0.1)
        clock.advance(2.0)
        assert manager.reap() == 1  # requeued
        second = manager.claim("w1", timeout=0.1)
        assert second.lease_token != first.lease_token
        # the presumed-dead worker wakes up and tries to finish
        assert manager.complete(first, '{"stale": 1}', {}) is None
        with pytest.raises(JobNotFound):
            manager.result(first.job_id)  # stale report discarded
        assert manager.status(first.job_id).state is JobState.RUNNING
        # the live claim settles normally
        settled = manager.complete(second, '{"fresh": 1}', {})
        assert settled.state is JobState.SUCCEEDED
        assert manager.result(first.job_id).document == '{"fresh": 1}'
        assert manager.telemetry.counters["job_succeeded"] == 1

    def test_fail_with_reaped_lease_settles_nothing(self, request_payload):
        manager, clock = clocked_manager(lease_duration_s=1.0)
        manager.submit(request_payload)
        first = manager.claim("w0", timeout=0.1)
        clock.advance(2.0)
        manager.reap()
        assert manager.fail(first, RuntimeError("stale")) is None
        record = manager.status(first.job_id)
        assert record.state is JobState.QUEUED
        assert "stale" not in (record.error or "")


class TestReaper:
    def test_reap_requeues_expired_lease(self, request_payload):
        manager, clock = clocked_manager(lease_duration_s=1.0)
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        assert manager.reap() == 0  # lease still live
        clock.advance(2.0)
        assert manager.reap() == 1
        record = manager.status(claimed.job_id)
        assert record.state is JobState.QUEUED
        assert "lease expired" in record.error
        assert record.lease_token is None and record.worker is None
        assert manager.telemetry.counters["lease_reaped"] == 1
        retried = manager.claim("w1", timeout=0.1)
        assert retried.attempts == 2

    def test_reap_quarantines_exhausted_job(self, request_payload):
        manager, clock = clocked_manager(
            lease_duration_s=1.0, max_attempts=2
        )
        manager.submit(request_payload)
        for _ in range(2):
            assert manager.claim("w0", timeout=0.1) is not None
            clock.advance(2.0)
            assert manager.reap() == 1
        record = manager.list_jobs()[0]
        assert record.state is JobState.QUARANTINED
        assert len(record.error_chain) == 2
        assert all("lease expired" in e for e in record.error_chain)
        assert manager.telemetry.counters["job_quarantined"] == 1
        assert manager.telemetry.counters["lease_reaped"] == 1
        assert manager.claim("w0", timeout=0.05) is None  # parked for good

    def test_reaper_thread_reclaims_without_restart(self, request_payload):
        """A live fleet's reaper requeues a dead worker's job on its own."""
        manager = JobManager.in_memory(lease_duration_s=0.1)
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        manager.start_reaper(interval_s=0.05)
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if manager.status(claimed.job_id).state is JobState.QUEUED:
                    break
                time.sleep(0.02)
            assert manager.status(claimed.job_id).state is JobState.QUEUED
        finally:
            manager.stop_reaper()

    def test_reap_vs_complete_hammer_single_settle(self, request_payload):
        """Aggressive reaping under a worker pool: every job settles
        exactly once even when leases expire as scans finish."""
        manager = JobManager.in_memory(
            lease_duration_s=0.02, max_attempts=1000
        )
        n = 24
        ids = [manager.submit(request_payload).job_id for _ in range(n)]
        stop = threading.Event()

        def reaper_loop():
            while not stop.is_set():
                manager.reap()

        def worker(name, rng):
            while True:
                record = manager.claim(name, timeout=0.05)
                if record is None:
                    if all(
                        manager.status(j).state is JobState.SUCCEEDED
                        for j in ids
                    ):
                        return
                    continue
                # sometimes outlive the lease before settling
                time.sleep(rng.uniform(0.0, 0.04))
                manager.complete(record, "{}", {})

        threads = [
            threading.Thread(target=worker, args=(f"w{i}", random.Random(i)))
            for i in range(4)
        ] + [threading.Thread(target=reaper_loop)]
        for t in threads:
            t.start()
        for t in threads[:-1]:
            t.join(timeout=60.0)
        stop.set()
        threads[-1].join(timeout=5.0)
        states = [manager.status(j).state for j in ids]
        assert states == [JobState.SUCCEEDED] * n
        # the invariant: one successful settle per job, no doubles, even
        # though reaps requeued some completions' jobs mid-flight
        assert manager.telemetry.counters["job_succeeded"] == n


class TestDeadlines:
    def test_request_budget_lands_on_record(self, manager, request_payload):
        payload = dict(request_payload)
        payload["deadline_s"] = 60.0
        payload["attempt_deadline_s"] = 10.0
        record = manager.submit(payload)
        assert record.deadline_s == 60.0
        assert record.attempt_deadline_s == 10.0

    def test_manager_defaults_apply(self, request_payload):
        manager, _clock = clocked_manager(
            default_deadline_s=120.0, default_attempt_deadline_s=15.0
        )
        record = manager.submit(request_payload)
        assert record.deadline_s == 120.0
        assert record.attempt_deadline_s == 15.0

    def test_job_deadline_fails_at_heartbeat(self, request_payload):
        manager, clock = clocked_manager(default_deadline_s=5.0)
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        clock.advance(6.0)
        verdict = manager.heartbeat(claimed.job_id, claimed.lease_token)
        assert verdict is HeartbeatVerdict.JOB_DEADLINE
        record = manager.status(claimed.job_id)
        assert record.state is JobState.FAILED
        assert "job deadline" in record.error
        assert manager.telemetry.counters["job_deadline_exceeded"] == 1

    def test_attempt_deadline_requeues_then_quarantines(
        self, request_payload
    ):
        manager, clock = clocked_manager(
            default_attempt_deadline_s=5.0,
            lease_duration_s=100.0,
            max_attempts=2,
        )
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        clock.advance(6.0)
        verdict = manager.heartbeat(claimed.job_id, claimed.lease_token)
        assert verdict is HeartbeatVerdict.ATTEMPT_DEADLINE
        assert manager.status(claimed.job_id).state is JobState.QUEUED
        # second (final) attempt spends its budget too -> quarantine
        again = manager.claim("w0", timeout=0.1)
        assert again.attempts == 2
        clock.advance(6.0)
        verdict = manager.heartbeat(again.job_id, again.lease_token)
        assert verdict is HeartbeatVerdict.ATTEMPT_DEADLINE
        record = manager.status(again.job_id)
        assert record.state is JobState.QUARANTINED
        assert len(record.error_chain) == 2
        counters = manager.telemetry.counters
        assert counters["job_deadline_attempt_exceeded"] == 2
        assert counters["job_quarantined"] == 1

    def test_queued_job_past_deadline_fails_on_reap(self, request_payload):
        manager, clock = clocked_manager(default_deadline_s=5.0)
        record = manager.submit(request_payload)
        clock.advance(6.0)
        assert manager.reap() == 1
        failed = manager.status(record.job_id)
        assert failed.state is JobState.FAILED
        assert "while queued" in failed.error

    def test_expire_attempt_deadline_seam(self, manager, request_payload):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        assert manager.expire_attempt_deadline(claimed.job_id)
        verdict = manager.heartbeat(claimed.job_id, claimed.lease_token)
        assert verdict is HeartbeatVerdict.ATTEMPT_DEADLINE


class TestAdmissionControl:
    def test_queue_cap_sheds(self, request_payload):
        manager = JobManager.in_memory(max_queue_depth=2)
        manager.submit(request_payload)
        manager.submit(request_payload)
        with pytest.raises(QueueFull):
            manager.submit(request_payload)
        assert manager.telemetry.counters["job_shed"] == 1
        # a claim frees a slot; admission recovers
        manager.claim("w0", timeout=0.1)
        manager.submit(request_payload)

    def test_draining_sheds_and_reopens(self, manager, request_payload):
        manager.begin_drain()
        with pytest.raises(ServiceDraining):
            manager.submit(request_payload)
        assert manager.telemetry.counters["job_shed"] == 1
        manager.end_drain()
        manager.submit(request_payload)


class TestRelease:
    def test_release_refunds_attempt(self, manager, request_payload):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        assert claimed.attempts == 1
        released = manager.release(claimed)
        assert released.state is JobState.QUEUED
        assert released.attempts == 0  # drain must not burn the budget
        assert released.lease_token is None
        assert manager.telemetry.counters["job_drained"] == 1
        reclaimed = manager.claim("w1", timeout=0.1)
        assert reclaimed.attempts == 1

    def test_release_with_stale_token_is_refused(
        self, manager, request_payload
    ):
        manager.submit(request_payload)
        claimed = manager.claim("w0", timeout=0.1)
        manager.break_lease(claimed.job_id)
        assert manager.release(claimed) is None
        assert manager.status(claimed.job_id).state is JobState.RUNNING


class TestServiceCounters:
    def test_service_counters_are_zero_seeded_in_baseline(self):
        assert set(SERVICE_COUNTERS) <= set(BASELINE_COUNTERS)

    def test_job_interrupt_fault_counter_seeded(self):
        assert "fault_job_interrupt" in BASELINE_COUNTERS

    def test_resilience_fault_counters_seeded(self):
        for name in (
            "fault_worker_crash",
            "fault_lease_lost",
            "fault_deadline_exceeded",
        ):
            assert name in BASELINE_COUNTERS, name
