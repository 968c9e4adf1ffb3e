"""WorkerFleet end-to-end: execution, preemption/resume, restart replay."""

import time

import numpy as np
import pytest

from repro.core.detector import Detector, FitReport
from repro.runtime import ScanEngine
from repro.service import (
    FileJobQueue,
    FileJobStore,
    FileResultStore,
    JobManager,
    JobState,
    WorkerFleet,
    canonical_report_json,
    encode_job_request,
)


class SlowDetector(Detector):  # lint: disable=raster-parity  (test double)
    """Sleeps per scored chunk so a scan stays cancellable mid-flight."""

    name = "slow"
    threshold = 0.5

    def __init__(self, delay_s: float = 0.05) -> None:
        self.delay_s = delay_s

    def fit(self, train, rng=None) -> FitReport:
        return FitReport()

    def predict_proba(self, clips):
        time.sleep(self.delay_s)
        return np.clip([4.0 * c.density() for c in clips], 0.0, 1.0)


class ExplodingDetector(Detector):  # lint: disable=raster-parity  (test double)
    name = "exploding"
    threshold = 0.5

    def fit(self, train, rng=None) -> FitReport:
        return FitReport()

    def predict_proba(self, clips):
        raise RuntimeError("detector meltdown")


def file_manager(tmp_path, **kwargs) -> JobManager:
    return JobManager(
        FileJobStore(tmp_path),
        FileJobQueue(tmp_path),
        FileResultStore(tmp_path),
        checkpoint_root=tmp_path / "ckpt",
        **kwargs,
    )


def wait_for(predicate, timeout_s=30.0, poll_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


class TestExecution:
    def test_served_scan_matches_direct_engine(
        self, manager, detector, layer, region, request_payload
    ):
        direct = ScanEngine(detector).scan(layer, region, keep_clips=False)
        with WorkerFleet(manager, detector, workers=2) as fleet:
            record = manager.submit(request_payload)
            assert fleet.wait_idle(timeout=60)
        assert manager.status(record.job_id).state is JobState.SUCCEEDED
        stored = manager.result(record.job_id)
        assert canonical_report_json(stored.document) == canonical_report_json(
            direct.to_json()
        )
        assert stored.metrics["counters"]["scored"] > 0

    def test_dct_jobs_on_two_workers_match_direct_scans(self, manager, region):
        """Two workers extract DCT features at once; each served report
        still equals the direct scan of its own layer."""
        from repro.geometry import Layer, Rect
        from repro.runtime import EngineConfig

        from .conftest import GradedDCTDetector

        detector = GradedDCTDetector()
        layers = []
        for k in range(4):
            layer = Layer("metal1")
            layer.add_rects(
                [Rect(0, i * 256 + 24 * k, 2048, i * 256 + 24 * k + 64 + 8 * k)
                 for i in range(8)]
                + [Rect(256 * k, 0, 256 * k + 96, 2048)]
            )
            layers.append(layer)
        direct = [
            ScanEngine(
                detector, config=EngineConfig.from_kwargs(chunk_clips=8)
            ).scan(layer, region, keep_clips=False)
            for layer in layers
        ]
        with WorkerFleet(manager, detector, workers=2) as fleet:
            ids = [
                manager.submit(
                    encode_job_request(layer, region, engine={"chunk_clips": 8})
                ).job_id
                for layer in layers
            ]
            assert fleet.wait_idle(timeout=120)
        for job_id, report in zip(ids, direct):
            assert manager.status(job_id).state is JobState.SUCCEEDED
            stored = manager.result(job_id)
            assert canonical_report_json(stored.document) == canonical_report_json(
                report.to_json()
            )
        assert len({tuple(r.scores) for r in direct}) == len(layers)

    def test_many_jobs_across_workers(
        self, manager, detector, request_payload
    ):
        with WorkerFleet(manager, detector, workers=3) as fleet:
            ids = [manager.submit(request_payload).job_id for _ in range(6)]
            assert fleet.wait_idle(timeout=120)
        finals = [manager.status(job_id) for job_id in ids]
        assert all(r.state is JobState.SUCCEEDED for r in finals)
        assert all(r.attempts == 1 for r in finals)  # no double execution
        assert manager.telemetry.counters["job_succeeded"] == 6

    def test_bad_engine_kwargs_fail_the_job(self, manager, detector):
        # validation admits the knob name; the value only explodes at
        # config-build time in the worker -> bounded retries -> FAILED
        from repro.service import validate_job_request

        request = validate_job_request(
            {
                "schema": 1,
                "layer": {"name": "m", "polygons": []},
                "region": [0, 0, 1024, 1024],
                "engine": {"workers": -1},
            }
        )
        with WorkerFleet(manager, detector, workers=1) as fleet:
            record = manager.submit(request)
            assert fleet.wait_idle(timeout=60)
        final = manager.status(record.job_id)
        assert final.state is JobState.FAILED
        assert "workers" in final.error

    def test_detector_error_exhausts_attempts(
        self, manager, request_payload
    ):
        with WorkerFleet(manager, ExplodingDetector(), workers=1) as fleet:
            record = manager.submit(request_payload)
            assert fleet.wait_idle(timeout=60)
        final = manager.status(record.job_id)
        assert final.state is JobState.FAILED
        assert final.attempts == manager.max_attempts
        assert "meltdown" in final.error


class TestPreemptionResume:
    def test_interrupted_job_resumes_to_identical_report(
        self, tmp_path, detector, layer, region
    ):
        """A mid-scan kill retries via checkpoint resume, byte-identically."""
        direct = ScanEngine(detector).scan(layer, region, keep_clips=False)
        manager = file_manager(tmp_path)
        request = encode_job_request(
            layer,
            region,
            engine={"chunk_clips": 4, "checkpoint_every_chunks": 1},
        )
        fleet = WorkerFleet(
            manager,
            detector,
            workers=1,
            faults="job_interrupt@0",
            interrupt_after_events=1,
        )
        with fleet:
            record = manager.submit(request)
            assert fleet.wait_idle(timeout=120)
        final = manager.status(record.job_id)
        assert final.state is JobState.SUCCEEDED
        assert final.attempts == 2  # first claim was preempted
        assert "JobInterrupted" in final.error
        stored = manager.result(record.job_id)
        # the retry genuinely resumed (did not rescan from scratch) ...
        assert stored.metrics["counters"]["checkpoint_resumed"] == 1
        assert stored.metrics["counters"]["resume_hits"] > 0
        # ... and the canonical report is byte-identical to a direct run
        assert canonical_report_json(stored.document) == canonical_report_json(
            direct.to_json()
        )
        counters = manager.telemetry.counters
        assert counters["fault_job_interrupt"] == 1
        assert counters["job_requeued"] == 1
        assert counters["job_retries"] == 1

    def test_success_clears_job_checkpoints(self, tmp_path, detector, layer, region):
        manager = file_manager(tmp_path)
        request = encode_job_request(
            layer, region, engine={"checkpoint_every_chunks": 1}
        )
        with WorkerFleet(manager, detector, workers=1) as fleet:
            record = manager.submit(request)
            assert fleet.wait_idle(timeout=60)
        assert not manager.checkpoint_dir_for(record.job_id).exists()


class TestCancellation:
    def test_running_job_cancelled_at_heartbeat(
        self, manager, layer, region
    ):
        request = encode_job_request(layer, region, engine={"chunk_clips": 1})
        with WorkerFleet(manager, SlowDetector(), workers=1) as fleet:
            record = manager.submit(request)
            assert wait_for(
                lambda: manager.status(record.job_id).state
                is JobState.RUNNING
            )
            manager.cancel(record.job_id)
            assert fleet.wait_idle(timeout=60)
        final = manager.status(record.job_id)
        assert final.state is JobState.CANCELLED
        assert manager.telemetry.counters["job_cancelled"] == 1
        assert manager.telemetry.counters.get("job_requeued", 0) == 0


class TestRestartReplay:
    def test_fleet_restart_replays_queued_jobs_exactly_once(
        self, tmp_path, detector, layer, region
    ):
        """Jobs persisted before a crash run exactly once after restart."""
        request = encode_job_request(layer, region, engine={"chunk_clips": 8})
        before = file_manager(tmp_path)
        ids = [before.submit(request).job_id for _ in range(3)]
        crashed = before.claim("w0", timeout=0.1)  # in flight at crash time
        # duplicate queue entry a crash between push and claim could leave
        before.queue.push(ids[0])

        after = file_manager(tmp_path)  # fresh process over the same state
        with WorkerFleet(after, detector, workers=2) as fleet:  # start() recovers
            assert fleet.wait_idle(timeout=120)
        finals = {job_id: after.status(job_id) for job_id in ids}
        assert all(
            r.state is JobState.SUCCEEDED for r in finals.values()
        )
        # the crashed job's restart claim is attempt 2; the rest ran once
        assert finals[crashed.job_id].attempts == 2
        assert all(
            r.attempts == 1
            for job_id, r in finals.items()
            if job_id != crashed.job_id
        )
        assert after.telemetry.counters["job_recovered"] == 1
        assert after.telemetry.counters["job_started"] == 3
        for job_id in ids:
            assert after.result(job_id) is not None


class TestFleetLifecycle:
    def test_start_twice_refused(self, manager, detector):
        fleet = WorkerFleet(manager, detector, workers=1)
        with fleet:
            with pytest.raises(RuntimeError, match="already started"):
                fleet.start()
        assert not fleet.running

    def test_validation(self, manager, detector):
        with pytest.raises(ValueError):
            WorkerFleet(manager, detector, workers=0)
        with pytest.raises(ValueError):
            WorkerFleet(manager, detector, interrupt_after_events=0)
