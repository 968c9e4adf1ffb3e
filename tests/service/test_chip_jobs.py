"""Chip-scale jobs through the service: wire gate and inline execution.

A chip job runs through ``scan_chip`` on the worker that claimed it,
whatever the fleet size, its shards one after another on that worker's
detector copy.  No job ever submits another job.
"""

from __future__ import annotations

import pytest

from repro.runtime import EngineConfig, ScanEngine, ShardPlanner, scan_chip
from repro.service import (
    JobManager,
    JobState,
    TokenBucketRateLimiter,
    WireError,
    WorkerFleet,
    canonical_report_json,
    encode_job_request,
    validate_job_request,
)


def chip_request(layer, region, chip, engine=None, **kwargs):
    return encode_job_request(
        layer,
        region,
        engine={"chunk_clips": 64} if engine is None else engine,
        chip=chip,
        **kwargs,
    )


def serve_one(manager, detector, request, workers, **fleet_kwargs):
    """Run one job to completion; its record, and its stored result."""
    fleet = WorkerFleet(manager, detector, workers=workers, **fleet_kwargs)
    with fleet:
        record = manager.submit(request)
        assert fleet.wait_idle(timeout=120)
    final = manager.status(record.job_id)
    assert final.state is JobState.SUCCEEDED, final.error
    # the job ran where it was claimed: it spawned no other job
    assert [r.job_id for r in manager.list_jobs()] == [record.job_id]
    return final, manager.result(record.job_id)


def canonical_chip(layer, detector, region, **chip):
    """``scan_chip``'s canonical report under the same chip knobs."""
    config = EngineConfig.from_kwargs(chunk_clips=64, **chip)
    report = scan_chip(layer, detector, config, region=region)
    return canonical_report_json(report.to_json())


# ----------------------------------------------------------------------
# wire validation
# ----------------------------------------------------------------------
class TestWire:
    def test_chip_knobs_round_trip(self, layer, region):
        request = chip_request(layer, region, {"shards": 4, "snap_nm": 512})
        assert validate_job_request(request)["chip"] == {
            "shards": 4,
            "snap_nm": 512,
        }

    def test_shard_workers_is_refused(self, layer, region):
        """Shards run one after another: there is no shard thread count
        to set, so the service answers such a request with a 400."""
        with pytest.raises(WireError, match="not client-settable"):
            chip_request(layer, region, {"shards": 4, "shard_workers": 2})

    def test_service_side_chip_paths_are_refused(self, layer, region):
        with pytest.raises(WireError, match="not client-settable"):
            chip_request(layer, region, {"shards": 4, "manifest": "/x.npz"})
        with pytest.raises(WireError, match="not client-settable"):
            chip_request(layer, region, {"rescan_from": "/x.npz"})
        with pytest.raises(WireError, match="must be an object"):
            validate_job_request(
                {
                    "schema": 1,
                    "layer": {"name": "m", "polygons": []},
                    "region": [0, 0, 1024, 1024],
                    "chip": 4,
                }
            )

    def test_shard_marker_is_validated(self, layer, region):
        """Jobs are never split into shard jobs, so validation refuses a
        ``shard`` marker as an unknown field, whatever it holds."""
        base = chip_request(layer, region, None)
        for shard in (
            {"plan": "{}", "index": 0, "parent": "j-1"},
            {"plan": "", "index": -1, "parent": ""},
            "not-a-dict",
        ):
            with pytest.raises(WireError, match=r"unknown .* \['shard'\]"):
                validate_job_request(dict(base, shard=shard))

    def test_chip_and_shard_are_mutually_exclusive(self, layer, region):
        """A chip job runs whole on the worker that claimed it, so a
        ``chip`` request that also names a shard is refused."""
        request = chip_request(layer, region, {"shards": 2})
        request["shard"] = {"plan": "{}", "index": 0, "parent": "j-1"}
        with pytest.raises(WireError, match=r"unknown .* \['shard'\]"):
            validate_job_request(request)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class TestChipExecution:
    @pytest.mark.parametrize("fleet_workers", [1, 3])
    @pytest.mark.parametrize("instance_dedup", [True, False])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_served_chip_job_is_byte_identical(
        self, manager, detector, layer, region, fleet_workers,
        instance_dedup, jobs,
    ):
        """``jobs`` copies of one chip job, submitted together, each match
        the direct scan: one worker runs them in turn on its detector
        copy, three workers may run them at once, each on its own copy."""
        chip = {"shards": 4, "instance_dedup": instance_dedup}
        direct = ScanEngine(detector).scan(layer, region, keep_clips=False)
        fleet = WorkerFleet(manager, detector, workers=fleet_workers)
        with fleet:
            ids = [
                manager.submit(chip_request(layer, region, chip)).job_id
                for _ in range(jobs)
            ]
            assert fleet.wait_idle(timeout=120)
        assert sorted(r.job_id for r in manager.list_jobs()) == sorted(ids)
        for job_id in ids:
            final = manager.status(job_id)
            assert final.state is JobState.SUCCEEDED, final.error
            served = canonical_report_json(manager.result(job_id).document)
            assert served == canonical_report_json(direct.to_json())
        assert served == canonical_chip(layer, detector, region, **chip)

    def test_multi_worker_fleet_scans_a_chip_job_inline(
        self, manager, detector, layer, region
    ):
        chip = {"shards": 4, "instance_dedup": False}
        _, stored = serve_one(
            manager, detector, chip_request(layer, region, chip), 3
        )
        assert canonical_report_json(stored.document) == canonical_chip(
            layer, detector, region, **chip
        )
        counters = stored.metrics["counters"]
        assert counters["shard_scans"] == 4
        assert counters["shard_replays"] == 0

    def test_inline_chip_job_replays_congruent_shards(
        self, manager, detector, layer, region
    ):
        """On this small region every shard's halo covers the whole grid,
        so all four shards are congruent: one scans, three replay."""
        _, stored = serve_one(
            manager, detector, chip_request(layer, region, {"shards": 4}), 3
        )
        assert canonical_report_json(stored.document) == canonical_chip(
            layer, detector, region, shards=4
        )
        assert stored.metrics["counters"]["shard_scans"] == 1
        assert stored.metrics["counters"]["shard_replays"] == 3

    def test_single_worker_fleet_scans_a_chip_job_inline(
        self, manager, detector, layer, region
    ):
        direct = ScanEngine(detector).scan(layer, region, keep_clips=False)
        _, stored = serve_one(
            manager, detector, chip_request(layer, region, {"shards": 4}), 1
        )
        assert canonical_report_json(stored.document) == canonical_report_json(
            direct.to_json()
        )

    def test_shards_1_is_a_plain_job(self, manager, detector, layer, region):
        direct = ScanEngine(detector).scan(layer, region, keep_clips=False)
        _, stored = serve_one(
            manager, detector, chip_request(layer, region, {"shards": 1}), 2
        )
        assert canonical_report_json(stored.document) == canonical_report_json(
            direct.to_json()
        )

    def test_rate_limited_client_chip_job_succeeds(
        self, detector, layer, region
    ):
        """A chip job costs its client one submission, whatever its shard
        count and the fleet's size."""
        manager = JobManager.in_memory(
            rate_limiter=TokenBucketRateLimiter(rate=0.01, burst=2),
            max_attempts=2,
        )
        chip = {"shards": 4, "instance_dedup": False}
        final, stored = serve_one(
            manager, detector, chip_request(layer, region, chip), 3
        )
        assert final.attempts == 1
        assert manager.telemetry.counters.get("service_rate_limited", 0) == 0
        assert canonical_report_json(stored.document) == canonical_chip(
            layer, detector, region, **chip
        )

    def test_interrupted_chip_job_resumes_its_finished_shards(
        self, tmp_path, detector, layer, region
    ):
        """Preempted after its first shard finished, the retry reloads
        that shard's report and merges byte-identically."""
        engine = {
            "chunk_clips": 8, "dedup": False, "checkpoint_every_chunks": 1,
        }
        chip = {"shards": 4, "instance_dedup": False}
        # the scoring heartbeats one shard emits: the fault fires on the
        # first beat of the second shard
        beats = []
        first = ShardPlanner(4).plan(region).shards[0]
        ScanEngine(
            detector,
            config=EngineConfig.from_kwargs(
                chunk_clips=8, dedup=False, progress=beats.append,
                progress_every_chunks=1,
            ),
        ).scan(layer, first.region, keep_clips=False)
        per_shard = sum(1 for event in beats if event.scored > 0)

        manager = JobManager.in_memory(checkpoint_root=tmp_path / "ckpt")
        final, stored = serve_one(
            manager,
            detector,
            chip_request(layer, region, chip, engine=engine),
            3,
            faults="job_interrupt@0",
            interrupt_after_events=per_shard + 1,
        )
        assert final.attempts == 2
        assert "JobInterrupted" in final.error
        assert manager.telemetry.counters["fault_job_interrupt"] == 1
        assert stored.metrics["counters"]["shard_resumed"] >= 1
        assert canonical_report_json(stored.document) == canonical_chip(
            layer, detector, region, **chip
        )
