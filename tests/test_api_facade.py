"""The repro.api facade: every advertised name resolves, none are stale."""

import repro.api as api


def test_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, f"api.__all__ lists {name!r}"


def test_all_has_no_duplicates():
    assert len(api.__all__) == len(set(api.__all__))


def test_service_entry_points_exported():
    for name in (
        "JobManager",
        "JobRecord",
        "JobState",
        "ScanService",
        "ServiceClient",
        "WorkerFleet",
        "canonical_report_json",
        "encode_job_request",
        "serve",
    ):
        assert name in api.__all__
        assert getattr(api, name) is not None


def test_facade_matches_subpackage_objects():
    from repro import service

    assert api.JobManager is service.JobManager
    assert api.ScanService is service.ScanService
    assert api.serve is service.serve


def test_chip_scan_entry_points_exported():
    from repro import runtime

    for name in (
        "ChipScanConfig",
        "ShardPlan",
        "ShardPlanner",
        "ShardRunner",
        "merge_reports",
        "scan_chip",
    ):
        assert name in api.__all__
        assert getattr(api, name) is getattr(runtime, name)


def test_shard_plan_digest_is_pinned_through_the_facade():
    """Plans built from api names keep the digests on disk."""
    region = api.Rect(0, 0, 4096, 4096)
    plan = api.ShardPlanner(4).plan(region)
    assert isinstance(plan, api.ShardPlan)
    assert plan.digest == "90dd0e188241a0e5d3da3439aa952453"
    snapped = api.ShardPlanner(6, snap_nm=512).plan(region, window_nm=768)
    assert snapped.digest == "efbcfddbc03300b1d9fba2241f5c39fb"
