"""Shard planning, deterministic merge, and the scan_chip front door."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.contracts import ContractViolation
from repro.geometry import (
    Layer,
    Layout,
    Rect,
    clip_fingerprint,
    region_fingerprint,
)
from repro.runtime import shard as shard_module  # lint: disable=no-deep-runtime-import  (counts the calls the shard layer makes through its own names)
from repro.runtime import (
    EngineConfig,
    FaultInjector,
    ScanEngine,
    ScanReport,
    ShardPlan,
    ShardPlanner,
    ShardRunner,
    merge_reports,
    scan_chip,
)
from repro.service import canonical_report_json

from .conftest import DensityDetector, GradedDensityDetector


def canonical(report: ScanReport) -> str:
    return canonical_report_json(report.to_json())


def mono_scan(detector, layer, region, **scan_kwargs) -> ScanReport:
    """The monolithic reference: one engine, one region."""
    return ScanEngine(detector).scan(
        layer, region, keep_clips=False, **scan_kwargs
    )


# ----------------------------------------------------------------------
# planner invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 3, 4, 6, 9])
def test_owned_ranges_partition_the_grid(region, shards):
    plan = ShardPlanner(shards).plan(region)
    owned = np.zeros((plan.ny, plan.nx), dtype=int)
    for spec in plan.shards:
        owned[spec.own_y[0] : spec.own_y[1], spec.own_x[0] : spec.own_x[1]] += 1
    assert (owned == 1).all(), "every window must have exactly one owner"
    assert sum(s.n_owned for s in plan.shards) == plan.n_windows


@pytest.mark.parametrize("shards", [2, 4, 6])
def test_scan_ranges_extend_owned_by_the_halo(region, shards):
    plan = ShardPlanner(shards).plan(region, window_nm=768, core_nm=256)
    assert plan.halo_nm == 768  # default halo: the full window extent
    halo_c = -(-plan.halo_nm // plan.step_nm)
    for spec in plan.shards:
        assert spec.scan_x == (
            max(0, spec.own_x[0] - halo_c),
            min(plan.nx, spec.own_x[1] + halo_c),
        )
        assert spec.scan_y == (
            max(0, spec.own_y[0] - halo_c),
            min(plan.ny, spec.own_y[1] + halo_c),
        )
        assert spec.n_windows == spec.scan_w * spec.scan_h


def test_shard_regions_enumerate_exactly_the_scanned_centers(region):
    plan = ShardPlanner(4).plan(region)
    for spec in plan.shards:
        centers = plan.shard_centers(spec)
        assert len(centers) == spec.n_windows
        half = plan.window_nm // 2
        assert centers[0] == (
            spec.region.x1 + half,
            spec.region.y1 + half,
        )
        assert centers[-1] == (
            spec.region.x2 - plan.window_nm + half,
            spec.region.y2 - plan.window_nm + half,
        )


def test_explicit_grid_overrides_shard_count(region):
    plan = ShardPlanner(2, grid=(1, 3)).plan(region)
    assert plan.grid == (1, 3)
    assert len(plan.shards) == 3


def test_snap_aligns_shard_boundaries(region):
    plan = ShardPlanner(4, snap_nm=1024).plan(region, step_nm=256)
    snap_ix = 1024 // 256
    for spec in plan.shards:
        for bound in (*spec.own_x, *spec.own_y):
            assert bound % snap_ix == 0 or bound in (plan.nx, plan.ny)


def test_aggressive_snap_shrinks_the_plan_not_empty_shards(region):
    # snapping every boundary to the far edge collapses the split
    plan = ShardPlanner(4, snap_nm=4096).plan(region, step_nm=256)
    assert 1 <= len(plan.shards) <= 4
    for spec in plan.shards:
        assert spec.n_owned > 0


def test_planner_rejects_bad_parameters(region):
    with pytest.raises(ValueError, match="shards must be"):
        ShardPlanner(0)
    with pytest.raises(ValueError, match="grid dimensions"):
        ShardPlanner(1, grid=(0, 2))
    with pytest.raises(ValueError, match="halo_nm"):
        ShardPlanner(1, halo_nm=-1)
    with pytest.raises(ValueError, match="snap_nm"):
        ShardPlanner(1, snap_nm=0)
    with pytest.raises(ValueError, match="multiple of the"):
        ShardPlanner(2, snap_nm=1000).plan(region, step_nm=256)
    with pytest.raises(ValueError, match="too small for the clip window"):
        ShardPlanner(2).plan(Rect(0, 0, 512, 512), window_nm=768)


# ----------------------------------------------------------------------
# plan wire format + digest
# ----------------------------------------------------------------------
def test_plan_json_round_trip_is_lossless(region):
    plan = ShardPlanner(6, snap_nm=512).plan(region, window_nm=768)
    back = ShardPlan.from_json(plan.to_json())
    assert back == plan
    assert back.digest == plan.digest
    assert [s.region for s in back.shards] == [s.region for s in plan.shards]


def test_plan_digest_is_stable_and_content_addressed(region):
    a = ShardPlanner(4).plan(region)
    b = ShardPlanner(4).plan(region)
    assert a.digest == b.digest
    c = ShardPlanner(4).plan(Rect(0, 0, 3840, 4096))
    assert c.digest != a.digest


def test_plan_refuses_unknown_schema(region):
    doc = ShardPlanner(2).plan(region).to_json().replace(
        '"schema": 1', '"schema": 99'
    )
    with pytest.raises(ValueError, match="unsupported ShardPlan schema"):
        ShardPlan.from_json(doc)


# ----------------------------------------------------------------------
# sharded == monolithic, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 4, 6])
@pytest.mark.parametrize("shard_workers", [1, 3])
def test_sharded_scan_merges_byte_identical(layer, region, shards, shard_workers):
    detector = GradedDensityDetector()
    mono = canonical(mono_scan(detector, layer, region))
    config = EngineConfig.from_kwargs(
        shards=shards, shard_workers=shard_workers
    )
    sharded = scan_chip(layer, detector, config, region=region)
    assert canonical(sharded) == mono
    if shards > 1:
        assert sharded.plan_digest
        assert sharded.telemetry.counter("shard_scans") > 0


@pytest.fixture(scope="module")
def fused_cnn():
    """A briefly trained cnn-dct on the fused (compiled-plan) backend."""
    from repro.nn import CNNDetector, CNNDetectorConfig

    from .conftest import tiny_grating_dataset

    detector = CNNDetector(CNNDetectorConfig(epochs=1, biased_epsilon=None))
    detector.fit(tiny_grating_dataset(), rng=np.random.default_rng(0))
    detector.set_backend("fused")
    return detector


def routed_block():
    """A routed 4096 nm block: far more distinct windows than ``layer``."""
    from repro.data import RoutedBlockConfig, synthesize_routed_block

    region = Rect(0, 0, 4096, 4096)
    layer, _ = synthesize_routed_block(
        np.random.default_rng(5), region,
        RoutedBlockConfig(n_marginal=2, marginal_len_nm=400),
    )
    return layer, region


@pytest.mark.parametrize("shards", [4, 6])
def test_fused_cnn_sharded_scan_is_bit_identical(fused_cnn, shards):
    """Shards hand the compiled plan other batch sizes than the
    monolithic scan does; every score must still be the same bits."""
    layer, region = routed_block()
    mono = mono_scan(fused_cnn, layer, region)
    sharded = scan_chip(
        layer, fused_cnn, EngineConfig.from_kwargs(shards=shards),
        region=region,
    )
    assert len(np.unique(mono.scores)) > 10  # scores, not saturated flags
    assert np.array_equal(sharded.scores, mono.scores)
    assert canonical(sharded) == canonical(mono)


def test_fused_cnn_threaded_shards_are_bit_identical(fused_cnn):
    """Three shard threads extract DCT features at once; with dedup off
    every window is scored on them, and every score must still be the
    monolithic scan's bits."""
    layer, region = routed_block()
    mono = ScanEngine(
        fused_cnn, config=EngineConfig.from_kwargs(dedup=False)
    ).scan(layer, region, keep_clips=False)
    sharded = scan_chip(
        layer, fused_cnn,
        EngineConfig.from_kwargs(shards=4, shard_workers=3, dedup=False),
        region=region,
    )
    assert sharded.telemetry.counter("scored") >= sharded.n_windows
    assert np.array_equal(sharded.scores, mono.scores)
    assert canonical(sharded) == canonical(mono)


class DensityOracle:
    """Deterministic ground-truth labeler (the oracle protocol is .label)."""

    def label(self, clip) -> int:
        return int(clip.density() > 0.3)


def test_sharded_scan_with_oracle_matches_monolithic(layer, region):
    detector = GradedDensityDetector()
    mono = canonical(
        mono_scan(detector, layer, region, oracle=DensityOracle())
    )
    config = EngineConfig.from_kwargs(shards=4)
    sharded = scan_chip(
        layer, detector, config, region=region, oracle=DensityOracle()
    )
    assert sharded.confirmed is not None
    assert canonical(sharded) == mono


def test_merged_report_recovers_flagged_window_geometry(layer, region):
    detector = GradedDensityDetector()
    mono = mono_scan(detector, layer, region)
    sharded = scan_chip(
        layer, detector, EngineConfig.from_kwargs(shards=4), region=region
    )
    ours, theirs = sharded.flagged_clips(), mono.flagged_clips()
    assert len(ours) == len(theirs) == mono.n_flagged > 0
    for a, b in zip(ours, theirs):
        assert clip_fingerprint(a) == clip_fingerprint(b)


# ----------------------------------------------------------------------
# merge validation
# ----------------------------------------------------------------------
def _shard_reports(detector, layer, plan):
    reports = []
    for spec in plan.shards:
        rep = ScanEngine(detector).scan(
            layer,
            spec.region,
            window_nm=plan.window_nm,
            core_nm=plan.core_nm,
            step_nm=plan.step_nm,
            keep_clips=False,
        )
        rep.shard_id = spec.shard_id
        rep.plan_digest = plan.digest
        reports.append(rep)
    return reports


def _count_calls(monkeypatch, name, *modules):
    """Route ``name`` in ``modules`` through a call counter."""
    real = getattr(modules[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_merge_cuts_no_clips(layer, region, monkeypatch):
    """Neither live nor JSON-loaded shards make the merge cut a clip;
    the merged report cuts the flagged windows only when asked."""
    scan_module = importlib.import_module("repro.core.scan")
    detector = GradedDensityDetector()
    plan = ShardPlanner(4).plan(region)
    live = _shard_reports(detector, layer, plan)
    loaded = [ScanReport.from_json(r.to_json()) for r in live]
    mono = mono_scan(detector, layer, region)
    want = [clip_fingerprint(c) for c in mono.flagged_clips()]
    calls = _count_calls(
        monkeypatch, "extract_clip", shard_module, scan_module
    )
    for reports in (live, loaded, live[:2] + loaded[2:]):
        merged = merge_reports(plan, reports, layer=layer)
        assert calls == []
        assert canonical(merged) == canonical(mono)
    assert [clip_fingerprint(c) for c in merged.flagged_clips()] == want
    assert len(calls) == mono.n_flagged > 0
    assert merged.hotspot_regions() == mono.hotspot_regions()


def test_scan_chip_cuts_only_the_windows_it_verifies(fused_cnn, monkeypatch):
    from repro.runtime import engine as engine_module  # lint: disable=no-deep-runtime-import  (counts the scan's own extract_clip calls)

    layer, region = routed_block()
    calls = _count_calls(
        monkeypatch, "extract_clip", shard_module, engine_module
    )
    report = scan_chip(layer, fused_cnn, region=region)
    assert report.scan_path == "raster"  # windows never became clips
    assert report.n_flagged > 0
    assert calls == []  # no verifier: nothing is cut

    verified = scan_chip(
        layer, fused_cnn, region=region, oracle=DensityOracle()
    )
    assert np.array_equal(verified.flagged, report.flagged)
    assert [args[1] for args in calls] == [
        report.centers[i] for i in np.flatnonzero(report.flagged)
    ]


def test_single_shard_scan_fingerprints_only_for_a_manifest(
    layer, region, tmp_path, monkeypatch
):
    """A one-shard plan has no congruent copy to replay: its region is
    fingerprinted only when a manifest is read or written."""
    detector = GradedDensityDetector()
    calls = _count_calls(monkeypatch, "region_fingerprint", shard_module)
    scan_chip(layer, detector, region=region)
    assert calls == []

    manifest = tmp_path / "chip-manifest.npz"
    scan_chip(
        layer, detector, EngineConfig.from_kwargs(manifest=manifest),
        region=region,
    )
    assert len(calls) == 1
    scan_chip(
        layer, detector, EngineConfig.from_kwargs(rescan_from=manifest),
        region=region,
    )
    assert len(calls) == 2

    del calls[:]
    scan_chip(
        layer, detector, EngineConfig.from_kwargs(shards=4), region=region
    )
    assert len(calls) == 4


def test_merge_rejects_misaligned_reports(layer, region):
    detector = GradedDensityDetector()
    plan = ShardPlanner(4).plan(region)
    reports = _shard_reports(detector, layer, plan)

    with pytest.raises(ValueError, match="reports were supplied"):
        merge_reports(plan, reports[:-1])

    swapped = [reports[1], reports[0], *reports[2:]]
    with pytest.raises(ValueError, match="carries shard_id"):
        merge_reports(plan, swapped)

    # same grid geometry, different plan content (core_nm) -> new digest
    other = ShardPlanner(4).plan(region, core_nm=512, step_nm=256)
    assert other.digest != plan.digest
    with pytest.raises(ValueError, match="was scanned under plan"):
        merge_reports(other, reports)


def test_merge_rejects_mixed_verification(layer, region):
    detector = GradedDensityDetector()
    plan = ShardPlanner(4).plan(region)
    reports = _shard_reports(detector, layer, plan)
    reports[2].confirmed = np.ones(
        int(np.count_nonzero(reports[2].flagged)), dtype=bool
    )
    with pytest.raises(ValueError, match="mix verified and unverified"):
        merge_reports(plan, reports)


# ----------------------------------------------------------------------
# crash-resume
# ----------------------------------------------------------------------
def test_killed_shard_resumes_to_byte_identical_report(layer, region, tmp_path):
    detector = GradedDensityDetector()
    mono = canonical(mono_scan(detector, layer, region))

    def config():
        return EngineConfig.from_kwargs(
            shards=4,
            shard_workers=1,
            dedup=False,
            chunk_clips=64,
            checkpoint_dir=tmp_path / "ckpt",
            on_invalid_score="raise",
        )

    # one injector shared across shard engines: opportunities count
    # globally, so the crash lands mid-run after shard 0 completed
    injector = FaultInjector("nan_score@2")
    with pytest.raises(ContractViolation):
        scan_chip(
            layer, detector, config(), region=region, faults=injector
        )
    persisted = list((tmp_path / "ckpt").glob("shard-*.report.json"))
    assert persisted, "completed shards must persist their reports"

    resumed = scan_chip(layer, detector, config(), region=region, resume=True)
    assert canonical(resumed) == mono
    assert resumed.telemetry.counter("shard_resumed") >= 1
    # the merge succeeded: per-shard reports are cleaned up
    assert not list((tmp_path / "ckpt").glob("shard-*.report.json"))


# ----------------------------------------------------------------------
# instance-level dedup
# ----------------------------------------------------------------------
def _array_layer(nx: int = 3, ny: int = 3, pitch: int = 2048) -> Layer:
    """An nx x ny array of identical 2048 nm cells."""
    from repro.data.layouts import replicate_block

    cell = Layer("metal1")
    cell.add_rects(
        [Rect(64, k * 256 + 32, 1984, k * 256 + 128) for k in range(8)]
    )
    return replicate_block(
        cell, Rect(0, 0, pitch, pitch), nx, ny, pitch_x=pitch, pitch_y=pitch
    )


def test_instance_dedup_scans_congruent_shards_once():
    layer = _array_layer()
    region = Rect(0, 0, 3 * 2048, 3 * 2048)
    detector = GradedDensityDetector()
    mono = canonical(mono_scan(detector, layer, region))

    config = EngineConfig.from_kwargs(shards=9, snap_nm=2048, halo_nm=0)
    deduped = scan_chip(layer, detector, config, region=region)
    assert canonical(deduped) == mono
    tele = deduped.telemetry
    # 2048-snapped boundaries land on the cell pitch: one canonical
    # shard per congruence class (fingerprint x scan shape), the rest
    # replayed
    n_scans = tele.counter("shard_scans")
    n_replays = tele.counter("shard_replays")
    assert n_scans + n_replays == 9
    assert n_replays > 0 and n_scans < 9
    assert tele.counter("shard_windows_replayed") > 0

    off = EngineConfig.from_kwargs(
        shards=9, snap_nm=2048, halo_nm=0, instance_dedup=False
    )
    plain = scan_chip(layer, detector, off, region=region)
    assert canonical(plain) == mono
    assert plain.telemetry.counter("shard_scans") == 9
    assert plain.telemetry.counter("shard_replays") == 0


def test_dedup_keys_on_fingerprint_and_shape():
    layer = _array_layer()
    region = Rect(0, 0, 3 * 2048, 3 * 2048)
    plan = ShardPlanner(9, snap_nm=2048, halo_nm=0).plan(region)
    fps = [region_fingerprint(layer, s.region) for s in plan.shards]
    by_shape = {}
    for spec, fp in zip(plan.shards, fps):
        by_shape.setdefault((spec.scan_w, spec.scan_h), set()).add(fp)
    # same scan shape over periodic content -> congruent placements
    # fingerprint equal (one class per shape)
    assert all(len(v) == 1 for v in by_shape.values())
    assert len(by_shape) < 9

    edited = _array_layer()
    edited.add_rects([Rect(2100, 2200, 2300, 2400)])  # dirty one cell
    fps2 = [region_fingerprint(edited, s.region) for s in plan.shards]
    changed = [i for i, (a, b) in enumerate(zip(fps, fps2)) if a != b]
    assert changed, "the edited cell's shards must re-fingerprint"
    assert len(changed) < 9, "untouched placements keep their fingerprint"


# ----------------------------------------------------------------------
# incremental re-scan
# ----------------------------------------------------------------------
def test_rescan_replays_unchanged_shards_and_rescores_the_cone(
    layer, region, tmp_path
):
    detector = GradedDensityDetector()
    manifest = tmp_path / "chip-manifest.npz"

    first = scan_chip(
        layer,
        detector,
        EngineConfig.from_kwargs(shards=4, manifest=manifest),
        region=region,
    )
    assert manifest.exists()

    # no edit: every shard replays from the manifest
    replayed = scan_chip(
        layer,
        detector,
        EngineConfig.from_kwargs(shards=4, rescan_from=manifest),
        region=region,
    )
    assert canonical(replayed) == canonical(first)
    tele = replayed.telemetry
    assert tele.counter("rescan_shards_reused") == 4
    plan = ShardPlanner(4).plan(region)
    assert tele.counter("rescan_windows_reused") == sum(
        s.n_windows for s in plan.shards
    )
    assert tele.counter("shard_scans") == 0

    # edit one corner: only the shards whose fingerprint cone covers it
    # are re-scored
    edited = Layer("metal1")
    for poly in layer.polygons:
        edited.add(poly)
    edited.add_rects([Rect(64, 72, 512, 120)])
    mono_edited = canonical(mono_scan(detector, edited, region))
    rescanned = scan_chip(
        edited,
        detector,
        EngineConfig.from_kwargs(shards=4, rescan_from=manifest),
        region=region,
    )
    assert canonical(rescanned) == mono_edited
    tele = rescanned.telemetry
    assert tele.counter("rescan_shards_rescored") >= 1
    assert tele.counter("rescan_shards_reused") >= 1
    assert (
        tele.counter("rescan_shards_reused")
        + tele.counter("rescan_shards_rescored")
        == 4
    )


def test_rescan_refuses_mismatched_manifest(layer, region, tmp_path):
    detector = GradedDensityDetector()
    manifest = tmp_path / "chip-manifest.npz"
    scan_chip(
        layer,
        detector,
        EngineConfig.from_kwargs(shards=4, manifest=manifest),
        region=region,
    )
    with pytest.raises(ValueError, match="re-plan with the same"):
        scan_chip(
            layer,
            detector,
            EngineConfig.from_kwargs(shards=2, rescan_from=manifest),
            region=region,
        )
    with pytest.raises(ValueError, match="was scored by"):
        scan_chip(
            layer,
            DensityDetector(),
            EngineConfig.from_kwargs(shards=4, rescan_from=manifest),
            region=region,
        )
    with pytest.raises(FileNotFoundError):
        scan_chip(
            layer,
            detector,
            EngineConfig.from_kwargs(
                shards=4, rescan_from=tmp_path / "nope.npz"
            ),
            region=region,
        )


# ----------------------------------------------------------------------
# report schema 2: shard provenance
# ----------------------------------------------------------------------
def test_shard_reports_round_trip_byte_identically(layer, region):
    import json

    detector = GradedDensityDetector()
    plan = ShardPlanner(4).plan(region)
    rep = _shard_reports(detector, layer, plan)[1]
    assert rep.shard_id == 1
    assert rep.plan_digest == plan.digest

    document = rep.to_json()
    assert json.loads(document)["schema"] == 2
    back = ScanReport.from_json(document)
    assert back.shard_id == 1
    assert back.plan_digest == plan.digest
    assert back.to_json() == document  # byte-identical re-serialization


def test_schema_1_reports_migrate_forward(layer, region):
    import json

    detector = GradedDensityDetector()
    rep = mono_scan(detector, layer, region)
    payload = json.loads(rep.to_json())
    payload["schema"] = 1
    del payload["shard_id"]
    del payload["plan_digest"]
    migrated = ScanReport.from_json(json.dumps(payload))
    assert migrated.shard_id is None
    assert migrated.plan_digest is None
    # re-serializes as a valid schema-2 document with null provenance
    assert json.loads(migrated.to_json())["schema"] == 2
    assert np.array_equal(migrated.scores, rep.scores)


def test_newer_report_schema_is_refused(layer, region):
    import json

    rep = mono_scan(GradedDensityDetector(), layer, region)
    payload = json.loads(rep.to_json())
    payload["schema"] = 3
    with pytest.raises(ValueError, match="unsupported ScanReport schema"):
        ScanReport.from_json(json.dumps(payload))


# ----------------------------------------------------------------------
# the scan_chip front door
# ----------------------------------------------------------------------
def test_scan_chip_accepts_layouts_and_selects_layers(layer, region):
    detector = GradedDensityDetector()
    mono = canonical(mono_scan(detector, layer, region))

    layout = Layout("chip", layers={"metal1": layer})
    assert canonical(scan_chip(layout, detector, region=region)) == mono

    other = Layer("metal2")
    other.add_rects([Rect(0, 0, 4096, 64)])
    layout.layers["metal2"] = other
    with pytest.raises(ValueError, match="pass layer="):
        scan_chip(layout, detector, region=region)
    got = scan_chip(layout, detector, layer="metal1", region=region)
    assert canonical(got) == mono
    with pytest.raises(ValueError, match="has no layer"):
        scan_chip(layout, detector, layer="poly", region=region)
    with pytest.raises(TypeError, match="bare Layer"):
        scan_chip(layer, detector, layer="metal1", region=region)
    with pytest.raises(TypeError, match="must be a Layer or Layout"):
        scan_chip(object(), detector, region=region)


def test_scan_chip_defaults_region_to_the_layer_bbox(layer):
    detector = GradedDensityDetector()
    explicit = scan_chip(layer, detector, region=layer.bbox)
    implicit = scan_chip(layer, detector)
    assert canonical(implicit) == canonical(explicit)
