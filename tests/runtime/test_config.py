"""EngineConfig: grouped frozen config, flat-name mapping, report wire format."""

import dataclasses

import numpy as np
import pytest

from repro.runtime import (
    LEGACY_KWARGS,
    REPORT_SCHEMA,
    BatchConfig,
    CheckpointConfig,
    ChipScanConfig,
    EngineConfig,
    ObservabilityConfig,
    ScanEngine,
    ScanReport,
    SupervisionConfig,
    scan_chip,
)

from .conftest import DensityDetector, GradedDensityDetector


class TestEngineConfigDefaults:
    def test_default_groups(self):
        cfg = EngineConfig()
        assert cfg.batch.workers == 1
        assert cfg.batch.dedup is True
        assert cfg.raster.raster_plane is None
        assert cfg.supervision.on_invalid_score == "repair"
        assert cfg.checkpoint.dir is None
        assert not cfg.observability.enabled

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch = BatchConfig(workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch.workers = 2

    @pytest.mark.parametrize(
        "group_cls,bad",
        [
            (BatchConfig, {"workers": 0}),
            (BatchConfig, {"chunk_clips": 0}),
            (SupervisionConfig, {"max_chunk_retries": -1}),
            (SupervisionConfig, {"on_invalid_score": "explode"}),
            (CheckpointConfig, {"every_chunks": 0}),
            (ObservabilityConfig, {"progress_every_chunks": 0}),
            (ObservabilityConfig, {"progress": "syslog"}),
        ],
    )
    def test_construction_time_validation(self, group_cls, bad):
        with pytest.raises(ValueError):
            group_cls(**bad)

    def test_chip_defaults_are_monolithic(self):
        chip = EngineConfig().chip
        assert chip.shards == 1
        assert chip.halo_nm is None  # full window extent at plan time
        assert chip.snap_nm is None
        assert chip.instance_dedup is True
        assert chip.manifest is None
        assert chip.rescan_from is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"shards": 0},
            {"halo_nm": -1},
            {"snap_nm": 0},
        ],
    )
    def test_chip_construction_time_validation(self, bad):
        with pytest.raises(ValueError):
            ChipScanConfig(**bad)

    def test_chip_kwargs_route_through_from_kwargs(self):
        cfg = EngineConfig.from_kwargs(
            shards=8,
            halo_nm=768,
            snap_nm=2048,
            instance_dedup=False,
            manifest="out.npz",
            rescan_from="prior.npz",
        )
        assert cfg.chip == ChipScanConfig(
            shards=8,
            halo_nm=768,
            snap_nm=2048,
            instance_dedup=False,
            manifest="out.npz",
            rescan_from="prior.npz",
        )

    def test_observability_enabled_flag(self):
        assert ObservabilityConfig(trace_dir="t").enabled
        assert ObservabilityConfig(metrics="m").enabled
        assert ObservabilityConfig(progress="stderr").enabled
        assert ObservabilityConfig(progress=lambda e: None).enabled


class TestFlatKwargMapping:
    def test_from_kwargs_routes_to_groups(self):
        cfg = EngineConfig.from_kwargs(
            workers=4,
            chunk_clips=32,
            raster_plane=False,
            chunk_timeout_s=7.5,
            checkpoint_dir="ckpt",
            trace_dir="traces",
            progress="stderr",
        )
        assert cfg.batch.workers == 4
        assert cfg.batch.chunk_clips == 32
        assert cfg.raster.raster_plane is False
        assert cfg.supervision.chunk_timeout_s == 7.5
        assert cfg.checkpoint.dir == "ckpt"
        assert cfg.observability.trace_dir == "traces"
        assert cfg.observability.progress == "stderr"

    def test_unknown_kwarg_raises(self):
        with pytest.raises(TypeError, match="turbo"):
            EngineConfig.from_kwargs(turbo=True)

    def test_shard_workers_is_not_an_option(self):
        """Shards run one after another; no shard thread count exists."""
        with pytest.raises(TypeError, match="shard_workers"):
            EngineConfig.from_kwargs(shard_workers=2)

    def test_every_legacy_kwarg_is_applicable(self):
        """Each flat name sets exactly its grouped field, nothing else."""
        probes = {
            "workers": 2, "chunk_clips": 7, "dedup": False,
            "cache_dir": "cache", "max_cache_entries": 9,
            "mp_context": "fork", "infer_backend": "fused",
            "raster_plane": True, "band_rows": 3, "max_plane_pixels": 5,
            "chunk_timeout_s": 1.5, "max_chunk_retries": 4,
            "retry_backoff_s": 0.5, "max_pool_rebuilds": 3,
            "degrade_after_failures": 2, "on_invalid_score": "raise",
            "checkpoint_dir": "ckpt", "checkpoint_every_chunks": 2,
            "trace_dir": "traces", "metrics": "m", "progress": "stderr",
            "progress_every_chunks": 2, "shards": 4,
            "halo_nm": 0, "snap_nm": 64, "instance_dedup": False,
            "manifest": "man.npz", "rescan_from": "prior.npz",
        }
        assert set(probes) == set(LEGACY_KWARGS)
        default = EngineConfig()
        for name, (group, field_name) in LEGACY_KWARGS.items():
            sub = dataclasses.replace(
                getattr(default, group), **{field_name: probes[name]}
            )
            assert sub != getattr(default, group), name
            assert EngineConfig.from_kwargs(
                **{name: probes[name]}
            ) == dataclasses.replace(default, **{group: sub})

    def test_flat_kwargs_are_a_type_error(self, layer, region):
        """The flat spelling goes through from_kwargs only."""
        with pytest.raises(TypeError, match="workers"):
            ScanEngine(DensityDetector(), workers=2)
        with pytest.raises(TypeError, match="workers"):
            ScanEngine(DensityDetector(), config=EngineConfig(), workers=2)
        with pytest.raises(TypeError, match="shards"):
            scan_chip(layer, DensityDetector(), region=region, shards=4)


class TestReportWire:
    def _report(self, layer, region):
        return ScanEngine(GradedDensityDetector()).scan(layer, region)

    def test_round_trip_is_byte_identical(self, layer, region):
        report = self._report(layer, region)
        doc = report.to_json()
        rebuilt = ScanReport.from_json(doc)
        assert rebuilt.to_json() == doc

    def test_schema_field_present(self, layer, region):
        import json

        payload = json.loads(self._report(layer, region).to_json())
        assert payload["schema"] == REPORT_SCHEMA

    def test_newer_schema_refused(self, layer, region):
        import json

        payload = json.loads(self._report(layer, region).to_json())
        payload["schema"] = REPORT_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            ScanReport.from_json(json.dumps(payload))

    def test_round_trip_preserves_scores_and_telemetry(self, layer, region):
        report = self._report(layer, region)
        rebuilt = ScanReport.from_json(report.to_json())
        assert rebuilt.scores.tobytes() == report.scores.tobytes()
        assert np.array_equal(rebuilt.flagged, report.flagged)
        assert rebuilt.n_windows == report.n_windows
        assert rebuilt.telemetry.counters == report.telemetry.counters
        for name, hist in report.telemetry.histograms.items():
            assert rebuilt.telemetry.histograms[name].as_dict() == (
                hist.as_dict()
            )
