"""Tests for ScanEngine: streaming, dedup, equivalence, verification.

The acceptance-critical case lives in ``TestAcceptance``: on a routed
block built from repeated cells, the engine with cache + cascade must
flag exactly the windows the naive ``scan_layer`` sweep flags while
sending at least 2x fewer windows through the expensive stage.
"""

import numpy as np
import pytest

from repro.core import scan_layer
from repro.data import RoutedBlockConfig, replicate_block, synthesize_routed_block
from repro.geometry import Rect
from repro.runtime import (
    CascadeDetector,
    EngineConfig,
    ScanEngine,
    ScanReport,
    ScoreCache,
)
from repro.service import canonical_report_json
from repro.shallow import make_logistic_density

from .conftest import DensityDetector, GradedDensityDetector, tiny_grating_dataset


class TestEquivalence:
    def test_matches_naive_scan(self, layer, region):
        naive = scan_layer(DensityDetector(0.3), layer, region)
        report = ScanEngine(DensityDetector(0.3)).scan(layer, region)
        assert report.centers == naive.centers
        assert np.array_equal(report.flagged, naive.flagged)
        assert np.allclose(report.scores, naive.scores)

    def test_chunking_does_not_change_scores(self, layer, region):
        det = GradedDensityDetector()
        a = ScanEngine(
            det, config=EngineConfig.from_kwargs(chunk_clips=7, dedup=False)
        ).scan(layer, region)
        b = ScanEngine(
            det, config=EngineConfig.from_kwargs(chunk_clips=500, dedup=False)
        ).scan(layer, region)
        assert a.scores.tobytes() == b.scores.tobytes()

    def test_workers_byte_identical(self, layer, region):
        det = make_logistic_density()
        det.fit(tiny_grating_dataset(), rng=np.random.default_rng(1))
        r1 = ScanEngine(
            det, config=EngineConfig.from_kwargs(workers=1)
        ).scan(layer, region)
        r2 = ScanEngine(
            det, config=EngineConfig.from_kwargs(workers=2)
        ).scan(layer, region)
        assert r1.scores.tobytes() == r2.scores.tobytes()
        assert np.array_equal(r1.flagged, r2.flagged)

    def test_region_too_small_raises(self, layer):
        with pytest.raises(ValueError):
            ScanEngine(DensityDetector()).scan(layer, Rect(0, 0, 100, 100))


class TestDedup:
    def test_repeated_patterns_scored_once(self, layer, region):
        report = ScanEngine(DensityDetector(0.3)).scan(layer, region)
        assert report.n_scored < report.n_windows
        assert report.dedup_ratio > 0.5  # the fixture layer is periodic
        assert (
            report.telemetry.counter("dedup_hits")
            + report.telemetry.counter("cache_hits")
            + report.n_scored
            == report.n_windows
        )

    def test_dedup_disabled_scores_everything(self, layer, region):
        report = ScanEngine(
            DensityDetector(0.3), config=EngineConfig.from_kwargs(dedup=False)
        ).scan(layer, region)
        assert report.n_scored == report.n_windows
        assert report.dedup_ratio == 0.0

    def test_warm_cache_second_scan_near_free(self, layer, region):
        cache = ScoreCache(detector_tag="density-cutoff")
        engine = ScanEngine(DensityDetector(0.3), cache=cache)
        first = engine.scan(layer, region)
        second = engine.scan(layer, region)
        assert second.n_scored == 0
        assert second.telemetry.counter("cache_hits") > 0
        assert np.array_equal(first.flagged, second.flagged)

    def test_cache_dir_persists_across_engines(self, layer, region, tmp_path):
        r1 = ScanEngine(
            DensityDetector(0.3),
            config=EngineConfig.from_kwargs(cache_dir=tmp_path),
        ).scan(layer, region)
        assert ScoreCache.dir_path(tmp_path).exists()
        r2 = ScanEngine(
            DensityDetector(0.3),
            config=EngineConfig.from_kwargs(cache_dir=tmp_path),
        ).scan(layer, region)
        assert r1.n_scored > 0
        assert r2.n_scored == 0
        assert np.array_equal(r1.flagged, r2.flagged)


class TestReport:
    def test_report_is_scanresult_superset(self, layer, region):
        report = ScanEngine(DensityDetector(0.3)).scan(layer, region)
        assert isinstance(report, ScanReport)
        assert len(report.clips) == len(report.centers) == report.n_windows
        assert report.heat_map().size == report.n_windows
        assert report.windows_per_s > 0
        assert "windows" in report.summary()

    def test_keep_clips_is_accepted_and_ignored(self, layer, region):
        kept = ScanEngine(DensityDetector(0.3)).scan(layer, region)
        report = ScanEngine(DensityDetector(0.3)).scan(
            layer, region, keep_clips=False
        )
        assert canonical_report_json(report.to_json()) == (
            canonical_report_json(kept.to_json())
        )
        assert report.clips == kept.clips
        assert report.flagged_clips() == kept.flagged_clips()
        assert len(report.flagged_clips()) == report.n_flagged
        assert len(report.hotspot_regions()) == report.n_flagged
        assert report.flag_ratio > 0  # n_windows-based, not clips-based

    def test_report_without_geometry_fails_loudly(self, layer, region):
        report = ScanEngine(DensityDetector(0.3)).scan(layer, region)
        assert report.n_flagged > 0
        assert "layer" not in repr(report)
        loaded = ScanReport.from_json(report.to_json())
        with pytest.raises(ValueError, match="no layer"):
            loaded.clips
        with pytest.raises(ValueError, match="no layer"):
            loaded.flagged_clips()
        with pytest.raises(ValueError, match="no core_nm"):
            loaded.hotspot_regions()
        # geometry without the layer: regions need no clip
        loaded.window_nm, loaded.core_nm = 768, 256
        assert loaded.hotspot_regions() == report.hotspot_regions()
        with pytest.raises(ValueError, match="no layer"):
            loaded.flagged_clips()

    def test_telemetry_embedded(self, layer, region):
        report = ScanEngine(DensityDetector(0.3)).scan(layer, region)
        assert report.telemetry.counter("windows") == report.n_windows
        assert report.telemetry.seconds("total") > 0
        text = report.telemetry.report()
        assert "windows" in text and "extract" in text


class TestVerification:
    def test_oracle_verifies_flagged_only(self, layer, region):
        class RecordingOracle:
            def __init__(self):
                self.seen = []

            def label(self, clip):
                self.seen.append(clip)
                return 1

        oracle = RecordingOracle()
        report = ScanEngine(DensityDetector(0.3)).scan(
            layer, region, oracle=oracle
        )
        assert report.confirmed is not None
        assert len(report.confirmed) == report.n_flagged
        # verification is deduped by pattern, so the oracle saw fewer
        assert len(oracle.seen) <= report.n_flagged
        assert len(oracle.seen) == report.telemetry.counter("verified_unique")

    def test_cascade_verifier_populates_confirmed(self, layer, region):
        class NoOracle:
            def label(self, clip):
                return 0

        cascade = CascadeDetector(
            primary=DensityDetector(0.3), verifier=NoOracle()
        )
        report = ScanEngine(cascade).scan(layer, region)
        assert report.confirmed is not None
        assert not report.confirmed.any()
        assert report.cascade_stats.verified > 0
        assert len(report.hotspot_regions()) == 0


def _replicated_block(seed: int = 7):
    """A 3x3 array of one routed cell — the repeated-cell chip workload."""
    rng = np.random.default_rng(seed)
    cell = Rect(0, 0, 2048, 2048)
    layer, _seeded = synthesize_routed_block(
        rng, cell, RoutedBlockConfig(n_marginal=2, marginal_len_nm=400)
    )
    tiled = replicate_block(layer, cell, nx=3, ny=3)
    return tiled, Rect(0, 0, 3 * 2048, 3 * 2048)


class TestAcceptance:
    """ISSUE acceptance: identical flags, >= 2x fewer expensive scores."""

    def test_cache_cascade_matches_naive_with_2x_dedup(self):
        layer, region = _replicated_block()
        train = tiny_grating_dataset(n=24, seed=0)
        rng = np.random.default_rng(3)
        prefilter = make_logistic_density()
        prefilter.fit(train, rng=rng)
        cascade = CascadeDetector(
            primary=GradedDensityDetector(), prefilter=prefilter
        )

        naive = scan_layer(cascade, layer, region)
        cascade.reset_stats()

        engine = ScanEngine(
            cascade, config=EngineConfig.from_kwargs(workers=1)
        )
        report = engine.scan(layer, region)

        # identical flagged windows
        assert report.centers == naive.centers
        assert np.array_equal(report.flagged, naive.flagged)

        # >= 2x fewer windows reach the expensive stage, proven by telemetry
        assert report.n_windows >= 2 * report.n_scored
        assert report.dedup_ratio >= 0.5
        assert report.cascade_stats.primary_scored <= report.n_scored
