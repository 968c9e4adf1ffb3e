"""Raster-plane scan path: equivalence with the per-clip reference path.

The fast path must be an *optimization*, not a different detector: for
every supported configuration the flagged window set matches the clip
path exactly and scores agree to float tolerance.  These tests sweep the
same layer through both paths (dedup on and off, bands wide and narrow,
budget-constrained planes) and compare.
"""

import numpy as np
import pytest

from repro.core.detector import Detector, FitReport, supports_raster_scan
from repro.geometry import Layer, Rect
from repro.geometry.layout import iter_tile_centers
from repro.geometry.rasterize import (
    raster_fingerprint,
    rasterize_clip,
    rasterize_region,
)
from repro.runtime import EngineConfig, ScanEngine, ScoreCache
from repro.runtime.engine import (  # lint: disable=no-deep-runtime-import  (white-box test of the private band iterator)
    _iter_raster_bands,
)
from repro.shallow import make_logistic_density

from .conftest import DensityDetector, tiny_grating_dataset


class RasterMeanDetector(Detector):
    """Scores the raster's mean coverage — raster-capable test double.

    ``predict_proba`` rasterizes each clip, so the clip and raster paths
    compute the same quantity through both pipelines and any divergence
    is the scan machinery's fault.
    """

    name = "raster-mean"
    threshold = 0.5

    def __init__(self, pixel_nm: int = 8) -> None:
        self.pixel_nm = pixel_nm

    def fit(self, train, rng=None) -> FitReport:
        return FitReport()

    def predict_proba(self, clips):
        if len(clips) == 0:
            return np.empty(0, dtype=np.float64)
        return np.array(
            [
                min(1.0, 4.0 * rasterize_clip(c, self.pixel_nm).mean())
                for c in clips
            ]
        )

    def predict_proba_rasters(self, rasters):
        rasters = np.asarray(rasters, dtype=np.float64)
        if len(rasters) == 0:
            return np.empty(0, dtype=np.float64)
        return np.minimum(1.0, 4.0 * rasters.mean(axis=(1, 2)))

    @property
    def raster_pixel_nm(self) -> int:
        return self.pixel_nm


@pytest.fixture
def tiled_layer() -> Layer:
    """A 2x2-replicated wire cell: repeats for dedup, detail for scores."""
    layer = Layer("metal1")
    rects = []
    for ox, oy in [(0, 0), (2048, 0), (0, 2048), (2048, 2048)]:
        for i in range(8):
            rects.append(
                Rect(ox, oy + i * 256, ox + 2048, oy + i * 256 + 64)
            )
        rects.append(Rect(ox + 300, oy + 100, ox + 420, oy + 1900))
        rects.append(Rect(ox + 900, oy + 140, ox + 1500, oy + 260))
    layer.add_rects(rects)
    return layer


REGION = Rect(0, 0, 4096, 4096)


def _scan(detector, layer, *, raster_plane, dedup=True, **kw):
    engine = ScanEngine(
        detector, config=EngineConfig.from_kwargs(
            raster_plane=raster_plane, dedup=dedup, **kw
        ),
    )
    return engine.scan(layer, REGION, keep_clips=False)


class TestEquivalence:
    @pytest.mark.parametrize("dedup", [False, True], ids=["direct", "dedup"])
    def test_scores_and_flags_match_clip_path(self, tiled_layer, dedup):
        det = RasterMeanDetector()
        clip = _scan(det, tiled_layer, raster_plane=False, dedup=dedup)
        rast = _scan(det, tiled_layer, raster_plane=True, dedup=dedup)
        assert clip.scan_path == "clip" and rast.scan_path == "raster"
        assert rast.centers == clip.centers
        np.testing.assert_allclose(rast.scores, clip.scores, atol=1e-9)
        assert np.array_equal(rast.flagged, clip.flagged)

    def test_dedup_actually_dedups_rasters(self, tiled_layer):
        rast = _scan(RasterMeanDetector(), tiled_layer, raster_plane=True)
        # the 2x2 replication means far fewer unique patterns than windows
        assert rast.n_scored < rast.n_windows
        assert rast.dedup_ratio > 0.3

    def test_fitted_library_detector_matches(self, tiled_layer):
        det = make_logistic_density()
        det.fit(tiny_grating_dataset(), rng=np.random.default_rng(1))
        clip = _scan(det, tiled_layer, raster_plane=False, dedup=False)
        rast = _scan(det, tiled_layer, raster_plane=True, dedup=False)
        np.testing.assert_allclose(rast.scores, clip.scores, atol=1e-9)
        assert np.array_equal(rast.flagged, clip.flagged)

    def test_workers_match_in_process(self, tiled_layer):
        det = make_logistic_density()
        det.fit(tiny_grating_dataset(), rng=np.random.default_rng(1))
        one = _scan(det, tiled_layer, raster_plane=True, dedup=False)
        two = _scan(
            det, tiled_layer, raster_plane=True, dedup=False, workers=2
        )
        assert np.array_equal(one.scores, two.scores)


class TestBandGeometry:
    """Band partitioning must never change results, only plane sizes."""

    @pytest.mark.parametrize("band_rows", [1, 3, 64])
    def test_band_rows_invariant(self, tiled_layer, band_rows):
        det = RasterMeanDetector()
        baseline = _scan(det, tiled_layer, raster_plane=False, dedup=False)
        banded = _scan(
            det,
            tiled_layer,
            raster_plane=True,
            dedup=False,
            band_rows=band_rows,
        )
        assert banded.centers == baseline.centers
        np.testing.assert_allclose(banded.scores, baseline.scores, atol=1e-9)

    def test_tiny_plane_budget_segments_rows(self, tiled_layer):
        """A budget below one full row forces x-segmentation — still exact."""
        det = RasterMeanDetector()
        baseline = _scan(det, tiled_layer, raster_plane=False, dedup=False)
        segmented = _scan(
            det,
            tiled_layer,
            raster_plane=True,
            dedup=False,
            max_plane_pixels=2 * (768 // 8) ** 2,  # ~2 windows per plane
        )
        assert segmented.centers == baseline.centers
        np.testing.assert_allclose(
            segmented.scores, baseline.scores, atol=1e-9
        )
        assert segmented.telemetry.counter("raster_bands") > len(
            set(y for _, y in baseline.centers)
        )

    def test_band_iterator_preserves_row_major_order(self):
        from repro.geometry import iter_tile_centers

        region = Rect(0, 0, 3000, 2000)
        expected = list(iter_tile_centers(region, 768, 256))
        for band_rows, budget in [(4, 10**9), (2, 50_000), (1, 9_300)]:
            got = []
            for centers, box in _iter_raster_bands(
                region, 768, 256, 8, band_rows, budget
            ):
                got.extend(centers)
                assert box.width // 8 * (box.height // 8) <= budget
            assert got == expected, (band_rows, budget)

    def test_keep_clips_retains_clip_objects(self, tiled_layer):
        report = ScanEngine(
            RasterMeanDetector(),
            config=EngineConfig.from_kwargs(raster_plane=True, dedup=False),
        ).scan(tiled_layer, REGION, keep_clips=True)
        assert len(report.clips) == report.n_windows
        assert report.clips[0].window.width == 768
        assert len(report.flagged_clips()) == report.n_flagged


class TestPathSelection:
    def test_auto_picks_raster_when_supported(self, tiled_layer):
        report = _scan(RasterMeanDetector(), tiled_layer, raster_plane=None)
        assert report.scan_path == "raster"

    def test_auto_falls_back_for_clip_only_detector(self, tiled_layer):
        assert not supports_raster_scan(DensityDetector())
        report = _scan(DensityDetector(), tiled_layer, raster_plane=None)
        assert report.scan_path == "clip"

    def test_auto_falls_back_on_misaligned_geometry(self, tiled_layer):
        class Misaligned(RasterMeanDetector):
            raster_pixel_nm = 7  # 768 % 7 != 0; clips still render at 8

        report = _scan(Misaligned(), tiled_layer, raster_plane=None)
        assert report.scan_path == "clip"

    def test_required_raster_raises_when_unsupported(self, tiled_layer):
        class Misaligned(RasterMeanDetector):
            raster_pixel_nm = 7

        with pytest.raises(ValueError, match="raster"):
            _scan(DensityDetector(), tiled_layer, raster_plane=True)
        with pytest.raises(ValueError, match="divisible"):
            _scan(Misaligned(), tiled_layer, raster_plane=True)

    def test_forced_clip_path(self, tiled_layer):
        report = _scan(RasterMeanDetector(), tiled_layer, raster_plane=False)
        assert report.scan_path == "clip"

    def test_supports_raster_scan_rejects_bad_pixel(self):
        det = RasterMeanDetector()
        assert supports_raster_scan(det)

        class NoPixel(RasterMeanDetector):
            raster_pixel_nm = None

        class ZeroPixel(RasterMeanDetector):
            raster_pixel_nm = 0

        assert not supports_raster_scan(NoPixel())
        assert not supports_raster_scan(ZeroPixel())


class FeatureMeanDetector(RasterMeanDetector):
    """Block-DCT double: exercises the plane-shared feature fast path.

    Scores are a function of the window's DCT feature tensor, computed
    identically by the raster path (per-window transform) and the plane
    path (one transform per band, sliced) — so any divergence between
    the two is the plane-slicing arithmetic's fault.
    """

    name = "feature-mean"
    block = 8
    keep = 4

    @property
    def raster_pixel_nm(self) -> int:  # restated for the raster-parity lint
        return self.pixel_nm

    def predict_proba(self, clips):
        if len(clips) == 0:
            return np.empty(0, dtype=np.float64)
        rasters = np.stack(
            [rasterize_clip(c, self.pixel_nm) for c in clips]
        )
        return self.predict_proba_rasters(rasters)

    def predict_proba_rasters(self, rasters):
        from repro.features.dct import feature_tensor_batch

        rasters = np.asarray(rasters, dtype=np.float64)
        if len(rasters) == 0:
            return np.empty(0, dtype=np.float64)
        return self.predict_proba_features(
            feature_tensor_batch(rasters, self.block, self.keep)
        )

    def plane_feature_block(self):
        return self.block

    def plane_feature_tensor(self, plane):
        from repro.features.dct import feature_tensor_batch

        return feature_tensor_batch(
            np.asarray(plane, dtype=np.float64)[None], self.block, self.keep
        )[0]

    def predict_proba_features(self, feats):
        feats = np.asarray(feats, dtype=np.float64)
        if len(feats) == 0:
            return np.empty(0, dtype=np.float64)
        # DC channel carries block means; any deterministic reduction works
        return np.minimum(1.0, feats[:, 0].mean(axis=(1, 2)))


class TestPlaneFeaturePath:
    """The band plane is feature-transformed once and windows slice it."""

    def test_plane_features_match_clip_path(self, tiled_layer):
        det = FeatureMeanDetector()
        clip = _scan(det, tiled_layer, raster_plane=False, dedup=False)
        rast = _scan(det, tiled_layer, raster_plane=True, dedup=False)
        assert rast.centers == clip.centers
        np.testing.assert_allclose(rast.scores, clip.scores, atol=1e-12)
        assert np.array_equal(rast.flagged, clip.flagged)
        # the fast path actually ran: one transform per band, not none
        assert rast.telemetry.counters["feature_planes"] >= 1
        assert rast.telemetry.counters["feature_planes"] == (
            rast.telemetry.counters["raster_bands"]
        )

    def test_plane_features_match_raster_window_path(self, tiled_layer):
        """Feature slices must equal per-window transforms bit-for-bit."""
        det = FeatureMeanDetector()
        rast = _scan(det, tiled_layer, raster_plane=True, dedup=False)

        class NoPlane(FeatureMeanDetector):
            plane_feature_block = None  # hides the hook; raster fallback

        fallback = _scan(NoPlane(), tiled_layer, raster_plane=True, dedup=False)
        assert fallback.telemetry.counters.get("feature_planes", 0) == 0
        assert np.array_equal(rast.scores, fallback.scores)

    def test_misaligned_step_falls_back_to_raster_windows(self, tiled_layer):
        det = FeatureMeanDetector()
        engine = ScanEngine(
            det, config=EngineConfig.from_kwargs(raster_plane=True, dedup=False)
        )
        # step 96 nm is not a multiple of the 64 nm feature-block pitch
        report = engine.scan(tiled_layer, REGION, step_nm=96, keep_clips=False)
        assert report.scan_path == "raster"
        assert report.telemetry.counters.get("feature_planes", 0) == 0
        clip = ScanEngine(
            det,
            config=EngineConfig.from_kwargs(raster_plane=False, dedup=False),
        ).scan(tiled_layer, REGION, step_nm=96, keep_clips=False)
        np.testing.assert_allclose(report.scores, clip.scores, atol=1e-12)

    def test_dedup_path_shares_plane_features(self, tiled_layer):
        """Dedup slices the band's feature tensor, with unchanged scores."""
        det = FeatureMeanDetector()
        rast = _scan(det, tiled_layer, raster_plane=True, dedup=True)
        counters = rast.telemetry.counters
        assert counters["feature_planes"] == counters["raster_bands"] >= 1
        assert counters["dedup_hits"] > 0
        direct = _scan(det, tiled_layer, raster_plane=True, dedup=False)
        assert rast.scores.tobytes() == direct.scores.tobytes()

        class NoPlane(FeatureMeanDetector):
            plane_feature_block = None  # hides the hook; raster exemplars

        hidden = _scan(NoPlane(), tiled_layer, raster_plane=True, dedup=True)
        assert hidden.telemetry.counters.get("feature_planes", 0) == 0
        assert rast.scores.tobytes() == hidden.scores.tobytes()

    @pytest.mark.parametrize(
        "max_plane_pixels", [32_000_000, 30_000], ids=["bands", "row-segments"]
    )
    @pytest.mark.parametrize(
        "detector", [FeatureMeanDetector, RasterMeanDetector],
        ids=["plane-features", "raster-windows"],
    )
    def test_dedup_keys_are_raster_fingerprints(
        self, tiled_layer, detector, max_plane_pixels
    ):
        """Each window keys as raster_fingerprint of its raster slice.

        The cache is seeded with one distinct score per expected key, so
        a window keyed any other way misses, gets scored, and shows.
        """
        plane = rasterize_region(tiled_layer, REGION, 8)
        centers = list(iter_tile_centers(REGION, 768, 256))
        expected = [
            raster_fingerprint(plane.window(Rect.from_center(x, y, 768, 768)))
            for x, y in centers
        ]
        seeded = {
            key: (i + 1) / 1024 for i, key in enumerate(dict.fromkeys(expected))
        }
        cache = ScoreCache()
        for key, score in seeded.items():
            cache.put(key, score)
        engine = ScanEngine(
            detector(),
            config=EngineConfig.from_kwargs(
                raster_plane=True, max_plane_pixels=max_plane_pixels
            ),
            cache=cache,
        )
        report = engine.scan(tiled_layer, REGION, keep_clips=False)
        counters = report.telemetry.counters
        if max_plane_pixels < 32_000_000:
            # every band is one segment of one window row
            assert counters["raster_bands"] > 14
        assert counters.get("scored", 0) == 0
        assert report.centers == centers
        assert report.scores.tolist() == [seeded[k] for k in expected]


class TestEmptyInputRegressions:
    def test_predict_on_empty(self):
        det = RasterMeanDetector()
        assert det.predict([]).shape == (0,)
        assert det.predict_proba([]).shape == (0,)
        assert det.predict_proba_rasters(np.zeros((0, 96, 96))).shape == (0,)

    def test_feature_detector_empty(self):
        det = make_logistic_density()
        det.fit(tiny_grating_dataset(), rng=np.random.default_rng(1))
        assert det.predict_proba([]).shape == (0,)
        assert det.predict([]).shape == (0,)
        assert det.predict_proba_rasters(np.zeros((0, 96, 96))).shape == (0,)
