"""Tests for full-chip scanning."""

import numpy as np
import pytest

from repro.core import scan_layer
from repro.core.detector import Detector, FitReport
from repro.geometry import Layer, Rect


class DensityDetector(Detector):  # lint: disable=raster-parity  (test double)
    """Flags clips whose metal density exceeds a cutoff (test double)."""

    name = "density-cutoff"
    threshold = 0.5

    def __init__(self, cutoff=0.3):
        self.cutoff = cutoff

    def fit(self, train, rng=None):
        return FitReport()

    def predict_proba(self, clips):
        return np.array(
            [1.0 if c.density() > self.cutoff else 0.0 for c in clips]
        )


@pytest.fixture
def layer():
    """Sparse wires everywhere, one dense block in the lower-left."""
    layer = Layer("metal1")
    rects = []
    for i in range(30):
        rects.append(Rect(0, i * 256, 4096, i * 256 + 64))
    # dense block: extra wires between tracks in one corner
    for i in range(8):
        rects.append(Rect(0, i * 256 + 128, 1500, i * 256 + 192))
    layer.add_rects(rects)
    return layer


class TestScanLayer:
    def test_scan_tiles_region(self, layer):
        region = Rect(0, 0, 4096, 4096)
        result = scan_layer(DensityDetector(0.3), layer, region)
        assert len(result.clips) == len(result.centers)
        assert result.scores.shape == (len(result.clips),)

    def test_flags_only_dense_corner(self, layer):
        region = Rect(0, 0, 4096, 4096)
        result = scan_layer(DensityDetector(0.3), layer, region)
        assert 0 < result.n_flagged < len(result.clips)
        for clip in result.flagged_clips():
            cx, cy = clip.window.center
            assert cx < 2200 and cy < 2400  # the dense corner

    def test_heat_map_shape(self, layer):
        region = Rect(0, 0, 4096, 4096)
        result = scan_layer(DensityDetector(), layer, region)
        grid = result.heat_map()
        assert grid.size == len(result.clips)
        assert not np.isnan(grid).any()

    def test_flag_ratio(self, layer):
        region = Rect(0, 0, 4096, 4096)
        result = scan_layer(DensityDetector(0.0), layer, region)
        assert result.flag_ratio == 1.0

    def test_verification_path(self, layer):
        class YesOracle:
            def label(self, clip):
                return 1

        region = Rect(0, 0, 2048, 2048)
        result = scan_layer(
            DensityDetector(0.3), layer, region, oracle=YesOracle()
        )
        assert result.confirmed is not None
        assert len(result.confirmed) == result.n_flagged
        assert len(result.hotspot_regions()) == result.n_flagged

    def test_hotspot_regions_align_with_mixed_confirmations(self, layer):
        """confirmed[i] must pair with the i-th *flagged* clip, not the
        i-th clip overall."""

        class AlternatingOracle:
            def __init__(self):
                self.calls = 0

            def label(self, clip):
                self.calls += 1
                return self.calls % 2  # confirm every other flagged window

        region = Rect(0, 0, 4096, 4096)
        result = scan_layer(
            DensityDetector(0.3), layer, region, oracle=AlternatingOracle()
        )
        assert result.n_flagged > 1
        regions = result.hotspot_regions()
        flagged = result.flagged_clips()
        expected = [
            c.core for c, ok in zip(flagged, result.confirmed) if ok
        ]
        assert regions == expected
        assert 0 < len(regions) < result.n_flagged
        flagged_cores = {c.core.as_tuple() for c in flagged}
        assert all(r.as_tuple() in flagged_cores for r in regions)

    def test_heat_map_uneven_step_stays_finite(self, layer):
        """A step that doesn't evenly tile the region still yields a fully
        scored rectangular grid (centers are a cartesian product)."""
        region = Rect(0, 0, 4096, 4096)
        result = scan_layer(DensityDetector(), layer, region, step_nm=384)
        grid = result.heat_map()
        assert np.isfinite(grid).sum() == len(result.centers)

    def test_heat_map_irregular_centers_leave_nan_holes(self):
        """Centers that don't form a full grid (merged or partial scans)
        produce NaN holes — consumers must not treat them as score 0."""
        from repro.core.scan import ScanResult

        result = ScanResult(
            centers=[(0, 0), (256, 0), (0, 256)],  # missing (256, 256)
            scores=np.array([0.1, 0.2, 0.3]),
            flagged=np.array([False, False, False]),
        )
        grid = result.heat_map()
        assert grid.shape == (2, 2)
        assert np.isnan(grid).sum() == 1
        assert np.isnan(grid[1, 1])

    def test_region_too_small_raises(self, layer):
        with pytest.raises(ValueError):
            scan_layer(DensityDetector(), layer, Rect(0, 0, 100, 100))

    def test_custom_step(self, layer):
        region = Rect(0, 0, 4096, 4096)
        coarse = scan_layer(DensityDetector(), layer, region, step_nm=512)
        fine = scan_layer(DensityDetector(), layer, region, step_nm=256)
        assert len(fine.clips) > len(coarse.clips)
