"""Tests for the DCT feature tensor: shapes, energy, invertibility."""

import numpy as np
import pytest

from repro.features import (
    DCTFeatureTensor,
    feature_tensor,
    inverse_feature_tensor,
)
from repro.geometry import rasterize_clip


class TestFeatureTensor:
    def test_shape(self):
        raster = np.random.default_rng(0).random((96, 96))
        t = feature_tensor(raster, block=8, keep=4)
        assert t.shape == (16, 12, 12)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            feature_tensor(np.ones((90, 96)), block=8, keep=4)

    def test_dc_channel_is_block_mean(self):
        rng = np.random.default_rng(1)
        raster = rng.random((32, 32))
        t = feature_tensor(raster, block=8, keep=2)
        # ortho-normalized 2-D DCT: DC coefficient = block_sum / block_size
        expected = raster.reshape(4, 8, 4, 8).transpose(0, 2, 1, 3).mean(axis=(2, 3)) * 8
        np.testing.assert_allclose(t[0], expected, rtol=1e-10)

    def test_full_keep_is_lossless(self):
        rng = np.random.default_rng(2)
        raster = rng.random((32, 32))
        t = feature_tensor(raster, block=8, keep=8)
        back = inverse_feature_tensor(t, block=8, keep=8)
        np.testing.assert_allclose(back, raster, atol=1e-10)

    def test_truncation_is_lowpass(self):
        """Reconstruction error decreases as more coefficients are kept."""
        rng = np.random.default_rng(3)
        raster = rng.random((32, 32))
        errors = []
        for keep in (2, 4, 6, 8):
            t = feature_tensor(raster, block=8, keep=keep)
            back = inverse_feature_tensor(t, block=8, keep=keep)
            errors.append(np.abs(back - raster).mean())
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] == pytest.approx(0.0, abs=1e-10)

    def test_smooth_pattern_reconstructs_well_at_low_keep(self):
        """Layout-like (blocky) content concentrates in low frequencies."""
        raster = np.zeros((32, 32))
        raster[:, 8:24] = 1.0
        t = feature_tensor(raster, block=8, keep=4)
        back = inverse_feature_tensor(t, block=8, keep=4)
        assert np.abs(back - raster).mean() < 0.05

    def test_inverse_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            inverse_feature_tensor(np.zeros((9, 4, 4)), block=8, keep=4)


class TestExtractor:
    def test_tensor_mode(self, grating_clip):
        t = DCTFeatureTensor(block=8, keep=4).extract(grating_clip)
        assert t.shape == (16, 12, 12)

    def test_flat_mode(self, grating_clip):
        v = DCTFeatureTensor(block=8, keep=4, flatten=True).extract(grating_clip)
        assert v.shape == (16 * 12 * 12,)

    def test_matches_manual_pipeline(self, grating_clip):
        extractor = DCTFeatureTensor(block=8, keep=4)
        manual = feature_tensor(rasterize_clip(grating_clip, 8), 8, 4)
        np.testing.assert_allclose(extractor.extract(grating_clip), manual)

    def test_bad_keep_raises(self):
        with pytest.raises(ValueError):
            DCTFeatureTensor(block=8, keep=9)
        with pytest.raises(ValueError):
            DCTFeatureTensor(block=8, keep=0)

    def test_names_distinct(self):
        a = DCTFeatureTensor(block=8, keep=4)
        b = DCTFeatureTensor(block=8, keep=4, flatten=True)
        assert a.name != b.name


class TestPlaneFeatureSlicing:
    """Block independence: a window's tensor is a slice of the plane's.

    The raster-plane scan engine relies on this to transform each band
    once and slice per-window feature tensors out — the equality must be
    bit-exact, since the plan path promises byte-identical flags.
    """

    def test_window_slice_is_bit_identical(self):
        from repro.nn.detector import CNNDetector

        rng = np.random.default_rng(3)
        det = CNNDetector()  # unfitted is fine: extraction has no weights
        plane = rng.random((160, 224))
        feats = det.plane_feature_tensor(plane)
        assert feats.shape == (16, 20, 28)
        for oy, ox in [(0, 0), (32, 64), (64, 128)]:
            window = plane[oy : oy + 96, ox : ox + 96]
            direct = det.extractor.extract_batch(window[None].copy())[0]
            sliced = feats[:, oy // 8 : oy // 8 + 12, ox // 8 : ox // 8 + 12]
            assert np.array_equal(sliced, direct), (oy, ox)

    def test_detector_advertises_block(self):
        from repro.nn.detector import CNNDetector

        assert CNNDetector().plane_feature_block() == 8


class TestBatchThreadSafety:
    def test_concurrent_batches_of_one_shape_do_not_mix(self):
        """Threads extracting distinct stacks of one shape at once each get
        exactly their single-threaded result.

        ``feature_tensor_batch`` reuses scratch buffers across calls; shared
        between threads, one thread's intermediate overwrote another's
        (sharded and served scans run detectors on threads).
        """
        import sys
        import threading

        from repro.features import feature_tensor_batch

        rng = np.random.default_rng(3)
        stacks = [rng.random((32, 96, 96)) for _ in range(3)]  # > 2 cores
        expected = [feature_tensor_batch(s, 8, 4) for s in stacks]
        start = threading.Barrier(len(stacks))
        mismatches = [0] * len(stacks)

        def hammer(k):
            start.wait(timeout=30)
            for _ in range(30):
                if not np.array_equal(feature_tensor_batch(stacks[k], 8, 4), expected[k]):
                    mismatches[k] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k,)) for k in range(len(stacks))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == [0] * len(stacks)
