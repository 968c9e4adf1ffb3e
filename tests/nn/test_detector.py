"""Tests for the CNN detectors on the toy separable clip task."""

import numpy as np
import pytest

from repro.nn import (
    CNNDetector,
    CNNDetectorConfig,
    RasterCNNDetector,
    RasterCNNDetectorConfig,
)


@pytest.fixture(scope="module")
def toy_dataset():
    from repro.data.dataset import ClipDataset

    from ..conftest import synthetic_labeled_clips

    rng = np.random.default_rng(1234)
    clips, labels = synthetic_labeled_clips(rng, n=44)
    return ClipDataset("toy", clips, labels)


class TestCNNDetector:
    def test_unfitted_raises(self, toy_dataset):
        with pytest.raises(RuntimeError):
            CNNDetector().predict_proba(toy_dataset.clips[:2])

    def test_learns_toy_task(self, toy_dataset, rng):
        det = CNNDetector(
            CNNDetectorConfig(epochs=6, biased_epsilon=None, width=8)
        )
        report = det.fit(toy_dataset, rng=rng)
        assert report.train_seconds > 0
        assert "params=" in report.notes
        pred = det.predict(toy_dataset.clips)
        assert (pred == toy_dataset.labels).mean() >= 0.9

    def test_biased_phase_runs(self, toy_dataset, rng):
        det = CNNDetector(
            CNNDetectorConfig(
                epochs=2, biased_epsilon=0.2, biased_epochs=1, width=4
            )
        )
        det.fit(toy_dataset, rng=rng)
        probs = det.predict_proba(toy_dataset.clips[:4])
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_deterministic_given_rng(self, toy_dataset):
        scores = []
        for _ in range(2):
            det = CNNDetector(
                CNNDetectorConfig(epochs=2, biased_epsilon=None, width=4)
            )
            det.fit(toy_dataset, rng=np.random.default_rng(5))
            scores.append(det.predict_proba(toy_dataset.clips[:6]))
        np.testing.assert_allclose(scores[0], scores[1])


class TestRasterCNNDetector:
    def test_learns_toy_task(self, toy_dataset, rng):
        det = RasterCNNDetector(
            RasterCNNDetectorConfig(epochs=4, width=4, batch_size=8)
        )
        det.fit(toy_dataset, rng=rng)
        pred = det.predict(toy_dataset.clips)
        assert (pred == toy_dataset.labels).mean() >= 0.85

    def test_unfitted_raises(self, toy_dataset):
        with pytest.raises(RuntimeError):
            RasterCNNDetector().predict_proba(toy_dataset.clips[:1])


class TestFittedState:
    """A fitted CNN holds its weights and calibration, not its last batch."""

    @pytest.mark.parametrize(
        "det",
        [
            pytest.param(
                CNNDetector(
                    CNNDetectorConfig(epochs=1, biased_epsilon=None, width=4)
                ),
                id="cnn-dct",
            ),
            pytest.param(
                CNNDetector(
                    CNNDetectorConfig(
                        epochs=1, biased_epsilon=None, width=4, calibrate=None
                    )
                ),
                id="cnn-dct-uncalibrated",
            ),
            pytest.param(
                RasterCNNDetector(
                    RasterCNNDetectorConfig(epochs=1, width=4, batch_size=8)
                ),
                id="cnn-raster",
            ),
        ],
    )
    def test_fitted_state_carries_no_backward_cache(self, toy_dataset, det):
        from repro.core.detector import detector_to_state

        det.fit(toy_dataset, rng=np.random.default_rng(0))
        params = sum(
            p.value.nbytes + p.grad.nbytes for p in det.model.params()
        )
        calibration = (
            0 if det._calibration_x is None else det._calibration_x.nbytes
        )
        slack = 64 * 1024  # config, extractor, pickle framing
        assert len(detector_to_state(det)) <= params + calibration + slack


class TestPersistence:
    def test_save_load_roundtrip(self, toy_dataset, tmp_path):
        from repro.nn import CNNDetector, CNNDetectorConfig

        det = CNNDetector(
            CNNDetectorConfig(epochs=2, biased_epsilon=None, width=4)
        )
        det.fit(toy_dataset, rng=np.random.default_rng(5))
        before = det.predict_proba(toy_dataset.clips[:6])
        path = tmp_path / "model.npz"
        det.save(path)
        loaded = CNNDetector.load(path)
        after = loaded.predict_proba(toy_dataset.clips[:6])
        np.testing.assert_allclose(before, after, rtol=1e-10)
        assert loaded.threshold == det.threshold

    def test_save_unfitted_raises(self, tmp_path):
        from repro.nn import CNNDetector

        with pytest.raises(RuntimeError):
            CNNDetector().save(tmp_path / "x.npz")
