"""Shared fixtures for the scan-service tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detector import Detector, FitReport
from repro.features import feature_tensor_batch
from repro.geometry import Layer, Rect, rasterize_clip
from repro.service import JobManager, encode_job_request


class GradedDensityDetector(Detector):  # lint: disable=raster-parity  (test double)
    """Continuous density score in [0, 1] — cheap and deterministic."""

    name = "density-graded"
    threshold = 0.5

    def fit(self, train, rng=None) -> FitReport:
        return FitReport()

    def predict_proba(self, clips):
        return np.clip([4.0 * c.density() for c in clips], 0.0, 1.0)


class GradedDCTDetector(Detector):
    """Density score read from the DC channel of the batched block DCT.

    Scans rasters through ``feature_tensor_batch``, as cnn-dct does, so a
    served scan on several worker threads runs the DCT concurrently.
    """

    name = "dct-graded"
    threshold = 0.3
    raster_pixel_nm = 8

    def fit(self, train, rng=None) -> FitReport:
        return FitReport()

    def predict_proba(self, clips):
        if not clips:
            return np.empty(0)
        return self.predict_proba_rasters(
            np.stack([rasterize_clip(c, 8, antialias=True) for c in clips])
        )

    def predict_proba_rasters(self, rasters):
        tensors = feature_tensor_batch(np.asarray(rasters, dtype=float), 8, 4)
        # the ortho DC coefficient of an 8x8 block is 8x its mean
        return np.clip(tensors[:, 0].mean(axis=(1, 2)) / 8.0, 0.0, 1.0)


@pytest.fixture
def detector() -> GradedDensityDetector:
    return GradedDensityDetector()


@pytest.fixture
def layer() -> Layer:
    """Sparse wires everywhere, one dense block in the lower-left."""
    layer = Layer("metal1")
    rects = []
    for i in range(30):
        rects.append(Rect(0, i * 256, 4096, i * 256 + 64))
    for i in range(8):
        rects.append(Rect(0, i * 256 + 128, 1500, i * 256 + 192))
    layer.add_rects(rects)
    return layer


@pytest.fixture
def region() -> Rect:
    """Small enough to scan in milliseconds: 6x6 = 36 windows."""
    return Rect(0, 0, 2048, 2048)


@pytest.fixture
def request_payload(layer, region):
    return encode_job_request(layer, region, engine={"chunk_clips": 8})


@pytest.fixture
def manager() -> JobManager:
    """In-memory manager with no checkpointing (pure lifecycle tests)."""
    return JobManager.in_memory()
