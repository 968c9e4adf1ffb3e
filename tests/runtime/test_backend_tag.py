"""Stored scores never cross inference backends.

``fused-int8`` scores differ from ``fused`` ones, so a score cache, a
checkpoint or a chip manifest written under one backend must be refused
by a scan under another — replaying them would hand the scan another
backend's scores under its own name.
"""

import numpy as np
import pytest

from repro.contracts import ContractViolation
from repro.runtime import (
    CascadeDetector,
    CheckpointMismatch,
    EngineConfig,
    FaultInjector,
    ScanEngine,
    scan_chip,
)
from repro.runtime.engine import detector_tag  # lint: disable=no-deep-runtime-import  (white-box test of the tag every store keys on)

from .conftest import GradedDensityDetector, tiny_grating_dataset


@pytest.fixture(scope="module")
def cnn():
    """A briefly trained cnn-dct (each engine sets its own backend)."""
    from repro.nn import CNNDetector, CNNDetectorConfig

    detector = CNNDetector(CNNDetectorConfig(epochs=1, biased_epsilon=None))
    detector.fit(tiny_grating_dataset(), rng=np.random.default_rng(0))
    return detector


def _engine(cnn, backend, **kw):
    config = EngineConfig.from_kwargs(infer_backend=backend, **kw)
    return ScanEngine(cnn, config=config)


def test_tag_names_every_backend(cnn):
    cnn.set_backend("fused")
    assert detector_tag(cnn) == "cnn-dct@fused"
    assert detector_tag(cnn, "fused-int8") == "cnn-dct@fused-int8"
    cascade = CascadeDetector(primary=cnn, name="cascade")
    assert detector_tag(cascade) == "cascade@fused"
    # detectors without a backend keep their plain name
    assert detector_tag(GradedDensityDetector()) == "density-graded"


def test_score_cache_refuses_another_backend(cnn, layer, region, tmp_path):
    int8 = _engine(cnn, "fused-int8", cache_dir=tmp_path)
    int8_scores = int8.scan(layer, region, keep_clips=False).scores
    fused = _engine(cnn, "fused", dedup=False).scan(
        layer, region, keep_clips=False
    )
    # what a fused scan would have replayed from the int8 cache
    assert not np.array_equal(fused.scores, int8_scores)
    with pytest.raises(ValueError, match="refusing to reuse"):
        _engine(cnn, "fused", cache_dir=tmp_path)
    # the same backend still warms up from it
    again = _engine(cnn, "fused-int8", cache_dir=tmp_path)
    assert again.scan(layer, region, keep_clips=False).n_scored == 0


def test_checkpoint_refuses_another_backend(cnn, layer, region, tmp_path):
    kw = dict(
        checkpoint_dir=tmp_path / "ckpt", checkpoint_every_chunks=1,
        chunk_clips=4, on_invalid_score="raise", max_chunk_retries=0,
    )
    config = EngineConfig.from_kwargs(infer_backend="fused-int8", **kw)
    interrupted = ScanEngine(
        cnn, config=config, faults=FaultInjector("nan_score@3")
    )
    with pytest.raises(ContractViolation):
        interrupted.scan(layer, region, keep_clips=False)
    with pytest.raises(CheckpointMismatch):
        _engine(cnn, "fused", **kw).scan(
            layer, region, keep_clips=False, resume=True
        )


def test_chip_manifest_refuses_another_backend(cnn, layer, region, tmp_path):
    manifest = tmp_path / "chip.npz"
    scan_chip(
        layer, cnn,
        EngineConfig.from_kwargs(
            shards=4, manifest=manifest, infer_backend="fused-int8"
        ),
        region=region,
    )
    with pytest.raises(ValueError, match="was scored by"):
        scan_chip(
            layer, cnn,
            EngineConfig.from_kwargs(
                shards=4, rescan_from=manifest, infer_backend="fused"
            ),
            region=region,
        )
