"""Checkpoint / resume: an interrupted scan continues byte-identically.

The contract under test: kill a scan at an arbitrary point, re-run it
with ``resume=True``, and the final report's scores and flagged set are
byte-identical to a never-interrupted scan — on the direct, dedup, and
raster scan strategies.  Resume must also refuse checkpoints from a
different scan configuration and survive a corrupt checkpoint file.
"""

import numpy as np
import pytest

from repro.contracts import ContractViolation
from repro.runtime import (
    CHECKPOINT_NAME,
    Checkpointer,
    CheckpointMismatch,
    EngineConfig,
    FaultInjector,
    ScanEngine,
    scan_config_hash,
)

from ._fault_doubles import (
    FlakyDensityDetector,
    FlakyRasterMeanDetector,
    RasterMeanDetector,
)
from .conftest import DensityDetector
from .test_raster_plane import FeatureMeanDetector

# chunk_clips=4 keeps every strategy multi-chunk (the layer fixture has
# only 13 unique patterns, and the dedup paths chunk by unique pattern)
FAST = dict(
    workers=1, chunk_clips=4, checkpoint_every_chunks=1,
    max_chunk_retries=0, retry_backoff_s=0.0,
)


def _scan(engine, layer, region, **kw):
    return engine.scan(layer, region, keep_clips=False, **kw)


def _ckpt_path(tmp_path):
    return tmp_path / "ckpt" / CHECKPOINT_NAME


# ----------------------------------------------------------------------
# interrupt + resume, per strategy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dedup", [False, True], ids=["direct", "dedup"])
def test_interrupted_scan_resumes_byte_identical(layer, region, tmp_path, dedup):
    clean = _scan(
        ScanEngine(DensityDetector(), config=EngineConfig.from_kwargs(
            dedup=dedup, raster_plane=False, **FAST,
        )),
        layer, region,
    )

    flaky = ScanEngine(
        FlakyDensityDetector(fail_after=2), config=EngineConfig.from_kwargs(
            dedup=dedup, raster_plane=False,
            checkpoint_dir=tmp_path / "ckpt", **FAST,
        ),
    )
    with pytest.raises(RuntimeError, match="flaky detector"):
        _scan(flaky, layer, region)
    assert _ckpt_path(tmp_path).exists()

    resumed = ScanEngine(
        DensityDetector(), config=EngineConfig.from_kwargs(
            dedup=dedup, raster_plane=False,
            checkpoint_dir=tmp_path / "ckpt", **FAST,
        ),
    )
    report = _scan(resumed, layer, region, resume=True)

    assert np.array_equal(report.scores, clean.scores)
    assert np.array_equal(report.flagged, clean.flagged)
    t = report.telemetry
    assert t.counter("checkpoint_resumed") == 1
    assert t.counter("resume_hits") > 0
    # the resumed scan scored strictly less than the full window count
    assert t.counter("scored") < clean.telemetry.counter("scored")
    # success deletes the checkpoint: nothing left to mis-resume from
    assert not _ckpt_path(tmp_path).exists()


def test_interrupted_raster_scan_resumes_byte_identical(layer, region, tmp_path):
    clean = _scan(
        ScanEngine(RasterMeanDetector(), config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=True, **FAST,
        )),
        layer, region,
    )
    assert clean.scan_path == "raster"

    flaky = ScanEngine(
        FlakyRasterMeanDetector(fail_after=2), config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=True,
            checkpoint_dir=tmp_path / "ckpt", **FAST,
        ),
    )
    with pytest.raises(RuntimeError, match="flaky raster"):
        _scan(flaky, layer, region)
    assert _ckpt_path(tmp_path).exists()

    report = _scan(
        ScanEngine(
            RasterMeanDetector(), config=EngineConfig.from_kwargs(
                dedup=False, raster_plane=True,
                checkpoint_dir=tmp_path / "ckpt", **FAST,
            ),
        ),
        layer, region, resume=True,
    )
    assert np.array_equal(report.scores, clean.scores)
    assert np.array_equal(report.flagged, clean.flagged)
    assert report.telemetry.counter("resume_hits") > 0


#: (window source, mode) — every way the engine can cut and score windows
SOURCE_MATRIX = [
    ("clip", "direct"),
    ("clip", "dedup"),
    ("raster", "direct"),
    ("raster", "dedup"),
    ("plane-feature", "direct"),
    ("plane-feature", "dedup"),
]


class GradedFeatureMean(FeatureMeanDetector):
    """Unsaturated scores on every path, so a misplaced replay shows.

    (The fixture layer is >= 25% metal everywhere, which saturates the
    other raster doubles at 1.0.)
    """

    name = "feature-graded"

    def predict_proba_features(self, feats):
        dc = np.asarray(feats, dtype=np.float64)[:, 0].mean(axis=(1, 2))
        return dc / (1.0 + dc)


class GradedRasterWindows(GradedFeatureMean):
    plane_feature_block = None  # hides the hook: plain raster slices


def _matrix_engine(source, mode, tmp_path=None, faults=None):
    detector = (
        GradedRasterWindows() if source == "raster" else GradedFeatureMean()
    )
    config = EngineConfig.from_kwargs(
        dedup=mode == "dedup",
        raster_plane=source != "clip",
        on_invalid_score="raise",
        checkpoint_dir=None if tmp_path is None else tmp_path / "ckpt",
        **FAST,
    )
    return ScanEngine(detector, config=config, faults=faults)


@pytest.mark.parametrize(
    "source,mode", SOURCE_MATRIX, ids=[f"{s}-{m}" for s, m in SOURCE_MATRIX]
)
def test_every_window_source_resumes_byte_identical(
    layer, region, tmp_path, source, mode
):
    clean = _matrix_engine(source, mode).scan(layer, region)
    expect_path = "clip" if source == "clip" else "raster"
    assert clean.scan_path == expect_path
    planes = clean.telemetry.counter("feature_planes")
    assert (planes > 0) == (source == "plane-feature")
    assert len(np.unique(clean.scores)) > 2  # graded, not saturated

    # the fourth scored chunk comes back NaN and the scan dies on it
    interrupted = _matrix_engine(
        source, mode, tmp_path, faults=FaultInjector("nan_score@3")
    )
    with pytest.raises(ContractViolation):
        interrupted.scan(layer, region)
    assert _ckpt_path(tmp_path).exists()

    report = _matrix_engine(source, mode, tmp_path).scan(
        layer, region, resume=True
    )
    assert report.scan_path == expect_path
    assert report.centers == clean.centers
    assert report.scores.tobytes() == clean.scores.tobytes()
    assert report.flagged.tobytes() == clean.flagged.tobytes()
    assert report.clips == clean.clips
    assert report.flagged_clips() == clean.flagged_clips()
    t = report.telemetry
    assert t.counter("checkpoint_resumed") == 1
    assert t.counter("resume_hits") > 0
    assert t.counter("scored") < clean.telemetry.counter("scored")
    assert not _ckpt_path(tmp_path).exists()


def test_completed_scan_checkpoints_then_cleans_up(layer, region, tmp_path):
    engine = ScanEngine(
        DensityDetector(), config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=False,
            checkpoint_dir=tmp_path / "ckpt", **FAST,
        ),
    )
    report = _scan(engine, layer, region)
    assert report.telemetry.counter("checkpoint_saves") >= 1
    assert not _ckpt_path(tmp_path).exists()


def test_resume_with_no_checkpoint_scans_from_scratch(layer, region, tmp_path):
    clean = _scan(
        ScanEngine(DensityDetector(), config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=False, **FAST,
        )),
        layer, region,
    )
    report = _scan(
        ScanEngine(
            DensityDetector(), config=EngineConfig.from_kwargs(
                dedup=False, raster_plane=False,
                checkpoint_dir=tmp_path / "ckpt", **FAST,
            ),
        ),
        layer, region, resume=True,
    )
    assert np.array_equal(report.scores, clean.scores)
    assert report.telemetry.counter("checkpoint_resumed") == 0


def test_resume_requires_checkpoint_dir(layer, region):
    engine = ScanEngine(
        DensityDetector(), config=EngineConfig.from_kwargs(raster_plane=False)
    )
    with pytest.raises(ValueError, match="checkpoint_dir"):
        _scan(engine, layer, region, resume=True)


# ----------------------------------------------------------------------
# refusal and corruption
# ----------------------------------------------------------------------
def _interrupt(layer, region, tmp_path, **engine_kw):
    flaky = ScanEngine(
        FlakyDensityDetector(fail_after=2), config=EngineConfig.from_kwargs(
            raster_plane=False,
            checkpoint_dir=tmp_path / "ckpt", **{**FAST, **engine_kw},
        ),
    )
    with pytest.raises(RuntimeError):
        _scan(flaky, layer, region)
    assert _ckpt_path(tmp_path).exists()


def test_resume_refuses_different_config(layer, region, tmp_path):
    _interrupt(layer, region, tmp_path, dedup=False)
    engine = ScanEngine(
        DensityDetector(), config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=False,
            checkpoint_dir=tmp_path / "ckpt",
            **{**FAST, "chunk_clips": 16},  # different chunking => different scan
        ),
    )
    with pytest.raises(CheckpointMismatch):
        _scan(engine, layer, region, resume=True)


def test_resume_refuses_different_detector(layer, region, tmp_path):
    _interrupt(layer, region, tmp_path, dedup=False)
    engine = ScanEngine(
        DensityDetector(cutoff=0.45), config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=False,
            checkpoint_dir=tmp_path / "ckpt", **FAST,
        ),
    )
    # same tag, same geometry — but a different threshold changes the hash
    engine.detector.threshold = 0.75
    with pytest.raises(CheckpointMismatch):
        _scan(engine, layer, region, resume=True)


def test_corrupt_checkpoint_is_quarantined_and_scan_restarts(
    layer, region, tmp_path
):
    _interrupt(layer, region, tmp_path, dedup=False)
    path = _ckpt_path(tmp_path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

    clean = _scan(
        ScanEngine(DensityDetector(), config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=False, **FAST,
        )),
        layer, region,
    )
    report = _scan(
        ScanEngine(
            DensityDetector(), config=EngineConfig.from_kwargs(
                dedup=False, raster_plane=False,
                checkpoint_dir=tmp_path / "ckpt", **FAST,
            ),
        ),
        layer, region, resume=True,
    )
    assert np.array_equal(report.scores, clean.scores)
    t = report.telemetry
    assert t.counter("checkpoint_quarantined") == 1
    assert t.counter("checkpoint_resumed") == 0
    assert t.counter("resume_hits") == 0
    assert path.with_name(path.name + ".quarantined").exists()


def test_checkpoint_truncate_fault_reaches_the_file(layer, region, tmp_path):
    """The checkpoint_truncate injection point corrupts a real save."""
    engine = ScanEngine(
        DensityDetector(),
        config=EngineConfig.from_kwargs(
            dedup=False, raster_plane=False,
            checkpoint_dir=tmp_path / "ckpt", **FAST,
        ),
        faults="checkpoint_truncate@0",
    )
    report = _scan(engine, layer, region)
    assert engine.faults.fired["checkpoint_truncate"] == 1
    assert report.telemetry.counter("fault_checkpoint_truncate") == 1


# ----------------------------------------------------------------------
# checkpointer unit behavior
# ----------------------------------------------------------------------
def test_replayed_chunk_size_mismatch_raises(tmp_path):
    path = tmp_path / CHECKPOINT_NAME
    h = scan_config_hash(x=1)
    writer = Checkpointer(
        path, config_hash=h, detector_tag="d", mode="direct", every_chunks=1
    )
    writer.record_chunk(np.array([0.1, 0.2, 0.3]))

    reader = Checkpointer(
        path, config_hash=h, detector_tag="d", mode="direct"
    )
    assert reader.load_for_resume()
    with pytest.raises(CheckpointMismatch, match="2 windows"):
        reader.next_resumed_chunk(2)


def test_config_hash_is_order_insensitive_and_sensitive_to_values():
    assert scan_config_hash(a=1, b=2) == scan_config_hash(b=2, a=1)
    assert scan_config_hash(a=1, b=2) != scan_config_hash(a=1, b=3)
