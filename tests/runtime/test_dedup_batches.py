"""Dedup mode's batch rule: which patterns reach the pool, and in what batches.

With a cache the engine scores each distinct pattern once.  The pool
must receive exactly the patterns that neither the cache nor a resumed
checkpoint has settled, in first-seen (global row-major) order, cut
into batches of ``chunk_clips``.  Scores, counters and fault-injection
opportunities then do not depend on how the runner interleaves
fingerprinting with scoring.  The last two tests pin that it does
interleave them: batches are scored while bands are still being
rasterized, and memory stays flat as the layout grows.
"""

import tracemalloc

import numpy as np
import pytest

from repro.contracts import ContractViolation
from repro.geometry import Layer, Rect, clip_fingerprint, extract_clip
from repro.geometry.layout import iter_tile_centers
from repro.geometry.rasterize import raster_fingerprint, rasterize_region
from repro.runtime import EngineConfig, FaultInjector, ScanEngine, ScoreCache

from .test_raster_plane import REGION, RasterMeanDetector
from .test_raster_plane import tiled_layer  # noqa: F401  (pytest fixture)

CHUNK = 5
SOURCES = ["clip", "raster"]


class RecordingRasterMean(RasterMeanDetector):
    """Records every batch it scores as the dedup keys of its windows."""

    def __init__(self) -> None:
        super().__init__()
        self.batches = []

    @property
    def raster_pixel_nm(self) -> int:  # restated for the raster-parity lint
        return self.pixel_nm

    def predict_proba(self, clips):
        self.batches.append([clip_fingerprint(c) for c in clips])
        return super().predict_proba(clips)

    def predict_proba_rasters(self, rasters):
        self.batches.append([raster_fingerprint(r) for r in rasters])
        return super().predict_proba_rasters(rasters)


def _window_keys(layer, source):
    """Every window's dedup key, in global row-major order."""
    centers = list(iter_tile_centers(REGION, 768, 256))
    if source == "clip":
        return [
            clip_fingerprint(extract_clip(layer, c, 768, 256)) for c in centers
        ]
    plane = rasterize_region(layer, REGION, 8)
    return [
        raster_fingerprint(plane.window(Rect.from_center(x, y, 768, 768)))
        for x, y in centers
    ]


def _first_seen(keys):
    return list(dict.fromkeys(keys))


def _batches(keys):
    return [keys[i : i + CHUNK] for i in range(0, len(keys), CHUNK)]


def _engine(detector, source, cache=None, faults=None, **kw):
    config = EngineConfig.from_kwargs(
        workers=1,
        chunk_clips=CHUNK,
        raster_plane=source == "raster",
        max_chunk_retries=0,
        retry_backoff_s=0.0,
        **kw,
    )
    return ScanEngine(detector, config=config, cache=cache, faults=faults)


@pytest.mark.parametrize("source", SOURCES)
def test_fresh_scan_batches_first_seen_patterns(tiled_layer, source):
    det = RecordingRasterMean()
    report = _engine(det, source).scan(tiled_layer, REGION, keep_clips=False)
    assert report.scan_path == source

    keys = _window_keys(tiled_layer, source)
    unique = _first_seen(keys)
    assert len(unique) < len(keys)  # the tiled layout repeats
    assert det.batches == _batches(unique)
    t = report.telemetry
    assert t.counter("scored") == len(unique)
    assert t.counter("dedup_hits") == len(keys) - len(unique)
    assert t.counter("cache_hits") == 0


@pytest.mark.parametrize("bounded", [False, True], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("source", SOURCES)
def test_warm_cache_patterns_never_reach_the_pool(tiled_layer, source, bounded):
    keys = _window_keys(tiled_layer, source)
    unique = _first_seen(keys)
    warm = unique[::3]
    # a bound equal to the warm set: every score this scan adds evicts
    # a warm entry, which must not turn a later window into a miss
    cache = ScoreCache(max_entries=len(warm) if bounded else 200_000)
    for key in warm:
        cache.put(key, 0.25)

    det = RecordingRasterMean()
    report = _engine(det, source, cache=cache).scan(
        tiled_layer, REGION, keep_clips=False
    )
    cold = [k for k in unique if k not in set(warm)]
    assert det.batches == _batches(cold)
    t = report.telemetry
    assert t.counter("cache_hits") == len(warm)
    assert t.counter("scored") == len(cold)
    assert t.counter("dedup_hits") == len(keys) - len(unique)
    warm_windows = np.isin(keys, warm)
    assert (report.scores[warm_windows] == 0.25).all()


@pytest.mark.parametrize("source", SOURCES)
def test_resumed_scan_keeps_checkpointed_patterns_out(
    tiled_layer, source, tmp_path
):
    ckpt = dict(
        checkpoint_dir=tmp_path / "ckpt",
        checkpoint_every_chunks=1,
        on_invalid_score="raise",
    )
    clean = _engine(RecordingRasterMean(), source).scan(
        tiled_layer, REGION, keep_clips=False
    )

    # the third batch comes back NaN: two batches are checkpointed
    dying = RecordingRasterMean()
    with pytest.raises(ContractViolation):
        _engine(dying, source, faults=FaultInjector("nan_score@2"), **ckpt).scan(
            tiled_layer, REGION, keep_clips=False
        )
    unique = _first_seen(_window_keys(tiled_layer, source))
    assert dying.batches == _batches(unique)[:3]

    det = RecordingRasterMean()
    report = _engine(det, source, **ckpt).scan(
        tiled_layer, REGION, keep_clips=False, resume=True
    )
    assert det.batches == _batches(unique[2 * CHUNK :])
    t = report.telemetry
    assert t.counter("checkpoint_resumed") == 1
    assert t.counter("resume_hits") == 2 * CHUNK
    assert t.counter("scored") == len(unique) - 2 * CHUNK
    assert report.scores.tobytes() == clean.scores.tobytes()


def test_first_batch_is_scored_before_the_last_band_is_rasterized(
    tiled_layer, monkeypatch
):
    events = []

    def logged_rasterize(*args, **kwargs):
        events.append("rasterize")
        return rasterize_region(*args, **kwargs)

    class Logged(RecordingRasterMean):
        def predict_proba_rasters(self, rasters):
            events.append("score")
            return super().predict_proba_rasters(rasters)

    monkeypatch.setattr(
        "repro.runtime.engine.rasterize_region", logged_rasterize
    )
    report = _engine(Logged(), "raster", band_rows=1).scan(
        tiled_layer, REGION, keep_clips=False
    )
    assert report.telemetry.counter("raster_bands") == events.count(
        "rasterize"
    ) == 14
    last_band = len(events) - 1 - events[::-1].index("rasterize")
    assert events.index("score") < last_band


def _distinct_layer(rows: int):
    """Irregular wires under ``rows`` window rows: no two windows match."""
    rng = np.random.default_rng(5)
    height = 768 + (rows - 1) * 256
    layer = Layer("metal1")
    rects = []
    for y in range(0, height - 32, 64):
        for x1 in rng.integers(0, 3800, size=3):
            x2 = int(x1) + int(rng.integers(100, 600))
            rects.append(Rect(int(x1), y, min(x2, 4096), y + 32))
    layer.add_rects(rects)
    return layer, Rect(0, 0, 4096, height)


def _scan_peak_bytes(rows: int) -> int:
    layer, region = _distinct_layer(rows)
    engine = ScanEngine(
        RasterMeanDetector(),
        # a batch far smaller than the window count, so a bound shows
        config=EngineConfig.from_kwargs(
            workers=1, raster_plane=True, chunk_clips=32
        ),
    )
    tracemalloc.start()
    try:
        report = engine.scan(layer, region, keep_clips=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_windows == 14 * rows
    assert report.n_scored == report.n_windows  # every window distinct
    return peak


def test_dedup_memory_stays_flat_as_distinct_windows_double():
    _scan_peak_bytes(14)  # warm-up: first-call allocations
    small = _scan_peak_bytes(14)
    large = _scan_peak_bytes(28)
    assert large <= 1.2 * small, (small, large)
