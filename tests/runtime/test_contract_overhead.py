"""Contracts must observe, never perturb: ScanEngine results are
byte-identical with checking enabled vs disabled, on both scan paths.

(The companion micro-benchmark in ``benchmarks/test_contract_overhead.py``
shows the disabled-path overhead is unmeasurable; this test pins the
stronger property that enabling the checks changes nothing either.)
"""

import numpy as np
import pytest

from repro import contracts
from repro.geometry import Layer, Rect
from repro.runtime import EngineConfig, ScanEngine
from repro.shallow import make_logistic_density

from .conftest import tiny_grating_dataset
from .test_raster_plane import RasterMeanDetector

REGION = Rect(0, 0, 4096, 4096)


@pytest.fixture(autouse=True)
def contracts_off():
    contracts.disable()
    yield
    contracts.disable()


@pytest.fixture
def tiled_layer() -> Layer:
    layer = Layer("metal1")
    rects = []
    for ox, oy in [(0, 0), (2048, 0), (0, 2048), (2048, 2048)]:
        for i in range(8):
            rects.append(Rect(ox, oy + i * 256, ox + 2048, oy + i * 256 + 64))
        rects.append(Rect(ox + 300, oy + 100, ox + 420, oy + 1900))
    layer.add_rects(rects)
    return layer


def _scan(detector, layer, **kw):
    engine = ScanEngine(detector, config=EngineConfig.from_kwargs(**kw))
    return engine.scan(layer, REGION, keep_clips=False)


def _assert_identical(a, b):
    assert a.centers == b.centers
    assert a.scores.dtype == b.scores.dtype
    assert a.scores.tobytes() == b.scores.tobytes()
    assert np.array_equal(a.flagged, b.flagged)


@pytest.mark.parametrize("raster_plane", [False, True], ids=["clip", "raster"])
@pytest.mark.parametrize("dedup", [False, True], ids=["direct", "dedup"])
def test_scan_identical_with_contracts_on(tiled_layer, raster_plane, dedup):
    det = RasterMeanDetector()
    baseline = _scan(det, tiled_layer, raster_plane=raster_plane, dedup=dedup)
    with contracts.checking():
        checked = _scan(det, tiled_layer, raster_plane=raster_plane, dedup=dedup)
    assert not contracts.enabled()
    _assert_identical(baseline, checked)


def test_fitted_detector_scan_identical(tiled_layer):
    det = make_logistic_density()
    det.fit(tiny_grating_dataset(), rng=np.random.default_rng(1))
    baseline = _scan(det, tiled_layer, raster_plane=True, dedup=True)
    with contracts.checking():
        checked = _scan(det, tiled_layer, raster_plane=True, dedup=True)
    _assert_identical(baseline, checked)


def test_enabled_contracts_hold_across_worker_pool(tiled_layer):
    """REPRO_CONTRACTS propagates to spawn-ed workers via the environment;
    in-process, the enabled engine path itself must satisfy every contract."""
    det = RasterMeanDetector()
    with contracts.checking():
        report = _scan(det, tiled_layer, raster_plane=True, dedup=False)
    assert report.n_windows == len(report.scores)
