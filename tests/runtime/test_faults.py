"""Deterministic fault injection and the supervision ladder.

Three layers of proof:

* the **harness** itself — spec grammar, seeded determinism, and that
  every injection point actually fires when enabled (the CI chaos job
  inverts the usual gate: a fault that *cannot* fire is the failure),
* the **pool** — each fault kind (crash, error, stall, bad scores) is
  survived with byte-identical scores and the right telemetry,
* the **engine** — a chaos scan with workers dying and the cache being
  corrupted mid-run still produces the exact flagged set of a clean run.
"""

import multiprocessing

import numpy as np
import pytest

from repro.contracts import ContractViolation
from repro.geometry import Rect, extract_clip, iter_tile_centers
from repro.runtime import (
    INJECTION_POINTS,
    EngineConfig,
    FaultInjector,
    FaultPolicy,
    ScanEngine,
    ScoreCache,
    WorkerPool,
)
from repro.runtime.faults import (  # lint: disable=no-deep-runtime-import  (tests the injection seam's private helpers directly)
    InjectedFault,
    _fires,
    execute_chunk_fault,
)

from ._fault_doubles import RasterMeanDetector, WorkerHostileDetector
from .conftest import DensityDetector, tiny_grating_dataset
from .test_checkpoint import GradedFeatureMean

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

FAST = dict(max_chunk_retries=2, retry_backoff_s=0.01, chunk_timeout_s=5.0)


def _clip_chunks(n_chunks=4, per_chunk=6):
    clips = tiny_grating_dataset(n=n_chunks * per_chunk).clips
    return [
        clips[i : i + per_chunk] for i in range(0, len(clips), per_chunk)
    ]


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
def test_parse_full_spec():
    policy = FaultPolicy.parse(
        "seed=7, worker_crash@1|3, nan_score=0.25, stall_s=0.5"
    )
    assert policy.seed == 7
    assert policy.stall_s == 0.5
    assert policy.rule("worker_crash").indices == (1, 3)
    assert policy.rule("nan_score").rate == 0.25
    assert policy.rule("chunk_error") is None


def test_parse_empty_spec_never_fires():
    injector = FaultInjector(FaultPolicy.parse(""))
    for point in INJECTION_POINTS:
        assert not any(injector.fires(point) for _ in range(50))
    assert injector.fired == {}


@pytest.mark.parametrize(
    "bad",
    [
        "frobnicate@0",            # unknown point
        "frobnicate=0.5",          # unknown key
        "worker_crash@x",          # non-integer index
        "worker_crash@-1",         # negative index
        "nan_score=1.5",           # rate outside [0, 1]
        "nan_score=maybe",         # non-float rate
        "seed=soon",               # non-int seed
        "stall_s=-1",              # negative stall
        "worker_crash",            # bare clause
    ],
)
def test_parse_rejects_junk(bad):
    with pytest.raises(ValueError):
        FaultPolicy.parse(bad)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_same_seed_same_schedule():
    def schedule(seed):
        injector = FaultInjector(FaultPolicy.parse(f"seed={seed},chunk_error=0.3"))
        return [injector.fires("chunk_error") for _ in range(200)]

    first = schedule(11)
    assert first == schedule(11)
    assert any(first)
    assert not all(first)
    assert first != schedule(12)


def test_rate_is_roughly_honoured():
    rule = FaultPolicy.parse("chunk_error=0.2").rule("chunk_error")
    hits = sum(_fires(0, rule, i) for i in range(2000))
    assert 250 < hits < 550


@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_every_point_fires_when_enabled(point):
    """The inverted gate: an unfireable injection point is a bug."""
    injector = FaultInjector(FaultPolicy.parse(f"seed=1,{point}@1"))
    assert not injector.fires(point)
    assert injector.fires(point)
    assert not injector.fires(point)
    assert injector.fired == {point: 1}


def test_chunk_fault_precedence_and_one_opportunity_each():
    injector = FaultInjector(
        FaultPolicy.parse("worker_crash@0,chunk_error@0|1,chunk_stall@0|1|2")
    )
    assert injector.chunk_fault() == ("worker_crash",)
    assert injector.chunk_fault() == ("chunk_error",)
    assert injector.chunk_fault() == ("chunk_stall", 0.05)
    assert injector.chunk_fault() is None


def test_execute_chunk_fault_in_process():
    with pytest.raises(InjectedFault):
        execute_chunk_fault(("worker_crash",), in_process=True)
    with pytest.raises(InjectedFault):
        execute_chunk_fault(("chunk_error",), in_process=True)
    execute_chunk_fault(("chunk_stall", 0.0), in_process=True)
    execute_chunk_fault(None)


def test_truncate_file_halves_bytes(tmp_path):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"x" * 100)
    injector = FaultInjector(FaultPolicy.parse("cache_truncate@0"))
    assert injector.truncate_file(target, "cache_truncate")
    assert len(target.read_bytes()) == 50
    target.write_bytes(b"x" * 100)
    assert not injector.truncate_file(target, "cache_truncate")
    assert len(target.read_bytes()) == 100


# ----------------------------------------------------------------------
# pool supervision, fault by fault
# ----------------------------------------------------------------------
def _pool_scores(detector, chunks, **kw):
    with WorkerPool(detector, **kw) as pool:
        return np.concatenate(list(pool.map_scores(iter(chunks)))), pool


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_error_is_retried_byte_identical(workers):
    chunks = _clip_chunks()
    baseline, _ = _pool_scores(DensityDetector(), chunks)
    scores, pool = _pool_scores(
        DensityDetector(), chunks, workers=workers,
        faults="seed=1,chunk_error@0|2", **FAST,
    )
    assert np.array_equal(scores, baseline)
    assert pool.telemetry.counter("worker_errors") >= 2
    assert pool.telemetry.counter("pool_retries") >= 2
    assert pool.faults.fired["chunk_error"] == 2


def test_worker_crash_is_survived_byte_identical():
    chunks = _clip_chunks()
    baseline, _ = _pool_scores(DensityDetector(), chunks)
    scores, pool = _pool_scores(
        DensityDetector(), chunks, workers=2,
        faults="worker_crash@0", max_chunk_retries=2,
        retry_backoff_s=0.01, chunk_timeout_s=1.5,
    )
    assert np.array_equal(scores, baseline)
    assert pool.faults.fired["worker_crash"] == 1
    assert pool.telemetry.counter("pool_timeouts") >= 1
    assert pool.telemetry.counter("pool_retries") >= 1


def test_chunk_stall_trips_timeout_and_recovers():
    chunks = _clip_chunks()
    baseline, _ = _pool_scores(DensityDetector(), chunks)
    scores, pool = _pool_scores(
        DensityDetector(), chunks, workers=2,
        faults="chunk_stall@0,stall_s=30", max_chunk_retries=2,
        retry_backoff_s=0.01, chunk_timeout_s=0.5,
    )
    assert np.array_equal(scores, baseline)
    assert pool.telemetry.counter("pool_timeouts") >= 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("point", ["nan_score", "range_score"])
def test_bad_scores_repaired_byte_identical(point, workers):
    chunks = _clip_chunks()
    baseline, _ = _pool_scores(DensityDetector(), chunks)
    scores, pool = _pool_scores(
        DensityDetector(), chunks, workers=workers,
        faults=f"{point}@0", **FAST,
    )
    assert np.array_equal(scores, baseline)
    assert pool.telemetry.counter("score_repairs") == 1
    assert pool.faults.fired[point] == 1


def test_bad_scores_raise_when_policy_says_so():
    chunks = _clip_chunks()
    with pytest.raises(ContractViolation):
        _pool_scores(
            DensityDetector(), chunks, faults="nan_score@0",
            on_invalid_score="raise", **FAST,
        )


def test_retry_exhaustion_surfaces_real_error():
    """A chunk that fails in-process every time must raise, not loop."""

    class AlwaysBroken(DensityDetector):  # lint: disable=raster-parity -- pool tests use the clip path only
        def predict_proba(self, clips):
            raise RuntimeError("permanently broken")

    with pytest.raises(RuntimeError, match="permanently broken"):
        _pool_scores(AlwaysBroken(), _clip_chunks(), max_chunk_retries=1,
                     retry_backoff_s=0.01)


def test_full_ladder_rebuild_then_degrade():
    """Permanent worker-side failure walks retry -> rebuild -> in-process."""
    chunks = _clip_chunks()
    detector = WorkerHostileDetector()
    baseline = np.concatenate(
        [detector.predict_proba(chunk) for chunk in chunks]
    )
    scores, pool = _pool_scores(
        detector, chunks, workers=2, max_chunk_retries=1,
        retry_backoff_s=0.01, chunk_timeout_s=5.0,
        max_pool_rebuilds=1, degrade_after_failures=4,
    )
    assert np.array_equal(scores, baseline)
    t = pool.telemetry
    assert t.counter("pool_rebuilds") == 1
    assert t.counter("pool_degraded_chunks") >= 1
    assert t.counter("pool_degradations") == 1
    assert t.counter("worker_errors") >= 4


# ----------------------------------------------------------------------
# engine-level chaos
# ----------------------------------------------------------------------
CHAOS_SPEC = "seed=3,worker_crash@1,nan_score@0,chunk_error=0.2,cache_truncate@0"


def test_chaos_scan_flags_byte_identical(layer, region, tmp_path):
    """The acceptance drill: kill a worker and corrupt the cache mid-scan;
    the flagged set must not move by a single window."""
    clean = ScanEngine(
        DensityDetector(), config=EngineConfig.from_kwargs(
            workers=1, chunk_clips=4, raster_plane=False
        ),
    ).scan(layer, region, keep_clips=False)

    cache_dir = tmp_path / "cache"
    chaos = ScanEngine(
        DensityDetector(), config=EngineConfig.from_kwargs(
            workers=2, cache_dir=cache_dir, chunk_clips=4,
            raster_plane=False, chunk_timeout_s=1.5, max_chunk_retries=2,
            retry_backoff_s=0.01,
        ),
        faults=CHAOS_SPEC,
    )
    report = chaos.scan(layer, region, keep_clips=False)

    assert np.array_equal(report.scores, clean.scores)
    assert np.array_equal(report.flagged, clean.flagged)
    # the injected faults really happened...
    assert chaos.faults.fired["worker_crash"] == 1
    assert chaos.faults.fired["nan_score"] == 1
    assert chaos.faults.fired["cache_truncate"] == 1
    # ...and every recovery left a telemetry trace
    t = report.telemetry
    assert t.counter("pool_retries") >= 2
    assert t.counter("pool_timeouts") >= 1
    assert t.counter("score_repairs") >= 1
    assert t.counter("fault_worker_crash") == 1
    assert t.counter("fault_cache_truncate") == 1

    # the truncated cache file is quarantined on the next open, and the
    # rescan (cold cache) still reproduces the same flagged set
    rescan = ScanEngine(
        DensityDetector(), config=EngineConfig.from_kwargs(
            workers=1, cache_dir=cache_dir, chunk_clips=4,
            raster_plane=False,
        ),
    )
    report2 = rescan.scan(layer, region, keep_clips=False)
    assert report2.telemetry.counter("cache_quarantined") == 1
    assert (cache_dir / "scan-scores.json.quarantined").exists()
    assert np.array_equal(report2.flagged, clean.flagged)


# ----------------------------------------------------------------------
# score validation on every scan path
# ----------------------------------------------------------------------
SMALL = Rect(0, 0, 2048, 2048)


def _engine(detector, *, raster, dedup, workers, faults=None, **kw):
    return ScanEngine(
        detector, config=EngineConfig.from_kwargs(
            workers=workers, dedup=dedup, raster_plane=raster,
            chunk_clips=16, chunk_timeout_s=5.0, max_chunk_retries=2,
            retry_backoff_s=0.01, **kw,
        ),
        faults=faults,
    )


#: window kind -> the double that scans through it: clip lists, raster
#: slices, or slices of the band's feature plane
KIND_DETECTORS = {
    "clip": DensityDetector,
    "raster": RasterMeanDetector,
    "plane": GradedFeatureMean,
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "kind,dedup",
    [(kind, dedup) for kind in KIND_DETECTORS for dedup in (False, True)],
    ids=[
        "direct", "dedup", "raster-direct", "raster-dedup",
        "plane-direct", "plane-dedup",
    ],
)
def test_every_path_repairs_bad_scores(layer, kind, dedup, workers):
    detector = KIND_DETECTORS[kind]()
    raster = kind != "clip"
    clean = _engine(detector, raster=raster, dedup=dedup, workers=1).scan(
        layer, SMALL, keep_clips=False
    )
    assert clean.scan_path == ("raster" if raster else "clip")

    repaired = _engine(
        detector, raster=raster, dedup=dedup, workers=workers,
        faults="nan_score@0",
    ).scan(layer, SMALL, keep_clips=False)
    assert np.array_equal(repaired.scores, clean.scores)
    assert np.array_equal(repaired.flagged, clean.flagged)
    assert repaired.telemetry.counter("score_repairs") == 1
    # the plane kind really scored feature slices (through the workers
    # when workers=2); the other kinds never transform a band
    planes = repaired.telemetry.counter("feature_planes")
    assert (planes > 0) == (kind == "plane")


@pytest.mark.parametrize(
    "raster,dedup",
    [(False, False), (False, True), (True, False), (True, True)],
    ids=["direct", "dedup", "raster-direct", "raster-dedup"],
)
@pytest.mark.parametrize("point", ["nan_score", "range_score"])
def test_every_path_rejects_bad_scores_on_raise(layer, raster, dedup, point):
    detector = RasterMeanDetector() if raster else DensityDetector()
    engine = _engine(
        detector, raster=raster, dedup=dedup, workers=1,
        faults=f"{point}@0", on_invalid_score="raise",
    )
    with pytest.raises(ContractViolation):
        engine.scan(layer, SMALL, keep_clips=False)


# ----------------------------------------------------------------------
# CLI spec handling
# ----------------------------------------------------------------------
def test_cli_rejects_bad_fault_spec(tmp_path, capsys):
    from repro.cli import main
    from repro.geometry import Layout
    from repro.geometry.gdsii import write_gdsii

    layout = Layout("block")
    layout.layer("metal1").add_rects(
        [Rect(0, i * 256, 2048, i * 256 + 64) for i in range(8)]
    )
    gds = tmp_path / "chip.gds"
    write_gdsii(layout, gds)

    rc = main(
        [
            "scan-chip", str(gds), "--detector", "logistic-density",
            "--inject-faults", "frobnicate@0",
        ]
    )
    assert rc == 2
    assert "bad --inject-faults spec" in capsys.readouterr().err
