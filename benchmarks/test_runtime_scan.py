"""Runtime engine — full-chip scan throughput and dedup savings.

The deployment story behind Fig. 5: the per-clip gap between simulation
and learned detectors only matters if the scan path can keep the
detector fed.  This bench scans a replicated routed block (the
repeated-cell structure real chips have) three ways:

- ``naive``     — the historical score-everything sweep (no dedup),
- ``dedup``     — the engine's content-hash cache,
- ``cascade``   — dedup plus the pattern-match -> prefilter -> CNN stack.

Shape checks: all paths flag identical windows; dedup scores >= 2x fewer
windows than the naive sweep on a tiled layout; the cascade resolves part
of the residue before the CNN stage.  Windows/s and the per-path ratios
are recorded alongside the Fig. 5 table.

``test_raster_plane_speedup`` then pits the raster-plane fast path
against the per-clip reference path (dedup off on both, so rasterize +
feature + forward cost is what's measured) and records windows/s and the
speedup ratios to ``BENCH_scan.json`` at the repo root, together with the
CPU count and every loaded OpenBLAS with its thread count.
"""

import json
import os
from pathlib import Path

import numpy as np

from .conftest import run_once

#: minimum cnn-dct raster speedup for the fused float backend over the
#: layers backend (same scan, same flags).  The local target is 5x; CI
#: runs a conservative 3x floor (shared runners, REPRO_BENCH_SCALE) via
#: the env override.
FUSED_MIN_SPEEDUP = float(os.environ.get("REPRO_FUSED_MIN_SPEEDUP", "3.0"))
#: minimum speedup for the int8 backend — the row that closes the
#: 11x-vs-1.7x gap, so its local floor is the full 5x
INT8_MIN_SPEEDUP = float(os.environ.get("REPRO_INT8_MIN_SPEEDUP", "5.0"))


def _replicated_block(rng, cell_nm=2048, nx=3, ny=3):
    from repro.data import (
        RoutedBlockConfig,
        replicate_block,
        synthesize_routed_block,
    )
    from repro.geometry import Rect

    cell = Rect(0, 0, cell_nm, cell_nm)
    layer, _seeded = synthesize_routed_block(
        rng, cell, RoutedBlockConfig(n_marginal=2, marginal_len_nm=400)
    )
    tiled = replicate_block(layer, cell, nx=nx, ny=ny)
    return tiled, Rect(0, 0, nx * cell_nm, ny * cell_nm)


def test_runtime_scan_dedup_and_cascade(benchmark, suite, out_dir):
    from repro.bench import write_table
    from repro.core import scan_layer
    from repro.core.registry import create
    from repro.runtime import CascadeDetector, ScanEngine

    b1 = [b for b in suite if b.name == "B1"][0]
    rng = np.random.default_rng(17)
    layer, region = _replicated_block(rng)

    cnn = create("cnn-dct")
    cnn.fit(b1.train, rng=rng)
    matcher = create("pattern-fuzzy")
    matcher.fit(b1.train, rng=rng)
    prefilter = create("logistic-density")
    prefilter.fit(b1.train, rng=rng)

    def run():
        reports = {}
        naive = scan_layer(cnn, layer, region)
        reports["naive"] = naive

        # pinned to the per-clip reference path: this bench documents the
        # dedup/cascade savings, and its byte-equality assertions are part
        # of the clip path's contract
        reports["dedup"] = ScanEngine(cnn, raster_plane=False).scan(
            layer, region
        )

        cascade = CascadeDetector(
            primary=cnn, matcher=matcher, prefilter=prefilter
        )
        reports["cascade"] = ScanEngine(cascade, raster_plane=False).scan(
            layer, region
        )
        return reports

    reports = run_once(benchmark, run)
    naive = reports["naive"]

    rows = []
    for name in ("naive", "dedup", "cascade"):
        rep = reports[name]
        row = {
            "path": name,
            "windows": len(rep.centers),
            "flagged": rep.n_flagged,
        }
        if name == "naive":
            row.update(
                {"cnn_scored": len(rep.centers), "dedup_ratio": "0%", "windows_per_s": "-"}
            )
        else:
            cnn_scored = (
                rep.cascade_stats.primary_scored
                if rep.cascade_stats is not None
                else rep.n_scored
            )
            row.update(
                {
                    "cnn_scored": cnn_scored,
                    "dedup_ratio": f"{100 * rep.dedup_ratio:.0f}%",
                    "windows_per_s": round(rep.windows_per_s, 1),
                }
            )
        rows.append(row)
    text = write_table(
        rows,
        out_dir / "runtime_scan.md",
        title="Runtime engine: full-chip scan savings",
    )
    print("\n" + text)

    # dedup is a pure optimization: byte-identical to the naive sweep
    dedup = reports["dedup"]
    assert dedup.centers == naive.centers
    assert np.array_equal(dedup.flagged, naive.flagged)

    # The cascade's prefilter may resolve a window cold that the bare CNN
    # scores marginally hot, so flags can differ -- but only on windows a
    # cheap stage resolved (those carry the cheap stage's score, not the
    # CNN's), and only on a small fraction of the layer.
    cascade = reports["cascade"]
    assert cascade.centers == naive.centers
    mismatch = cascade.flagged != naive.flagged
    same_score = np.isclose(cascade.scores, naive.scores, atol=1e-12)
    assert not np.any(mismatch & same_score)
    assert mismatch.mean() <= 0.1

    # the tiled layout makes dedup cut CNN scorings by >= 2x
    assert len(naive.centers) >= 2 * dedup.n_scored
    assert dedup.dedup_ratio >= 0.5

    # the cascade sends no more windows to the CNN than dedup alone
    assert cascade.cascade_stats.primary_scored <= dedup.n_scored


def test_raster_plane_speedup(benchmark, suite, out_dir):
    """Raster-plane vs per-clip scan: identical flags, higher windows/s.

    Dedup is off on both sides so the comparison measures the real
    per-window work (rasterize + features + forward), not cache luck.
    The prefilter row is the deployment-honest one — in a cascade the
    cheap detector sees *every* window — and it must clear 3x.  The CNN
    row is forward-dominated, so the bar there is only "never slower".

    The raster arms (layers/fused/fused-int8) are scanned in
    interleaved rounds and their speedup gates use the median
    *per-round paired ratio* against the same-round layers scan — host
    throughput drift moves both sides of a pair together and cancels.
    All rows land in ``BENCH_scan.json`` at the repo root.
    """
    from repro.bench import hardware, write_table
    from repro.core.registry import create
    from repro.runtime import ScanEngine

    b1 = [b for b in suite if b.name == "B1"][0]
    rng = np.random.default_rng(17)
    layer, region = _replicated_block(rng)

    detectors = {}
    prefilter = create("logistic-density")
    prefilter.fit(b1.train, rng=rng)
    detectors["logistic-density"] = prefilter
    cnn = create("cnn-dct")
    cnn.fit(b1.train, rng=rng)
    detectors["cnn-dct"] = cnn

    #: raster arms, interleaved round-robin below.  Single-shot raster
    #: scans swing ~±15% with the host's multi-second throughput drift
    #: (thermal clocks, noisy neighbours); scanning every arm once per
    #: round puts all arms under the same drift, so the per-round
    #: paired ratio cancels it and the speedup gates measure the
    #: backends, not the weather.
    ARMS = [
        ("logistic-density", "layers"),
        ("cnn-dct", "layers"),
        ("cnn-dct", "fused"),
        ("cnn-dct", "fused-int8"),
    ]
    ROUNDS = 5

    def run():
        clip_reports = {}
        for name, det in detectors.items():
            clip_reports[name] = ScanEngine(
                det, dedup=False, raster_plane=False
            ).scan(layer, region, keep_clips=False)
        # one engine per arm, reused across rounds: a fresh engine would
        # refault its plane-batch buffers (~10MB) every scan, a fixed
        # cost the short fused/int8 scans feel far more than the slow
        # layers baseline
        engines = {
            (name, backend): ScanEngine(
                detectors[name], dedup=False, raster_plane=True,
                infer_backend=(
                    None if name == "logistic-density" else backend
                ),
            )
            for name, backend in ARMS
        }
        def arm_scan(arm):
            name, backend = arm
            if name == "cnn-dct":
                # the cnn arms share one detector, so each scan
                # re-applies its arm's backend ("layers" included)
                cnn.set_backend(backend)
            return engines[arm].scan(layer, region, keep_clips=False)
        for arm in ARMS:
            arm_scan(arm)  # warmup: plan compile + calibration + buffers
        rounds = {arm: [] for arm in ARMS}
        for _ in range(ROUNDS):
            for arm in ARMS:
                rounds[arm].append(arm_scan(arm))
        cnn.set_backend("layers")
        return clip_reports, rounds

    clip_reports, rounds = run_once(benchmark, run)

    def median_report(arm):
        # flags/scores are deterministic across repeats; only the
        # throughput varies, so the median-rate report IS the scan
        reps = sorted(rounds[arm], key=lambda r: r.windows_per_s)
        return reps[len(reps) // 2]

    def paired_speedup(arm):
        # median over rounds of (arm rate / same-round layers rate)
        base = rounds[("cnn-dct", "layers")]
        ratios = sorted(
            rep.windows_per_s / b.windows_per_s
            for rep, b in zip(rounds[arm], base)
        )
        return ratios[len(ratios) // 2]

    results = {
        name: (clip_reports[name], median_report((name, "layers")))
        for name in detectors
    }
    fused = {
        backend: median_report(("cnn-dct", backend))
        for backend in ("fused", "fused-int8")
    }

    rows = []
    record = {
        "hardware": hardware(),
        "rounds": ROUNDS,
        "workload": {
            "cell_nm": 2048,
            "nx": 3,
            "ny": 3,
            "window_nm": 768,
            "step_nm": 256,
            "windows": None,
            "dedup": False,
        },
        "results": [],
    }
    for name, (clip, rast) in results.items():
        assert clip.scan_path == "clip" and rast.scan_path == "raster"
        # the fast path must be an optimization, not a different detector
        assert rast.centers == clip.centers, name
        assert np.array_equal(rast.flagged, clip.flagged), name
        np.testing.assert_allclose(
            rast.scores, clip.scores, atol=1e-9, err_msg=name
        )
        speedup = rast.windows_per_s / clip.windows_per_s
        record["workload"]["windows"] = clip.n_windows
        record["results"].append(
            {
                "detector": name,
                "backend": "layers",
                "windows": clip.n_windows,
                "clip_windows_per_s": round(clip.windows_per_s, 1),
                "raster_windows_per_s": round(rast.windows_per_s, 1),
                "speedup": round(speedup, 2),
            }
        )
        rows.append(
            {
                "detector": name,
                "backend": "layers",
                "clip_w/s": round(clip.windows_per_s, 1),
                "raster_w/s": round(rast.windows_per_s, 1),
                "speedup": f"{speedup:.2f}x",
            }
        )

    # fused-backend rows: same raster workload, speedup vs the layers
    # raster row (the number the 11x-vs-1.7x gap is measured against)
    base = results["cnn-dct"][1]
    for backend, rep in fused.items():
        assert rep.scan_path == "raster", backend
        assert rep.centers == base.centers, backend
        if backend == "fused":
            # float64 fused path is the same function as the layers
            # forward: flags byte-identical, scores within parity noise
            assert np.array_equal(rep.flagged, base.flagged), backend
            np.testing.assert_allclose(
                rep.scores, base.scores, atol=1e-9, err_msg=backend
            )
        else:
            # int8 is tolerance-bounded: probabilities may move within
            # the quantization budget (compile_plan's max_delta_proba
            # default), so a flag may flip only on a window whose float
            # probability already sits within that budget of the flag
            # threshold — everywhere else flags must agree
            np.testing.assert_allclose(
                rep.scores, base.scores, atol=0.03, err_msg=backend
            )
            flips = np.flatnonzero(
                np.asarray(rep.flagged) != np.asarray(base.flagged)
            )
            margin = np.abs(
                np.asarray(base.scores)[flips] - detectors["cnn-dct"].threshold
            )
            assert (margin <= 0.03).all(), (backend, len(flips), margin.max())
        speedup = paired_speedup(("cnn-dct", backend))
        record["results"].append(
            {
                "detector": "cnn-dct",
                "backend": backend,
                "windows": rep.n_windows,
                "clip_windows_per_s": None,
                "raster_windows_per_s": round(rep.windows_per_s, 1),
                "speedup": round(speedup, 2),
            }
        )
        rows.append(
            {
                "detector": "cnn-dct",
                "backend": backend,
                "clip_w/s": "-",
                "raster_w/s": round(rep.windows_per_s, 1),
                "speedup": f"{speedup:.2f}x",
            }
        )

    bench_json = Path(__file__).resolve().parents[1] / "BENCH_scan.json"
    bench_json.write_text(json.dumps(record, indent=2) + "\n")
    text = write_table(
        rows,
        out_dir / "raster_plane_scan.md",
        title="Raster-plane scan path: windows/s vs the per-clip path",
    )
    print("\n" + text)

    by_key = {
        (r["detector"], r["backend"]): r for r in record["results"]
    }
    # the always-on prefilter stage gets the full batching win
    assert by_key[("logistic-density", "layers")]["speedup"] >= 3.0
    # the CNN path is forward-dominated; batching must still never lose
    assert by_key[("cnn-dct", "layers")]["speedup"] >= 1.0
    # the fused backends are where the CNN row's speedup comes from
    assert by_key[("cnn-dct", "fused")]["speedup"] >= FUSED_MIN_SPEEDUP
    assert by_key[("cnn-dct", "fused-int8")]["speedup"] >= INT8_MIN_SPEEDUP
