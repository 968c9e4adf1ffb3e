"""Full-chip scale-out — instance dedup and incremental re-scan.

Two scenarios land in ``BENCH_chip.json`` at the repo root:

* ``instance_dedup`` — a 12x12 ``replicate_block`` array scanned with
  pitch-snapped shards, fingerprint dedup on vs off.  Hierarchical
  reuse is deterministic, so this one IS gated: >= 10x windows/s.
* ``rescan`` — the array re-scanned from its manifest after dirtying
  one placement: only the edit's fingerprint cone may be re-scored.
"""

import json
import time
from pathlib import Path

import numpy as np

from .conftest import run_once

WINDOW, CORE = 768, 256


def _fitted_detector(suite):
    from repro.core.registry import create

    b1 = [b for b in suite if b.name == "B1"][0]
    detector = create("logistic-density")
    detector.fit(b1.train, rng=np.random.default_rng(17))
    return detector


def _routed_block(cell_nm=2048):
    from repro.data import RoutedBlockConfig, synthesize_routed_block
    from repro.geometry import Rect

    rng = np.random.default_rng(17)
    cell = Rect(0, 0, cell_nm, cell_nm)
    layer, _seeded = synthesize_routed_block(
        rng, cell, RoutedBlockConfig(n_marginal=2, marginal_len_nm=400)
    )
    return layer, cell


def _array_chip(nx=8, ny=8, cell_nm=2048):
    from repro.data import replicate_block
    from repro.geometry import Rect

    cell_layer, cell = _routed_block(cell_nm)
    layer = replicate_block(
        cell_layer, cell, nx, ny, pitch_x=cell_nm, pitch_y=cell_nm
    )
    return layer, Rect(0, 0, nx * cell_nm, ny * cell_nm)


def _canonical(report):
    from repro.service import canonical_report_json

    return canonical_report_json(report.to_json())


def _merge_bench_json(update):
    """Merge a partial record into BENCH_chip.json (tests can run solo)."""
    bench_json = Path(__file__).resolve().parents[1] / "BENCH_chip.json"
    record = {}
    if bench_json.exists():
        try:
            record = json.loads(bench_json.read_text())
        except json.JSONDecodeError:
            record = {}
    record.update(update)
    bench_json.write_text(json.dumps(record, indent=2) + "\n")


def test_chip_instance_dedup_speedup(benchmark, suite, out_dir):
    from repro.bench import write_table
    from repro.runtime import EngineConfig, scan_chip

    detector = _fitted_detector(suite)
    layer, region = _array_chip(nx=12, ny=12)
    shards, snap = 144, 2048

    def run():
        out = {}
        for dedup in (False, True):
            config = EngineConfig.from_kwargs(
                shards=shards, snap_nm=snap, instance_dedup=dedup
            )
            t0 = time.perf_counter()
            report = scan_chip(
                layer, detector, config, region=region,
                window_nm=WINDOW, core_nm=CORE,
            )
            tele = report.telemetry
            out[dedup] = {
                "elapsed_s": time.perf_counter() - t0,
                "canonical": _canonical(report),
                "n_windows": report.n_windows,
                "shard_scans": tele.counter("shard_scans"),
                "shard_replays": tele.counter("shard_replays"),
                "windows_scanned": tele.counter("shard_windows_scanned"),
                "windows_replayed": tele.counter("shard_windows_replayed"),
            }
        return out

    out = run_once(benchmark, run)

    assert out[True]["canonical"] == out[False]["canonical"], (
        "dedup must not change a single byte of the merged report"
    )
    rate_off = out[False]["n_windows"] / out[False]["elapsed_s"]
    rate_on = out[True]["n_windows"] / out[True]["elapsed_s"]
    speedup = rate_on / rate_off
    # hierarchical reuse is deterministic, so this gate is stable: the
    # 12x12 array collapses to a handful of canonical shards
    assert out[True]["shard_scans"] < out[False]["shard_scans"] / 4
    assert speedup >= 10.0, (
        f"instance dedup speedup {speedup:.1f}x < 10x "
        f"({out[True]['shard_scans']} scans vs {out[False]['shard_scans']})"
    )

    rows = [
        {
            "instance_dedup": dedup,
            "windows/s": round(out[dedup]["n_windows"] / out[dedup]["elapsed_s"]),
            "elapsed_s": round(out[dedup]["elapsed_s"], 3),
            "shard_scans": out[dedup]["shard_scans"],
            "shard_replays": out[dedup]["shard_replays"],
        }
        for dedup in (False, True)
    ]
    _merge_bench_json(
        {
            "instance_dedup": {
                "array": "12x12 x 2048nm routed cell",
                "shards": shards,
                "snap_nm": snap,
                "speedup_windows_per_s": round(speedup, 2),
                "results": rows,
            }
        }
    )
    text = write_table(
        rows,
        out_dir / "chip_instance_dedup.md",
        title="Chip scan: instance-level dedup on a replicated array",
    )
    print("\n" + text)


def test_chip_incremental_rescan(benchmark, suite, out_dir, tmp_path):
    from repro.bench import write_table
    from repro.geometry import Layer, Rect
    from repro.runtime import EngineConfig, scan_chip

    detector = _fitted_detector(suite)
    layer, region = _array_chip(nx=4, ny=4)
    manifest = tmp_path / "chip-manifest.npz"
    shards, snap = 16, 2048

    edited = Layer(layer.name)
    for poly in layer.polygons:
        edited.add(poly)
    edited.add_rects([Rect(2048 + 600, 2048 + 600, 2048 + 900, 2048 + 700)])

    def run():
        t0 = time.perf_counter()
        scan_chip(
            layer,
            detector,
            EngineConfig.from_kwargs(
                shards=shards, snap_nm=snap, manifest=manifest
            ),
            region=region,
            window_nm=WINDOW,
            core_nm=CORE,
        )
        full_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        rescan = scan_chip(
            edited,
            detector,
            EngineConfig.from_kwargs(
                shards=shards, snap_nm=snap, rescan_from=manifest
            ),
            region=region,
            window_nm=WINDOW,
            core_nm=CORE,
        )
        rescan_s = time.perf_counter() - t0

        fresh = scan_chip(
            edited,
            detector,
            EngineConfig.from_kwargs(shards=shards, snap_nm=snap),
            region=region,
            window_nm=WINDOW,
            core_nm=CORE,
        )
        return {
            "full_s": full_s,
            "rescan_s": rescan_s,
            "rescan": rescan,
            "fresh": _canonical(fresh),
        }

    out = run_once(benchmark, run)

    rescan = out["rescan"]
    tele = rescan.telemetry
    rescored = tele.counter("rescan_shards_rescored")
    reused = tele.counter("rescan_shards_reused")
    # the edit touched one placement: only its fingerprint cone rescans
    assert _canonical(rescan) == out["fresh"]
    assert rescored >= 1
    assert reused > rescored, "most of the chip must replay from the manifest"

    row = {
        "full_scan_s": round(out["full_s"], 3),
        "rescan_s": round(out["rescan_s"], 3),
        "shards_rescored": rescored,
        "shards_reused": reused,
        "windows_reused": tele.counter("rescan_windows_reused"),
    }
    _merge_bench_json({"rescan": {"shards": shards, **row}})
    text = write_table(
        [row],
        out_dir / "chip_rescan.md",
        title="Chip scan: incremental re-scan after a one-cell edit",
    )
    print("\n" + text)
