"""CLI smoke tests (in-process, no benchmark generation)."""

import numpy as np
import pytest

from repro.cli import main
from repro.geometry import Rect, save_clips

from .conftest import clip_from_rects


class TestList:
    def test_lists_detectors(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "svm-ccas" in out
        assert "cnn-dct" in out


class TestAnalyze:
    def test_analyze_clip_file(self, tmp_path, capsys):
        clips = [
            clip_from_rects([Rect(88 + i * 128, 96, 88 + i * 128 + 64, 1104) for i in range(8)], tag="grate"),
            clip_from_rects([Rect(504, 96, 568, 1104), Rect(608, 96, 672, 1104)], tag="close"),
        ]
        path = tmp_path / "clips.txt"
        save_clips(clips, path, labels=[0, 1])
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "grate: ok" in out
        assert "close: HOTSPOT" in out
        assert "1/2 hotspots" in out


class TestPattern:
    def test_renders_ascii(self, tmp_path, capsys):
        clip = clip_from_rects([Rect(96, 568, 1104, 632)], tag="wire")
        path = tmp_path / "clips.txt"
        save_clips([clip], path)
        assert main(["pattern", str(path), "--pixel", "48"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "." in out

    def test_bad_index(self, tmp_path, capsys):
        clip = clip_from_rects([Rect(96, 568, 1104, 632)])
        path = tmp_path / "clips.txt"
        save_clips([clip], path)
        assert main(["pattern", str(path), "--index", "5"]) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestTrainScore:
    def test_train_then_score(self, tmp_path, capsys):
        from .conftest import synthetic_labeled_clips

        rng = np.random.default_rng(0)
        clips, labels = synthetic_labeled_clips(rng, n=24)
        data = tmp_path / "train.txt"
        save_clips(clips, data, labels=labels.tolist())
        model = tmp_path / "model.npz"
        assert main(["train", str(data), "--out", str(model), "--epochs", "2"]) == 0
        assert model.exists()
        assert main(["score", str(model), str(data)]) == 0
        out = capsys.readouterr().out
        assert "flagged" in out

    def test_train_rejects_unlabeled(self, tmp_path):
        clip = clip_from_rects([Rect(96, 568, 1104, 632)])
        data = tmp_path / "u.txt"
        save_clips([clip], data)
        assert main(["train", str(data)]) == 2


class TestGenDataAndEvaluate:
    def test_gen_data_tiny(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["gen-data", "--scale", "0.02", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert "B1" in out and "B5" in out
        assert (tmp_path / "cache").exists()

    def test_evaluate_tiny(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert (
            main(
                [
                    "evaluate",
                    "--detectors",
                    "logistic-density,dtree-density",
                    "--benchmarks",
                    "B1",
                    "--scale",
                    "0.02",
                    "--seed",
                    "99",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "logistic-density" in out


class TestScanCommand:
    def test_scan_gdsii(self, tmp_path, capsys):
        from .conftest import synthetic_labeled_clips
        from repro.geometry import Layout, Polygon
        from repro.geometry.gdsii import write_gdsii

        # train a tiny model
        rng = np.random.default_rng(0)
        clips, labels = synthetic_labeled_clips(rng, n=24)
        data = tmp_path / "train.txt"
        save_clips(clips, data, labels=labels.tolist())
        model = tmp_path / "model.npz"
        assert main(["train", str(data), "--out", str(model), "--epochs", "2"]) == 0
        capsys.readouterr()

        # build a small GDSII layout: wires across a 2um block
        layout = Layout("block")
        layer = layout.layer("metal1")
        for i in range(15):
            layer.add(Polygon.rectangle(Rect(0, i * 144, 2304, i * 144 + 64)))
        gds = tmp_path / "block.gds"
        write_gdsii(layout, gds)

        assert main(["scan", str(model), str(gds), "--layer", "L1"]) == 0
        out = capsys.readouterr().out
        assert "windows" in out

    def test_scan_unknown_layer(self, tmp_path, capsys):
        from repro.geometry import Layout, Polygon
        from repro.geometry.gdsii import write_gdsii

        layout = Layout("block")
        layout.layer("m").add(Polygon.rectangle(Rect(0, 0, 2000, 64)))
        gds = tmp_path / "b.gds"
        write_gdsii(layout, gds)
        assert main(["scan", str(gds), str(gds), "--layer", "nope"]) == 2

    def test_scan_region_smaller_than_window_exits_2(self, tmp_path, capsys):
        """A bbox (after margin inset) below one window must not traceback."""
        from .conftest import synthetic_labeled_clips
        from repro.geometry import Layout, Polygon
        from repro.geometry.gdsii import write_gdsii

        rng = np.random.default_rng(0)
        clips, labels = synthetic_labeled_clips(rng, n=24)
        data = tmp_path / "train.txt"
        save_clips(clips, data, labels=labels.tolist())
        model = tmp_path / "model.npz"
        assert main(["train", str(data), "--out", str(model), "--epochs", "1"]) == 0
        capsys.readouterr()

        layout = Layout("tiny")
        layout.layer("L1").add(Polygon.rectangle(Rect(0, 0, 500, 500)))
        gds = tmp_path / "tiny.gds"
        write_gdsii(layout, gds)

        assert main(["scan", str(model), str(gds), "--layer", "L1"]) == 2
        err = capsys.readouterr().err
        assert "smaller than one" in err
        assert "nothing to scan" in err


class TestRenderHeat:
    def test_nan_cells_render_blank_not_cold(self):
        from repro.cli import _render_heat

        grid = np.array([[0.9, np.nan], [0.1, 0.3]])
        rows = _render_heat(grid, threshold=0.5)
        # top row first: grid[1] renders first
        assert rows == [".+", "# "]

    def test_threshold_marks_hash(self):
        from repro.cli import _render_heat

        rows = _render_heat(np.array([[0.5, 0.49]]), threshold=0.5)
        assert rows == ["#+"]


class TestScanChipCommand:
    def _write_block(self, tmp_path, name="block.gds"):
        from repro.geometry import Layout, Polygon
        from repro.geometry.gdsii import write_gdsii

        layout = Layout("block")
        layer = layout.layer("L1")
        for i in range(15):
            layer.add(Polygon.rectangle(Rect(0, i * 144, 2304, i * 144 + 64)))
        gds = tmp_path / name
        write_gdsii(layout, gds)
        return gds

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        gds = self._write_block(tmp_path)
        assert main(["scan-chip", str(gds)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_registry_detector_scan(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        gds = self._write_block(tmp_path)
        cache = tmp_path / "scores"
        assert (
            main(
                [
                    "scan-chip",
                    str(gds),
                    "--detector",
                    "logistic-density",
                    "--cache-dir",
                    str(cache),
                    "--stats",
                    "--map",
                    "--scale",
                    "0.02",
                    "--seed",
                    "99",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "windows" in out
        assert "dedup" in out
        assert (cache / "scan-scores.json").exists()

    def test_set_overrides_threshold(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        gds = self._write_block(tmp_path)
        assert (
            main(
                [
                    "scan-chip",
                    str(gds),
                    "--detector",
                    "logistic-density",
                    "--set",
                    "threshold=0.999",
                    "--scale",
                    "0.02",
                    "--seed",
                    "99",
                ]
            )
            == 0
        )
        assert "windows" in capsys.readouterr().out

    def test_no_raster_plane_flag(self, tmp_path, capsys, monkeypatch):
        """--no-raster-plane forces the per-clip path; summaries agree."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        gds = self._write_block(tmp_path)
        base = [
            "scan-chip",
            str(gds),
            "--detector",
            "logistic-density",
            "--scale",
            "0.02",
            "--seed",
            "99",
        ]
        assert main(base) == 0
        auto = capsys.readouterr().out
        assert "[raster path]" in auto
        assert main(base + ["--no-raster-plane"]) == 0
        forced = capsys.readouterr().out
        assert "[clip path]" in forced
        # same windows and same flagged count either way
        assert auto.split("windows")[0] == forced.split("windows")[0]
        assert auto.split("flagged")[0] == forced.split("flagged")[0]

    def test_cache_dir_detector_mismatch_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        """Reusing another detector's score cache must refuse cleanly."""
        from repro.runtime import ScoreCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        gds = self._write_block(tmp_path)
        cache_dir = tmp_path / "scores"
        cache_dir.mkdir()
        stale = ScoreCache(detector_tag="someone-else")
        stale.put("fp", 0.5)
        stale.save(ScoreCache.dir_path(cache_dir))
        assert (
            main(
                [
                    "scan-chip",
                    str(gds),
                    "--detector",
                    "logistic-density",
                    "--cache-dir",
                    str(cache_dir),
                    "--scale",
                    "0.02",
                    "--seed",
                    "99",
                ]
            )
            == 2
        )
        assert "refusing" in capsys.readouterr().err

    def test_bad_override_syntax_exits_2(self, tmp_path, capsys):
        gds = self._write_block(tmp_path)
        assert (
            main(
                ["scan-chip", str(gds), "--detector", "x", "--set", "oops"]
            )
            == 2
        )
        assert "key=value" in capsys.readouterr().err


class TestScanChipSharding:
    """--shards / --manifest-out / --rescan-from."""

    def _write_block(self, tmp_path):
        from repro.geometry import Layout, Polygon
        from repro.geometry.gdsii import write_gdsii

        layout = Layout("block")
        layer = layout.layer("L1")
        for i in range(15):
            layer.add(Polygon.rectangle(Rect(0, i * 144, 2304, i * 144 + 64)))
        gds = tmp_path / "block.gds"
        write_gdsii(layout, gds)
        return gds

    def _scan(self, tmp_path, monkeypatch, report, extra):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = [
            "scan-chip",
            str(self._write_block(tmp_path)),
            "--detector",
            "logistic-density",
            "--seed",
            "99",
            "--report-json",
            str(report),
        ] + extra
        return main(argv)

    def test_sharded_cli_scan_is_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.service import canonical_report_json

        mono = tmp_path / "mono.json"
        assert self._scan(tmp_path, monkeypatch, mono, []) == 0
        sharded = tmp_path / "sharded.json"
        assert (
            self._scan(
                tmp_path,
                monkeypatch,
                sharded,
                ["--shards", "4"],
            )
            == 0
        )
        assert canonical_report_json(
            sharded.read_text().strip()
        ) == canonical_report_json(mono.read_text().strip())

    def test_shard_workers_flag_is_refused(
        self, tmp_path, capsys, monkeypatch
    ):
        """Shards run one after another: ``--shard-workers`` is gone."""
        with pytest.raises(SystemExit) as exited:
            self._scan(
                tmp_path,
                monkeypatch,
                tmp_path / "r.json",
                ["--shards", "4", "--shard-workers", "2"],
            )
        assert exited.value.code == 2
        assert "--shard-workers" in capsys.readouterr().err

    def test_rescan_from_manifest_round_trips(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.service import canonical_report_json

        manifest = tmp_path / "chip.npz"
        first = tmp_path / "first.json"
        assert (
            self._scan(
                tmp_path,
                monkeypatch,
                first,
                ["--shards", "4", "--manifest-out", str(manifest)],
            )
            == 0
        )
        assert manifest.exists()
        second = tmp_path / "second.json"
        assert (
            self._scan(
                tmp_path,
                monkeypatch,
                second,
                ["--shards", "4", "--rescan-from", str(manifest)],
            )
            == 0
        )
        assert canonical_report_json(
            second.read_text().strip()
        ) == canonical_report_json(first.read_text().strip())

    def test_missing_rescan_manifest_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        report = tmp_path / "r.json"
        code = self._scan(
            tmp_path,
            monkeypatch,
            report,
            ["--shards", "4", "--rescan-from", str(tmp_path / "nope.npz")],
        )
        assert code == 2
        assert "no chip manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["1", "4"])
    def test_resume_without_checkpoint_dir_exits_2(
        self, tmp_path, capsys, monkeypatch, shards
    ):
        report = tmp_path / "r.json"
        code = self._scan(
            tmp_path, monkeypatch, report, ["--shards", shards, "--resume"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "resume=True requires" in err and "checkpoint_dir" in err
        assert "Traceback" not in err
        assert not report.exists()

    def test_corrupt_rescan_manifest_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        import numpy as np

        from repro.runtime import ChipManifest

        manifest = ChipManifest(
            plan_digest="p",
            detector="logistic-density",
            threshold=0.5,
            scan_path="clip",
            has_confirmed=False,
            fingerprints=["f"],
            scores=[np.array([0.25])],
            flags=[np.array([False])],
            conf=[np.array([-1], dtype=np.int8)],
        ).save(tmp_path / "chip.npz")
        raw = manifest.read_bytes()
        manifest.write_bytes(raw[: len(raw) // 2])
        code = self._scan(
            tmp_path,
            monkeypatch,
            tmp_path / "r.json",
            ["--shards", "4", "--rescan-from", str(manifest)],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "chip.npz is unreadable" in err
        assert "Traceback" not in err


class TestScanChipObservability:
    """End-to-end: --trace-dir / --metrics-out / --progress / --report-json."""

    def _scan(self, tmp_path, capsys, monkeypatch, extra):
        import json

        from repro.geometry import Layout, Polygon
        from repro.geometry.gdsii import write_gdsii

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        layout = Layout("block")
        layer = layout.layer("L1")
        for i in range(15):
            layer.add(Polygon.rectangle(Rect(0, i * 144, 2304, i * 144 + 64)))
        gds = tmp_path / "block.gds"
        write_gdsii(layout, gds)
        argv = [
            "scan-chip",
            str(gds),
            "--detector",
            "logistic-density",
            "--scale",
            "0.02",
            "--seed",
            "99",
        ] + extra
        assert main(argv) == 0
        captured = capsys.readouterr()
        return json, captured

    def test_trace_and_metrics_artifacts(
        self, tmp_path, capsys, monkeypatch
    ):
        json, captured = self._scan(
            tmp_path,
            capsys,
            monkeypatch,
            [
                "--trace-dir",
                str(tmp_path / "trace"),
                "--metrics-out",
                str(tmp_path / "metrics"),
                "--progress",
            ],
        )
        # JSONL trace parses line by line and is bracketed correctly
        trace_lines = (
            (tmp_path / "trace" / "scan-trace.jsonl")
            .read_text()
            .splitlines()
        )
        records = [json.loads(line) for line in trace_lines]
        assert records[0]["ev"] == "trace_start"
        assert records[-1]["ev"] == "trace_end"
        assert any(r["ev"] == "span_open" for r in records)
        # metrics snapshot: valid JSON + Prometheus exposition
        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        assert snapshot["counters"]["fault_worker_crash"] == 0
        prom = (tmp_path / "metrics.prom").read_text()
        assert prom.startswith("# HELP repro_scan_info")
        assert 'repro_scan_events_total{event="pool_retries"} 0' in prom
        # progress heartbeats landed on stderr
        assert "windows" in captured.err

    def test_report_json_round_trips(self, tmp_path, capsys, monkeypatch):
        from repro.runtime import ScanReport

        json, _captured = self._scan(
            tmp_path,
            capsys,
            monkeypatch,
            ["--report-json", str(tmp_path / "report.json")],
        )
        document = (tmp_path / "report.json").read_text().strip()
        report = ScanReport.from_json(document)
        assert report.to_json() == document
        assert report.n_windows > 0

    def test_stats_prints_structured_snapshot(
        self, tmp_path, capsys, monkeypatch
    ):
        json, captured = self._scan(
            tmp_path, capsys, monkeypatch, ["--stats"]
        )
        out = captured.out
        snapshot = json.loads(out[out.index("{") :])
        assert snapshot["schema"] == 1
        assert "fault_worker_crash" in snapshot["counters"]
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])
