"""Every on-disk format survives truncation, bit flips and schema bumps.

Seven formats persist state for a later run, and all of them write and
read through :mod:`repro.durable`.  For each one this file writes a
small artifact with the format's own writer, truncates it at every byte
offset and, separately, flips one bit at every offset.  The format's
reader must return the original content or take the format's own
bad-file outcome:

==================  ==========================================
score cache         quarantined; the cache starts cold
checkpoint          quarantined; the scan restarts
chip manifest       ``CorruptFile`` (``--rescan-from`` exits 2)
shard report        quarantined; that shard is re-scanned
cascade tuning      ``CorruptFile`` (``--cascade-tuning`` exits 2)
lint cache          dropped
job record, result  quarantined; the manager counts it
==================  ==========================================

A raw decoder exception, or different content accepted, fails.  A file
of the next schema must take the same bad-file outcome.  A file that an
earlier build wrote follows the one compatibility rule: formats that
only save time treat it as bad, while the files a newer build is handed
(job records, results, cascade tunings) still load, unverified.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.cache import LintCache
from repro.contracts import ContractViolation
from repro.durable import CorruptFile, dump_json, dump_npz
from repro.geometry import Layer, Rect
from repro.runtime import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    CascadeTuning,
    Checkpointer,
    ChipManifest,
    EngineConfig,
    FaultInjector,
    ScoreCache,
    scan_chip,
)
from repro.service import (
    FileJobStore,
    FileResultStore,
    JobRecord,
    StoredResult,
    canonical_report_json,
)

from .runtime.conftest import GradedDensityDetector  # lint: disable=no-deep-runtime-import  (the runtime tests' detector double, not the repro.runtime package)

#: what a reader returns once it has checked the format's bad-file outcome
BAD = "bad-file outcome"


def _quarantined(path: Path) -> bool:
    return (
        not path.exists()
        and path.with_name(path.name + ".quarantined").exists()
    )


# ----------------------------------------------------------------------
# the seven formats: writer, reader, and the layout an earlier build wrote
# ----------------------------------------------------------------------
class ScoreCacheFormat:
    name = "score-cache"
    legacy_loads = False
    scores = {"fp0": 0.0, "fp1": 1 / 7, "fp2": 2 / 7}

    def write(self, root: Path) -> Path:
        cache = ScoreCache(detector_tag="d")
        for fp, score in self.scores.items():
            cache.put(fp, score)
        return cache.save(ScoreCache.dir_path(root))

    def read(self, path: Path):
        cache = ScoreCache.open_dir(path.parent, detector_tag="d")
        if cache.quarantined_from is not None:
            assert len(cache) == 0 and _quarantined(path)
            return BAD
        return len(cache), {fp: cache.get(fp) for fp in self.scores}

    def write_legacy(self, root: Path) -> Path:
        """Schema 2, checksummed by the cache's own BLAKE2b."""
        h = hashlib.blake2b(digest_size=16)
        h.update(b"d")
        for fp, score in self.scores.items():
            h.update(fp.encode())
            h.update(np.float64(score).tobytes())
        path = ScoreCache.dir_path(root)
        path.write_text(
            json.dumps(
                {
                    "schema": 2,
                    "detector": "d",
                    "scores": self.scores,
                    "checksum": h.hexdigest(),
                }
            )
        )
        return path


class CheckpointFormat:
    name = "checkpoint"
    legacy_loads = False
    ident = dict(config_hash="c0ffee", detector_tag="d", mode="direct")

    def write(self, root: Path) -> Path:
        ckpt = Checkpointer(
            root / CHECKPOINT_NAME, every_chunks=100, **self.ident
        )
        ckpt.record_chunk(np.array([0.25, 0.5]))
        ckpt.record_fp_chunk(["fa", "fb"], [0.125, 0.75])
        return ckpt.save()

    def read(self, path: Path):
        ckpt = Checkpointer(path, **self.ident)
        if not ckpt.load_for_resume():
            assert ckpt.telemetry.counter("checkpoint_quarantined") == 1
            assert _quarantined(path)
            return BAD
        return (
            ckpt.next_resumed_chunk(2).tolist(),
            ckpt.next_resumed_chunk(0),
            ckpt.resumed_fp_scores(),
        )

    def write_legacy(self, root: Path) -> Path:
        """Schema 1, with its own checksum over the payload."""
        arrays = dict(
            chunk_sizes=np.array([2], dtype=np.int64),
            scores=np.array([0.25, 0.5]),
            fingerprints=np.array(["fa", "fb"]),
            fp_scores=np.array([0.125, 0.75]),
        )
        h = hashlib.blake2b(digest_size=16)
        for part in ("c0ffee", "d", "direct"):
            h.update(part.encode())
        h.update(arrays["chunk_sizes"].tobytes())
        h.update(arrays["scores"].tobytes())
        h.update(b"fa\0fb")
        h.update(arrays["fp_scores"].tobytes())
        path = root / CHECKPOINT_NAME
        np.savez_compressed(
            path,
            schema=np.array(1),
            **{key: np.array(value) for key, value in self.ident.items()},
            **arrays,
            checksum=np.array(h.hexdigest()),
        )
        return path


class ChipManifestFormat:
    name = "chip-manifest"
    legacy_loads = False
    meta = dict(
        plan_digest="p0",
        detector="d",
        threshold=0.5,
        scan_path="clip",
        has_confirmed=True,
    )

    def write(self, root: Path) -> Path:
        return ChipManifest(
            **self.meta,
            fingerprints=["fa", "fb"],
            scores=[np.array([0.25, 0.75]), np.array([0.5])],
            flags=[np.array([False, True]), np.array([True])],
            conf=[np.array([-1, 1], np.int8), np.array([0], np.int8)],
        ).save(root / MANIFEST_NAME)

    def read(self, path: Path):
        try:
            manifest = ChipManifest.load(path)
        except CorruptFile:
            assert path.exists()  # refused, left in place
            return BAD
        arrays = [
            [(a.dtype.str, a.tolist()) for a in group]
            for group in (manifest.scores, manifest.flags, manifest.conf)
        ]
        return (
            manifest.plan_digest,
            manifest.detector,
            manifest.threshold,
            manifest.scan_path,
            manifest.has_confirmed,
            manifest.fingerprints,
            arrays,
        )

    def write_legacy(self, root: Path) -> Path:
        """Schema 1: the schema inside the meta string, no checksum."""
        path = root / MANIFEST_NAME
        meta = json.dumps({"schema": 1, **self.meta}, sort_keys=True)
        np.savez_compressed(
            path,
            meta=np.array(meta),
            fingerprints=np.array(["fa", "fb"]),
            offsets=np.array([0, 2, 3], dtype=np.int64),
            scores=np.array([0.25, 0.75, 0.5]),
            flags=np.array([False, True, True]),
            conf=np.array([-1, 1, 0], dtype=np.int8),
        )
        return path


class ShardReportFormat:
    """Shard 0's persisted report, read back by ``scan_chip(resume=True)``."""

    name = "shard-report"
    legacy_loads = False

    def __init__(self) -> None:
        self.layer = Layer("metal1")
        self.layer.add_rects(
            [Rect(0, 0, 300, 1200), Rect(600, 100, 1000, 300)]
        )
        self.reference = None

    def _scan(self, root, **kwargs):
        config = EngineConfig.from_kwargs(
            shards=2,
            dedup=False,
            instance_dedup=False,
            checkpoint_dir=root,
            on_invalid_score="raise",
        )
        return scan_chip(
            self.layer,
            GradedDensityDetector(),
            config,
            region=Rect(0, 0, 1024, 768),
            **kwargs,
        )

    def write(self, root: Path) -> Path:
        if self.reference is None:
            self.reference = canonical_report_json(self._scan(None).to_json())
        # one NaN score kills shard 1 after shard 0 persisted its report
        with pytest.raises(ContractViolation):
            self._scan(root, faults=FaultInjector("nan_score@1"))
        return root / "shard-0000.report.json"

    def read(self, path: Path):
        report = self._scan(path.parent, resume=True)
        merged = canonical_report_json(report.to_json())
        if report.telemetry.counter("shard_resumed") == 0:
            assert merged == self.reference and _quarantined(path)
            return BAD
        return merged

    def write_legacy(self, root: Path) -> Path:
        """The report's own sorted JSON plus a newline, no checksum."""
        path = self.write(root)
        document = json.loads(path.read_text())
        del document["checksum"]
        path.write_text(json.dumps(document, sort_keys=True) + "\n")
        return path


class CascadeTuningFormat:
    name = "cascade-tuning"
    legacy_loads = True
    tuning = CascadeTuning(
        filter_cutoff=0.21,
        skip_rate=0.5,
        threshold=0.6,
        n_calibration=4,
        n_hot=1,
        min_hot_score=0.3,
        clamped=False,
        sweep=((0.1, 0.25, 0), (0.21, 0.5, 0), (0.3, 0.75, 1)),
    )

    def write(self, root: Path) -> Path:
        return self.tuning.save(root / "tuning.json")

    def read(self, path: Path):
        try:
            return CascadeTuning.load(path)
        except CorruptFile:
            assert path.exists()  # refused, left in place
            return BAD

    def write_legacy(self, root: Path) -> Path:
        """Schema 1: indented, sorted, no checksum."""
        path = root / "tuning.json"
        document = {**self.tuning.as_dict(), "schema": 1}
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return path


class LintCacheFormat:
    name = "lint-cache"
    legacy_loads = False

    def write(self, root: Path) -> Path:
        cache = LintCache(root / ".lint_cache", fingerprint="rules-1")
        cache.put_file(
            "pkg/a.py",
            "sha-a",
            {"imports": ["pkg.b"]},
            [{"rule": "float-eq", "line": 3}],
        )
        cache.put_semantic("pkg/a.py", "cone", "digest-a", [])
        cache.save()
        return cache.path

    def read(self, path: Path):
        files = LintCache(path.parent, fingerprint="rules-1").files
        return BAD if files == {} else files

    def write_legacy(self, root: Path) -> Path:
        """Schema 1, no checksum."""
        path = self.write(root)
        document = json.loads(path.read_text())
        del document["checksum"]
        document["schema"] = 1
        path.write_text(json.dumps(document))
        return path


class JobRecordFormat:
    name = "job-record"
    legacy_loads = True
    record = JobRecord(
        job_id="j1",
        request={"schema": 1, "layer": "metal1"},
        seq=3,
        attempts=1,
        created_at=100.0,
        updated_at=101.5,
        error_chain=("attempt 1: preempted",),
    )

    def write(self, root: Path) -> Path:
        FileJobStore(root).put(self.record)
        return root / "jobs" / "j1.json"

    def read(self, path: Path):
        seen = []
        store = FileJobStore(
            path.parent.parent, on_quarantine=lambda kind, _: seen.append(kind)
        )
        record = store.get("j1")
        if record is None:
            assert seen == ["job"] and _quarantined(path)
            return BAD
        return record

    def write_legacy(self, root: Path) -> Path:
        """Schema 2: the record as sorted JSON, no checksum."""
        path = root / "jobs" / "j1.json"
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({**self.record.to_dict(), "schema": 2}, sort_keys=True)
        )
        return path


class ResultFormat:
    name = "result"
    legacy_loads = True
    result = StoredResult(
        job_id="j1",
        document='{"schema": 2, "scores": [0.25, 0.5]}',
        metrics={"schema": 1, "counters": {"scored": 2}},
    )

    def write(self, root: Path) -> Path:
        FileResultStore(root).put(self.result)
        return root / "results" / "j1.result.json"

    def read(self, path: Path):
        seen = []
        results = FileResultStore(
            path.parent.parent, on_quarantine=lambda kind, _: seen.append(kind)
        )
        stored = results.get("j1")
        if stored is None:
            assert seen == ["result"] and _quarantined(path)
            return BAD
        return stored

    def write_legacy(self, root: Path) -> Path:
        """The verbatim report beside its metrics, no checksums."""
        results = root / "results"
        results.mkdir(parents=True)
        (results / "j1.report.json").write_text(self.result.document)
        (results / "j1.metrics.json").write_text(
            json.dumps(self.result.metrics, sort_keys=True)
        )
        return results / "j1.report.json"


FORMATS = [
    ScoreCacheFormat(),
    CheckpointFormat(),
    ChipManifestFormat(),
    ShardReportFormat(),
    CascadeTuningFormat(),
    LintCacheFormat(),
    JobRecordFormat(),
    ResultFormat(),
]
each_format = pytest.mark.parametrize(
    "fmt", FORMATS, ids=[fmt.name for fmt in FORMATS]
)


# ----------------------------------------------------------------------
# the corruption matrix
# ----------------------------------------------------------------------
def _damaged(raw: bytes):
    """Every truncation of ``raw``, and one flipped bit at every offset."""
    for offset in range(len(raw)):
        yield f"truncated to {offset} bytes", raw[:offset]
        flipped = bytearray(raw)
        flipped[offset] ^= 1 << (offset % 8)
        yield f"bit {offset % 8} of byte {offset} flipped", bytes(flipped)


@each_format
def test_damaged_file_reads_intact_or_takes_the_bad_file_outcome(
    fmt, tmp_path
):
    path = fmt.write(tmp_path)
    raw = path.read_bytes()
    original = fmt.read(path)
    assert original is not BAD
    failures = []
    for what, data in _damaged(raw):
        path.with_name(path.name + ".quarantined").unlink(missing_ok=True)
        path.write_bytes(data)
        try:
            got = fmt.read(path)
        except Exception as exc:  # lint: disable=broad-except  (any exception that escapes the reader is the failure being tallied)
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        if got is not BAD and got != original:
            failures.append(f"{what}: accepted different content")
    assert not failures, (
        f"{len(failures)} of {2 * len(raw)} damaged {fmt.name} files "
        "mishandled:\n" + "\n".join(failures[:12])
    )


def _bump_schema(path: Path) -> None:
    """Rewrite ``path`` one schema ahead, with a valid checksum."""
    if path.suffix == ".npz":
        with np.load(path) as archive:
            arrays = {
                name: archive[name]
                for name in archive.files
                if name != "checksum"
            }
        arrays["schema"] = arrays["schema"] + 1
        dump_npz(path, arrays)
    else:
        document = json.loads(path.read_text())
        del document["checksum"]
        document["schema"] += 1
        dump_json(path, document)


@each_format
def test_next_schema_takes_the_bad_file_outcome(fmt, tmp_path):
    path = fmt.write(tmp_path)
    _bump_schema(path)
    assert fmt.read(path) is BAD


@each_format
def test_file_from_an_earlier_build(fmt, tmp_path):
    """Time-saving formats refuse it; handed-over files still load."""
    original = fmt.read(fmt.write(tmp_path / "current"))
    (tmp_path / "earlier").mkdir()
    got = fmt.read(fmt.write_legacy(tmp_path / "earlier"))
    assert got == (original if fmt.legacy_loads else BAD)


# ----------------------------------------------------------------------
# concurrent writers of one path
# ----------------------------------------------------------------------
def _race(*targets) -> None:
    """Run ``targets`` on threads that switch as often as possible."""
    errors = []

    def run(target):
        try:
            target()
        except Exception as exc:  # lint: disable=broad-except  (re-raised below in the test's own thread)
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_two_threads_saving_one_score_cache(tmp_path):
    """``scan_chip`` shard engines sharing one ``cache_dir`` do this."""
    path = ScoreCache.dir_path(tmp_path)
    caches = []
    for k in (1, 2):
        cache = ScoreCache(detector_tag="d")
        for i in range(100):
            cache.put(f"fp{i}", (i * k % 97) / 97)
        caches.append(cache)

    def saver(cache):
        return lambda: [cache.save(path) for _ in range(500)]

    _race(*(saver(cache) for cache in caches))
    loaded = ScoreCache.load(path, detector_tag="d")
    assert any(
        all(loaded.get(f"fp{i}") == cache.get(f"fp{i}") for i in range(100))
        for cache in caches
    )
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_two_checkpointers_saving_while_a_third_resumes(tmp_path):
    """A reaped worker that is still alive writes the same checkpoint."""
    path = tmp_path / CHECKPOINT_NAME
    ident = dict(config_hash="c", detector_tag="d", mode="dedup")
    writers = []
    for k in (1, 2):
        ckpt = Checkpointer(path, every_chunks=1000, **ident)
        ckpt.record_fp_chunk(
            [f"fp{i}" for i in range(500)], np.linspace(0, 1 / k, 500)
        )
        writers.append(ckpt)
    writers[0].save()

    def saver(ckpt):
        return lambda: [ckpt.save() for _ in range(30)]

    def resumer():
        for _ in range(30):
            reader = Checkpointer(path, **ident)
            assert reader.load_for_resume(), "read a torn checkpoint"

    _race(*(saver(ckpt) for ckpt in writers), resumer)
    final = Checkpointer(path, **ident)
    assert final.load_for_resume()
    assert final.resumed_fp_scores() in [
        writer.resumed_fp_scores() for writer in writers
    ]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# ----------------------------------------------------------------------
# one module owns the rename
# ----------------------------------------------------------------------
def test_only_the_durable_module_renames_files_into_place():
    src = Path(repro.__file__).resolve().parent
    pattern = re.compile(r"\bos\.replace\b|\.tmp\b")
    offenders = [
        f"{path.relative_to(src.parent)}:{lineno}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        if path != src / "durable.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, "\n".join(offenders)
