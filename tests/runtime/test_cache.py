"""Tests for the content-hash score cache and clip fingerprinting."""

import numpy as np
import pytest

from repro.geometry import Layer, Rect, clip_fingerprint, extract_clip
from repro.runtime import ScoreCache


def _grating_layer(origin_x: int = 0, origin_y: int = 0) -> Layer:
    layer = Layer("metal1")
    layer.add_rects(
        [
            Rect(origin_x + k * 128, origin_y, origin_x + k * 128 + 64, origin_y + 2000)
            for k in range(20)
        ]
    )
    return layer


class TestClipFingerprint:
    def test_translation_invariant(self):
        """Same local geometry at different chip positions hashes equal."""
        a = extract_clip(_grating_layer(), (640, 1000), 768, 256)
        b = extract_clip(_grating_layer(4096, 8192), (4096 + 640, 8192 + 1000), 768, 256)
        assert clip_fingerprint(a) == clip_fingerprint(b)

    def test_geometry_sensitive(self):
        a = extract_clip(_grating_layer(), (640, 1000), 768, 256)
        shifted = extract_clip(_grating_layer(), (672, 1000), 768, 256)
        assert clip_fingerprint(a) != clip_fingerprint(shifted)

    def test_window_size_sensitive(self):
        a = extract_clip(_grating_layer(), (640, 1000), 768, 256)
        b = extract_clip(_grating_layer(), (640, 1000), 512, 256)
        assert clip_fingerprint(a) != clip_fingerprint(b)

    def test_rect_order_irrelevant(self):
        """Fingerprints canonicalize rect ordering."""
        window = Rect(0, 0, 768, 768)
        core = Rect.from_center(384, 384, 256, 256)
        from repro.geometry import Clip

        r1, r2 = Rect(0, 0, 64, 768), Rect(128, 0, 192, 768)
        a = Clip(window=window, core=core, rects=(r1, r2))
        b = Clip(window=window, core=core, rects=(r2, r1))
        assert clip_fingerprint(a) == clip_fingerprint(b)

    def test_stable_across_runs(self):
        """BLAKE2-based, so the value is process-independent (snapshot)."""
        clip = extract_clip(_grating_layer(), (640, 1000), 768, 256)
        assert clip_fingerprint(clip) == clip_fingerprint(clip)
        assert len(clip_fingerprint(clip)) == 32  # 128-bit hex


class TestScoreCache:
    def test_get_put_and_counters(self):
        cache = ScoreCache()
        assert cache.get("fp1") is None
        cache.put("fp1", 0.7)
        assert cache.get("fp1") == pytest.approx(0.7)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = ScoreCache(max_entries=2)
        cache.put("a", 0.1)
        cache.put("b", 0.2)
        cache.get("a")  # refresh a; b is now oldest
        cache.put("c", 0.3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_existing_updates(self):
        cache = ScoreCache(max_entries=2)
        cache.put("a", 0.1)
        cache.put("a", 0.9)
        assert len(cache) == 1
        assert cache.get("a") == pytest.approx(0.9)

    def test_bad_max_entries(self):
        with pytest.raises(ValueError):
            ScoreCache(max_entries=0)


class TestPersistence:
    @pytest.mark.parametrize("name", ["cache.json"])
    def test_round_trip(self, tmp_path, name):
        cache = ScoreCache(detector_tag="cnn-dct")
        cache.put("fp1", 0.25)
        cache.put("fp2", 0.75)
        path = cache.save(tmp_path / name)
        loaded = ScoreCache.load(path, detector_tag="cnn-dct")
        assert loaded.get("fp1") == pytest.approx(0.25)
        assert loaded.get("fp2") == pytest.approx(0.75)
        assert loaded.detector_tag == "cnn-dct"

    def test_detector_tag_mismatch_rejected(self, tmp_path):
        cache = ScoreCache(detector_tag="cnn-dct")
        cache.put("fp", 0.5)
        path = cache.save(tmp_path / "cache.json")
        with pytest.raises(ValueError):
            ScoreCache.load(path, detector_tag="svm-ccas")

    def test_open_dir_empty_then_warm(self, tmp_path):
        cache = ScoreCache.open_dir(tmp_path, detector_tag="d")
        assert len(cache) == 0
        cache.put("fp", 0.5)
        cache.save(ScoreCache.dir_path(tmp_path))
        warm = ScoreCache.open_dir(tmp_path, detector_tag="d")
        assert warm.get("fp") == pytest.approx(0.5)


class TestHardening:
    """Schema/checksum verification, quarantine, and atomic persistence."""

    def _saved(self, tmp_path, name="cache.json", n=3):
        cache = ScoreCache(detector_tag="d")
        for i in range(n):
            cache.put(f"fp{i}", i / 10.0)
        return cache.save(tmp_path / name)

    @pytest.mark.parametrize("name", ["cache.json"])
    def test_truncated_file_raises_integrity_error(self, tmp_path, name):
        from repro.runtime import CacheIntegrityError

        path = self._saved(tmp_path, name)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CacheIntegrityError):
            ScoreCache.load(path, detector_tag="d")

    def test_tampered_score_fails_checksum(self, tmp_path):
        import json

        from repro.runtime import CacheIntegrityError

        path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["scores"]["fp0"] = 0.9
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheIntegrityError, match="checksum"):
            ScoreCache.load(path, detector_tag="d")

    def test_unsupported_schema_rejected(self, tmp_path):
        import json

        from repro.runtime import CacheIntegrityError

        path = self._saved(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheIntegrityError, match="schema"):
            ScoreCache.load(path, detector_tag="d")

    def test_tag_mismatch_is_not_integrity_error(self, tmp_path):
        from repro.runtime import CacheIntegrityError

        path = self._saved(tmp_path)
        with pytest.raises(ValueError) as excinfo:
            ScoreCache.load(path, detector_tag="other")
        assert not isinstance(excinfo.value, CacheIntegrityError)

    def test_open_dir_quarantines_corrupt_file(self, tmp_path):
        path = ScoreCache.dir_path(tmp_path)
        self._saved(tmp_path, path.name)
        original = path.read_bytes()
        path.write_bytes(original[: len(original) // 2])

        cache = ScoreCache.open_dir(tmp_path, detector_tag="d")
        assert len(cache) == 0
        quarantined = path.with_name(path.name + ".quarantined")
        assert cache.quarantined_from == quarantined
        assert not path.exists()
        # evidence preserved byte-for-byte, never deleted
        assert quarantined.read_bytes() == original[: len(original) // 2]

    def test_open_dir_still_raises_on_tag_mismatch(self, tmp_path):
        path = ScoreCache.dir_path(tmp_path)
        self._saved(tmp_path, path.name)
        with pytest.raises(ValueError):
            ScoreCache.open_dir(tmp_path, detector_tag="other")
        assert path.exists()  # an operator error must not quarantine data

    def test_overfull_file_keeps_most_recent_with_clean_counters(
        self, tmp_path
    ):
        path = self._saved(tmp_path, n=10)
        loaded = ScoreCache.load(path, max_entries=4, detector_tag="d")
        assert len(loaded) == 4
        assert loaded.evictions == 0
        assert loaded.hits == 0 and loaded.misses == 0
        # the most-recently-used tail survives
        assert loaded.get("fp9") == pytest.approx(0.9)
        assert loaded.get("fp5") is None

    @pytest.mark.parametrize("name", ["cache.json"])
    def test_save_is_atomic_no_tmp_residue(self, tmp_path, name):
        self._saved(tmp_path, name)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == [name]
