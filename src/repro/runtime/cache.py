"""Content-hash score memoization for full-chip scans.

Real layouts are dominated by repeated patterns — standard cells, memory
arrays, via farms — so most windows a full-chip sweep extracts are
geometrically identical to windows already scored.  Every detector in the
library scores a clip purely from its window-local geometry, which makes
the canonical fingerprint of :func:`repro.geometry.clip_fingerprint` a
sound memoization key: **same fingerprint, same score**, regardless of
where on the chip the window sits.

:class:`ScoreCache` is a bounded LRU map ``fingerprint -> score`` with
hit/miss/eviction counters and optional on-disk persistence (one JSON
document) so repeated scans of the same block are near-free.  A
``detector_tag`` guards persisted caches against being replayed under a
different detector (scores are detector-specific even though
fingerprints are not).

Persistence goes through :mod:`repro.durable`: saves are atomic, the
document carries a schema and a checksum, and any bad file raises
:class:`~repro.durable.CorruptFile`.  :meth:`open_dir` quarantines a
corrupt or older-schema cache (``*.quarantined``) and starts empty
instead of killing the scan — a damaged cache only costs time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from ..counters import BoundedLRU
from ..durable import CorruptFile, dump_json, load_json, quarantine_file
from .trace import NULL_TRACER

PathLike = Union[str, Path]

#: bump when the persisted layout changes incompatibly (3: the
#: repro.durable checksum; older caches start cold)
CACHE_SCHEMA = 3

#: alias kept for callers that catch corruption by this name
CacheIntegrityError = CorruptFile


class ScoreCache(BoundedLRU):
    """Bounded LRU ``fingerprint -> score`` map with persistence."""

    #: per-scan span tracer; the engine swaps in a live one around a
    #: scan (class default stays the zero-overhead null tracer)
    tracer = NULL_TRACER

    def __init__(
        self, max_entries: int = 200_000, detector_tag: str = ""
    ) -> None:
        super().__init__(max_entries, label="ScoreCache")
        self.detector_tag = detector_tag
        #: set by :meth:`open_dir` when a corrupt file was moved aside
        self.quarantined_from: Optional[Path] = None

    def put(self, fingerprint: str, score: float) -> None:
        super().put(fingerprint, float(score))

    def __len__(self) -> int:
        return self.cache_size()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Persist to ``path`` as a checksummed JSON document, atomically."""
        path = dump_json(
            path,
            {
                "schema": CACHE_SCHEMA,
                "detector": self.detector_tag,
                "scores": dict(self._entries),
            },
        )
        self.tracer.event("cache_save", entries=len(self), path=str(path))
        return path

    @classmethod
    def load(
        cls,
        path: PathLike,
        max_entries: int = 200_000,
        detector_tag: str = "",
    ) -> "ScoreCache":
        """Rebuild a cache saved by :meth:`save`.

        Raises :class:`~repro.durable.CorruptFile` when the file is
        corrupt, truncated, carries another schema, or fails its
        checksum.  A persisted cache recorded under a different
        ``detector_tag`` is rejected with a plain ``ValueError``:
        fingerprints are detector-agnostic but scores are not, and
        silently replaying them would corrupt a scan.

        Entries load in least-to-most-recently-used order; when the file
        holds more than ``max_entries`` only the most-recent tail is
        kept, and counters start clean either way (bulk-loading is not
        cache activity, so it must not inflate ``evictions``).
        """
        payload = load_json(path, (CACHE_SCHEMA,))
        tag = payload["detector"]
        if detector_tag and tag and tag != detector_tag:
            raise ValueError(
                f"cache at {path} was built by detector {tag!r}, "
                f"refusing to reuse it for {detector_tag!r}"
            )
        cache = cls(max_entries=max_entries, detector_tag=detector_tag or tag)
        items = list(payload["scores"].items())
        if len(items) > max_entries:
            items = items[-max_entries:]
        for fp, score in items:
            cache.put(fp, score)
        cache.reset_counters()
        return cache

    @classmethod
    def open_dir(
        cls,
        directory: PathLike,
        detector_tag: str = "",
        max_entries: int = 200_000,
    ) -> "ScoreCache":
        """Load the canonical cache file from a directory, or start empty.

        A corrupt canonical file is quarantined (renamed aside, never
        deleted) and an empty cache returned with ``quarantined_from``
        set, so a damaged cache costs a cold scan instead of an outage.
        A detector-tag mismatch still raises — that is an operator
        error, not corruption.
        """
        path = cls.dir_path(directory)
        try:
            return cls.load(
                path, max_entries=max_entries, detector_tag=detector_tag
            )
        except FileNotFoundError:
            return cls(max_entries=max_entries, detector_tag=detector_tag)
        except CorruptFile:
            cache = cls(max_entries=max_entries, detector_tag=detector_tag)
            cache.quarantined_from = quarantine_file(path)
            return cache

    @staticmethod
    def dir_path(directory: PathLike) -> Path:
        return Path(directory) / "scan-scores.json"
