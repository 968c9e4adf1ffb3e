"""Atomic checkpoint / resume for interrupted full-chip scans.

A chip-scale scan is an hours-long pure computation over a deterministic
window enumeration, which makes it ideal checkpoint material: progress
is fully described by *which chunks have been scored* plus their score
values.  :class:`Checkpointer` persists exactly that, atomically, every
``every_chunks`` scored chunks, and
:meth:`ScanEngine.scan(..., resume=True)
<repro.runtime.engine.ScanEngine.scan>` replays a saved prefix so the
continued scan produces a report byte-identical to an uninterrupted run.

Two progress models, matching the engine's two scan modes:

* **direct** (``dedup=False``) — the committed per-chunk score arrays,
  concatenated, plus the chunk sizes.  Resume replays the stored prefix
  chunk-for-chunk (the enumeration is deterministic) and resumes
  scoring at the cursor.
* **dedup** — the ``fingerprint -> score`` pairs scored so far.  Resume
  loads the stored pairs before its single pass, settles each stored
  pattern from them when its key first appears, and only scores the
  remainder.

The checkpoint is one checksummed :mod:`repro.durable` npz carrying a
**manifest** (schema version, detector tag, scan-config hash).  A
resume against a different config or detector is refused
(:class:`CheckpointMismatch`); a corrupt, truncated or older-schema
file is quarantined (renamed ``*.quarantined``) and the scan restarts
from scratch rather than crashing or silently mis-resuming.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..durable import CorruptFile, dump_npz, load_npz, quarantine_file
from .telemetry import Telemetry
from .trace import NULL_TRACER

#: bump when the checkpoint layout changes incompatibly (2: the
#: repro.durable checksum; an older checkpoint restarts the scan)
CHECKPOINT_SCHEMA = 2

CHECKPOINT_NAME = "scan-checkpoint.npz"

PathLike = Union[str, Path]


class CheckpointMismatch(ValueError):
    """Resume refused: the checkpoint belongs to a different scan."""


def scan_config_hash(**fields) -> str:
    """Canonical hash of everything that must match for a resume.

    The engine passes region coordinates, window/core/step geometry,
    scan path, dedup mode, chunking parameters, detector tag/threshold,
    and a cheap layer signature — any difference makes the stored
    progress meaningless, so any difference must change the hash.
    """
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


class Checkpointer:
    """Engine-side driver: accumulate progress, save atomically, replay.

    One instance serves one ``scan()`` call.  The engine records every
    committed chunk (direct mode) or scored fingerprint chunk (dedup
    mode); every ``every_chunks`` records the full state is rewritten
    atomically.  On success :meth:`finalize` deletes the file — a
    completed scan must not feed a later, different-looking resume.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        config_hash: str,
        detector_tag: str,
        mode: str,
        every_chunks: int = 16,
        telemetry: Optional[Telemetry] = None,
        faults=None,
        tracer=NULL_TRACER,
    ) -> None:
        if mode not in ("direct", "dedup"):
            raise ValueError("mode must be 'direct' or 'dedup'")
        if every_chunks < 1:
            raise ValueError("every_chunks must be >= 1")
        self.path = Path(path)
        self.config_hash = config_hash
        self.detector_tag = detector_tag
        self.mode = mode
        self.every_chunks = every_chunks
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.faults = faults
        self.tracer = tracer
        # accumulated state (direct) — everything save() persists
        self._chunk_sizes: List[int] = []
        self._score_parts: List[np.ndarray] = []
        # accumulated state (dedup)
        self._fp_scores: Dict[str, float] = {}
        # the loaded prefix, kept SEPARATE from the accumulation lists:
        # record_chunk appends to the latter while the engine is still
        # replaying, so sharing one list would replay fresh chunks
        self._replay_sizes: List[int] = []
        self._replay_parts: List[np.ndarray] = []
        self._replay_pos = 0
        self._chunks_since_save = 0

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------
    def load_for_resume(self) -> bool:
        """Load prior progress; True when a valid checkpoint was restored.

        A corrupt/truncated file is quarantined and ``False`` returned
        (the scan restarts cleanly); a structurally valid checkpoint for
        a *different* scan config or detector raises
        :class:`CheckpointMismatch` — silently rescanning would be
        surprising, mis-resuming would be wrong.
        """
        try:
            data = load_npz(self.path, (CHECKPOINT_SCHEMA,))
        except FileNotFoundError:
            return False
        except CorruptFile:
            self._quarantine()
            return False
        config_hash = str(data["config_hash"])
        detector_tag = str(data["detector_tag"])
        mode = str(data["mode"])
        if config_hash != self.config_hash:
            raise CheckpointMismatch(
                f"checkpoint at {self.path} was written by a different scan "
                f"configuration (hash {config_hash} != {self.config_hash}); "
                "pass resume=False (or a fresh checkpoint dir) to rescan"
            )
        if detector_tag != self.detector_tag or mode != self.mode:
            raise CheckpointMismatch(
                f"checkpoint at {self.path} belongs to detector "
                f"{detector_tag!r} in {mode!r} mode, not "
                f"{self.detector_tag!r}/{self.mode!r}"
            )
        self._chunk_sizes = [int(n) for n in data["chunk_sizes"]]
        offsets = np.concatenate(([0], np.cumsum(data["chunk_sizes"])))
        self._score_parts = [
            data["scores"][offsets[i] : offsets[i + 1]]
            for i in range(len(self._chunk_sizes))
        ]
        self._fp_scores = dict(
            zip(map(str, data["fingerprints"]), map(float, data["fp_scores"]))
        )
        self._replay_sizes = list(self._chunk_sizes)
        self._replay_parts = list(self._score_parts)
        self._replay_pos = 0
        self.telemetry.count("checkpoint_resumed")
        self.tracer.event(
            "checkpoint_resume",
            chunks=len(self._chunk_sizes),
            fingerprints=len(self._fp_scores),
        )
        return True

    def _quarantine(self) -> None:
        quarantined = quarantine_file(self.path)
        self.telemetry.count("checkpoint_quarantined")
        self.tracer.event("checkpoint_quarantine", path=str(quarantined))

    # ------------------------------------------------------------------
    # direct-mode progress
    # ------------------------------------------------------------------
    def next_resumed_chunk(self, expected_len: int) -> Optional[np.ndarray]:
        """Replay the next prefix chunk, or None once the prefix is spent.

        The resumed enumeration must reproduce the original chunk
        boundaries (they are deterministic given the hashed config); a
        size mismatch means the checkpoint cannot be trusted.
        """
        if self._replay_pos >= len(self._replay_sizes):
            return None
        size = self._replay_sizes[self._replay_pos]
        if size != expected_len:
            raise CheckpointMismatch(
                f"resumed chunk {self._replay_pos} has {expected_len} "
                f"windows but the checkpoint recorded {size}"
            )
        part = self._replay_parts[self._replay_pos]
        self._replay_pos += 1
        return part

    def record_chunk(self, scores: np.ndarray) -> None:
        """Commit one newly scored chunk (direct mode) in submission order."""
        scores = np.asarray(scores, dtype=np.float64)
        self._chunk_sizes.append(len(scores))
        self._score_parts.append(scores)
        self._tick()

    # ------------------------------------------------------------------
    # dedup-mode progress
    # ------------------------------------------------------------------
    def resumed_fp_scores(self) -> Dict[str, float]:
        """fingerprint -> score pairs restored from the checkpoint."""
        return dict(self._fp_scores)

    def record_fp_chunk(self, fingerprints, scores) -> None:
        """Commit one scored fingerprint chunk (dedup mode)."""
        for fp, score in zip(fingerprints, scores):
            self._fp_scores[fp] = float(score)
        self._tick()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._chunks_since_save += 1
        if self._chunks_since_save >= self.every_chunks:
            self.save()

    def save(self) -> Path:
        """Atomically rewrite the checkpoint file with current progress."""
        self._chunks_since_save = 0
        dump_npz(
            self.path,
            {
                "schema": CHECKPOINT_SCHEMA,
                "config_hash": self.config_hash,
                "detector_tag": self.detector_tag,
                "mode": self.mode,
                "chunk_sizes": np.asarray(self._chunk_sizes, dtype=np.int64),
                "scores": np.concatenate([np.empty(0), *self._score_parts]),
                "fingerprints": np.array(list(self._fp_scores), dtype=np.str_),
                "fp_scores": np.asarray(
                    list(self._fp_scores.values()), dtype=np.float64
                ),
            },
        )
        self.telemetry.count("checkpoint_saves")
        self.tracer.event(
            "checkpoint_save",
            chunks=len(self._chunk_sizes),
            fingerprints=len(self._fp_scores),
        )
        if self.faults is not None and self.faults.truncate_file(
            self.path, "checkpoint_truncate"
        ):
            self.telemetry.count("fault_checkpoint_truncate")
            self.tracer.event("fault_fired", point="checkpoint_truncate")
        return self.path

    def finalize(self) -> None:
        """Delete the checkpoint — the scan completed, progress is moot."""
        if self.path.exists():
            self.path.unlink()
