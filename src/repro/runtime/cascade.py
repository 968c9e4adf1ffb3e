"""Staged detector cascade: the EPIC-style meta-detector.

The accuracy-vs-runtime trade-off the survey closes on is not "pick one
detector" but "spend expensive detectors only where cheap ones are
unsure".  :class:`CascadeDetector` chains the library's generations into
one :class:`~repro.core.detector.Detector`:

1. **matcher** (optional) — an exact/fuzzy pattern matcher; windows that
   match a known-bad library pattern are resolved *hot* immediately,
2. **prefilter** (optional) — a cheap shallow model run at a high-recall
   (i.e. deliberately low) cutoff; windows it scores confidently cold are
   resolved without ever reaching the expensive stage,
3. **primary** — the expensive detector (typically the CNN) scores
   whatever survives,
4. **verifier** (optional) — a :class:`~repro.litho.HotspotOracle` (or
   anything with ``label(clip)``) re-checks flagged windows on demand via
   :meth:`verify_flagged`.

Per-stage resolution counts accumulate in :class:`CascadeStats` so the
scan report can show exactly where windows were decided.  Every stage is a
pure per-clip function, so cascade scores are independent of batching —
the property the dedup cache and the worker pool both rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..contracts import shaped
from ..core.detector import Detector, FitReport
from ..data.dataset import ClipDataset
from ..durable import dump_json, load_json
from ..geometry.layout import Clip
from .trace import NULL_TRACER

PathLike = Union[str, Path]

#: bump when the persisted tuning layout changes incompatibly (2: the
#: repro.durable checksum; schema-1 files still load, unverified)
TUNING_SCHEMA = 2


@dataclass
class CascadeStats:
    """Where windows got resolved, accumulated across predict calls."""

    windows: int = 0
    matched_hot: int = 0
    filtered_cold: int = 0
    primary_scored: int = 0
    verified: int = 0
    verified_hot: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "windows": self.windows,
            "matched_hot": self.matched_hot,
            "filtered_cold": self.filtered_cold,
            "primary_scored": self.primary_scored,
            "verified": self.verified,
            "verified_hot": self.verified_hot,
        }

    def merge(self, other: "CascadeStats") -> None:
        self.windows += other.windows
        self.matched_hot += other.matched_hot
        self.filtered_cold += other.filtered_cold
        self.primary_scored += other.primary_scored
        self.verified += other.verified
        self.verified_hot += other.verified_hot

    def summary(self) -> str:
        return (
            f"cascade: {self.windows} windows -> "
            f"{self.matched_hot} matched hot, "
            f"{self.filtered_cold} filtered cold, "
            f"{self.primary_scored} primary-scored"
            + (
                f", {self.verified_hot}/{self.verified} verified hot"
                if self.verified
                else ""
            )
        )


class CascadeDetector(Detector):  # lint: disable=raster-parity  (stages are heterogeneous; engine picks the path per stage)
    """matcher -> prefilter -> primary staged flow behind the Detector API.

    Resolution semantics (per clip, order matters):

    * matcher score ``>= matcher.threshold`` resolves **hot** with final
      score ``max(match_score, self.threshold)`` (always flagged),
    * prefilter score ``< filter_cutoff`` resolves **cold** with the
      prefilter's own score (the cutoff is clamped below the cascade
      threshold, so resolved-cold windows are never flagged),
    * everything else gets the primary detector's score verbatim.

    ``filter_cutoff`` is the recall knob: it must stay small (high recall
    on the prefilter) or the cascade trades hotspots for speed.
    """

    #: per-scan span tracer, swapped in by the engine around a scan;
    #: never pickled (see __getstate__) so spawn workers ship clean
    _tracer = NULL_TRACER

    def __init__(
        self,
        primary: Detector,
        matcher=None,
        prefilter=None,
        filter_cutoff: float = 0.05,
        verifier=None,
        name: str = "cascade",
        fit_primary: bool = True,
    ) -> None:
        if not 0.0 <= filter_cutoff < 1.0:
            raise ValueError("filter_cutoff must be in [0, 1)")
        self.name = name
        self.primary = primary
        self.matcher = matcher
        self.prefilter = prefilter
        self.filter_cutoff = filter_cutoff
        self.verifier = verifier
        self.fit_primary = fit_primary
        self.threshold = float(primary.threshold)
        self.stats = CascadeStats()

    # ------------------------------------------------------------------
    # Detector API
    # ------------------------------------------------------------------
    def fit(
        self, train: ClipDataset, rng: Optional[np.random.Generator] = None
    ) -> FitReport:
        """Fit every stage on the same data (primary unless pre-fitted)."""
        notes = []
        seconds = 0.0
        stages = [("matcher", self.matcher), ("prefilter", self.prefilter)]
        if self.fit_primary:
            stages.append(("primary", self.primary))
        for label, stage in stages:
            if stage is None:
                continue
            report = stage.fit(train, rng=rng)
            seconds += report.train_seconds
            notes.append(f"{label}={type(stage).__name__}")
        self.threshold = float(self.primary.threshold)
        return FitReport(
            train_seconds=seconds, n_train=len(train), notes=" ".join(notes)
        )

    @shaped("[n]->(n,):float64")
    def predict_proba(self, clips: Sequence[Clip]) -> np.ndarray:
        n = len(clips)
        scores = np.zeros(n, dtype=np.float64)
        unresolved = np.ones(n, dtype=bool)
        self.stats.windows += n
        if n == 0:
            return scores

        n_matched = n_filtered = n_primary = 0
        if self.matcher is not None:
            match_scores = np.asarray(self.matcher.predict_proba(clips))
            hot = match_scores >= self.matcher.threshold
            scores[hot] = np.maximum(match_scores[hot], self.threshold)
            unresolved &= ~hot
            n_matched = int(hot.sum())
            self.stats.matched_hot += n_matched

        if self.prefilter is not None and unresolved.any():
            idx = np.flatnonzero(unresolved)
            sub = [clips[i] for i in idx]
            filter_scores = np.asarray(self.prefilter.predict_proba(sub))
            # clamp so a resolved-cold window can never cross the flag line
            cutoff = min(self.filter_cutoff, 0.5 * self.threshold)
            cold = filter_scores < cutoff
            scores[idx[cold]] = filter_scores[cold]
            unresolved[idx[cold]] = False
            n_filtered = int(cold.sum())
            self.stats.filtered_cold += n_filtered

        if unresolved.any():
            idx = np.flatnonzero(unresolved)
            sub = [clips[i] for i in idx]
            scores[idx] = np.asarray(self.primary.predict_proba(sub))
            n_primary = len(idx)
            self.stats.primary_scored += n_primary
        self._tracer.event(
            "cascade_batch",
            windows=n,
            matched_hot=n_matched,
            filtered_cold=n_filtered,
            primary_scored=n_primary,
        )
        return scores

    # ------------------------------------------------------------------
    # verification stage
    # ------------------------------------------------------------------
    @shaped("[n]->(n,):bool")
    def verify_flagged(self, clips: Sequence[Clip]) -> np.ndarray:
        """Oracle-check flagged clips; bool array aligned with ``clips``."""
        if self.verifier is None:
            raise RuntimeError("cascade has no verifier stage")
        confirmed = np.array(
            [bool(self.verifier.label(clip)) for clip in clips], dtype=bool
        )
        self.stats.verified += len(clips)
        self.stats.verified_hot += int(confirmed.sum())
        return confirmed

    def reset_stats(self) -> None:
        self.stats = CascadeStats()

    def apply_tuning(self, tuning: "CascadeTuning") -> None:
        """Adopt a :func:`tune_cascade` result as the live filter cutoff.

        Refuses a tuning computed against a different flag threshold:
        the zero-missed guarantee only holds for the threshold the
        calibration sweep was run with.
        """
        if abs(tuning.threshold - self.threshold) > 1e-12:
            raise ValueError(
                f"tuning was computed for threshold={tuning.threshold}, "
                f"cascade has threshold={self.threshold}"
            )
        if not 0.0 <= tuning.filter_cutoff < 1.0:
            raise ValueError("tuned filter_cutoff must be in [0, 1)")
        self.filter_cutoff = float(tuning.filter_cutoff)

    def __getstate__(self):
        """Pickle without the tracer.

        ``detector_to_state`` pickles the whole detector graph to ship
        it to spawn workers; a live tracer holds an open file handle and
        must stay in the parent (workers score against the null tracer).
        """
        state = self.__dict__.copy()
        state.pop("_tracer", None)
        return state


# --------------------------------------------------------------------------
# EPIC-style cascade threshold auto-tuning
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class CascadeTuning:
    """Result of a :func:`tune_cascade` sweep, JSON-persistable.

    ``filter_cutoff`` is the largest prefilter cutoff that resolves the
    most calibration windows cold while missing **zero** true hotspots;
    ``sweep`` keeps the full candidate table (cutoff, skip_rate, missed)
    so reports can show the whole trade-off curve, not just the pick.
    """

    filter_cutoff: float
    skip_rate: float
    threshold: float
    n_calibration: int
    n_hot: int
    #: smallest prefilter score over true-hot calibration windows — the
    #: binding constraint; infinity when calibration has no hot windows
    min_hot_score: float
    #: True when the 0.5*threshold runtime clamp, not ``min_hot_score``,
    #: limited the chosen cutoff
    clamped: bool
    sweep: Tuple[Tuple[float, float, int], ...]

    def summary(self) -> str:
        limit = "threshold clamp" if self.clamped else "min hot score"
        return (
            f"tuned filter_cutoff={self.filter_cutoff:.6g} "
            f"(skip {self.skip_rate:.1%} of {self.n_calibration} windows, "
            f"0 of {self.n_hot} hotspots missed; bound by {limit})"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": TUNING_SCHEMA,
            "filter_cutoff": self.filter_cutoff,
            "skip_rate": self.skip_rate,
            "threshold": self.threshold,
            "n_calibration": self.n_calibration,
            "n_hot": self.n_hot,
            # null, not Infinity: the bare IEEE value is a JSON extension
            # that strict parsers (jq, browsers) reject
            "min_hot_score": (
                None if math.isinf(self.min_hot_score) else self.min_hot_score
            ),
            "clamped": self.clamped,
            "sweep": [list(row) for row in self.sweep],
        }

    def save(self, path: PathLike) -> Path:
        return dump_json(path, self.as_dict())

    @classmethod
    def load(cls, path: PathLike) -> "CascadeTuning":
        """Read a :meth:`save` file; schema 1 (pre-checksum) unverified."""
        payload = load_json(path, (TUNING_SCHEMA,), unverified=(1,))
        del payload["schema"]
        payload["sweep"] = tuple(
            (float(c), float(s), int(m)) for c, s, m in payload["sweep"]
        )
        if payload.get("min_hot_score") is None:
            payload["min_hot_score"] = float("inf")
        return cls(**payload)


def tune_cascade(
    cascade: CascadeDetector,
    calibration: ClipDataset,
    max_sweep_points: int = 33,
) -> CascadeTuning:
    """Sweep prefilter cutoffs on labelled calibration windows.

    EPIC tunes its meta-classifier so the cheap stages absorb as much of
    the workload as possible without giving up a single hotspot.  This
    is that sweep for :class:`CascadeDetector`: score ``calibration``
    with the prefilter, find the largest cutoff that filters zero
    true-hot windows, and report the cold-skip rate achieved there.

    The chosen cutoff is additionally capped at ``0.5 * threshold``
    because :meth:`CascadeDetector.predict_proba` clamps there at
    runtime (a resolved-cold window must never be flaggable); a tuning
    that ignored the clamp would report skip rates the live cascade
    cannot deliver.

    Raises ``ValueError`` when the cascade has no prefilter stage or the
    calibration set is empty.
    """
    if cascade.prefilter is None:
        raise ValueError("cascade has no prefilter stage to tune")
    if len(calibration) == 0:
        raise ValueError("calibration set is empty")

    scores = np.asarray(
        cascade.prefilter.predict_proba(calibration.clips), dtype=np.float64
    )
    labels = np.asarray(calibration.labels, dtype=np.int64)
    hot = labels == 1
    n = len(scores)
    n_hot = int(hot.sum())

    # a window is resolved cold when score < cutoff (strict), so the
    # largest zero-missed cutoff is exactly the smallest hot score
    min_hot_score = float(scores[hot].min()) if n_hot else float("inf")
    clamp = 0.5 * cascade.threshold
    chosen = min(min_hot_score, clamp)
    clamped = clamp < min_hot_score
    # stay inside the CascadeDetector filter_cutoff domain [0, 1)
    chosen = float(min(max(chosen, 0.0), np.nextafter(1.0, 0.0)))

    candidates = np.unique(np.concatenate([scores, [chosen]]))
    if len(candidates) > max_sweep_points:
        idx = np.linspace(0, len(candidates) - 1, max_sweep_points)
        candidates = np.unique(
            np.concatenate(
                [candidates[idx.round().astype(int)], [chosen]]
            )
        )
    sweep = tuple(
        (
            float(c),
            float((scores < c).mean()),
            int((hot & (scores < c)).sum()),
        )
        for c in candidates
    )

    return CascadeTuning(
        filter_cutoff=chosen,
        skip_rate=float((scores < chosen).mean()) if n else 0.0,
        threshold=float(cascade.threshold),
        n_calibration=n,
        n_hot=n_hot,
        min_hot_score=min_hot_score,
        clamped=clamped,
        sweep=sweep,
    )
