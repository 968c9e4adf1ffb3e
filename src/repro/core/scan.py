"""Full-chip scanning: sweep a detector over a tiled layout.

The deployment mode every hotspot paper motivates: a detector trained on
clips is swept over all windows of a large layout; flagged windows go to
lithography verification.  ``scan_layer`` formalizes the flow and reports
the hotspot map plus the simulation-savings ratio.

The actual sweep now lives in :mod:`repro.runtime` (streaming tiles,
dedup cache, worker pool, cascade, telemetry); ``scan_layer`` remains the
stable, single-process, score-everything entry point layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..geometry.layout import Clip, Layer, extract_clip
from ..geometry.rect import Rect
from .detector import Detector


@dataclass
class ScanResult:
    """Outcome of sweeping one layer.

    A result holds window centers and geometry, not clips: ``clips`` and
    :meth:`flagged_clips` cut windows out of ``layer`` when called, and
    :meth:`hotspot_regions` needs only ``core_nm``.  ``layer`` is the
    scanned layer of a live scan; it is left out of repr and equality.
    """

    centers: List[Tuple[int, int]]
    scores: np.ndarray
    flagged: np.ndarray  # bool per window
    confirmed: Optional[np.ndarray] = None  # bool per flagged window (if verified)
    window_nm: Optional[int] = None
    core_nm: Optional[int] = None
    layer: Optional[Layer] = field(default=None, repr=False, compare=False)

    @property
    def n_flagged(self) -> int:
        return int(self.flagged.sum())

    @property
    def flag_ratio(self) -> float:
        """Fraction of windows sent to verification (simulation cost)."""
        return self.n_flagged / len(self.centers) if self.centers else 0.0

    @property
    def clips(self) -> List[Clip]:
        """Every window's clip, cut from ``layer`` on each access."""
        return self._cut(range(len(self.centers)))

    def flagged_clips(self) -> List[Clip]:
        return self._cut(np.flatnonzero(self.flagged))

    def _cut(self, indices: Iterable[int]) -> List[Clip]:
        if self.layer is None:
            raise ValueError(
                "this result has no layer to cut clips from "
                "(a report rebuilt from JSON carries centers only)"
            )
        return [
            extract_clip(
                self.layer, self.centers[i], self.window_nm, self.core_nm
            )
            for i in indices
        ]

    def hotspot_regions(self) -> List[Rect]:
        """Core regions of flagged windows (confirmed ones if verified)."""
        if self.core_nm is None:
            raise ValueError(
                "this result has no core_nm to build core regions from "
                "(a report rebuilt from JSON carries centers only)"
            )
        idx = np.flatnonzero(self.flagged)
        if self.confirmed is not None:
            idx = idx[np.asarray(self.confirmed, dtype=bool)]
        size = self.core_nm
        return [Rect.from_center(*self.centers[i], size, size) for i in idx]

    def heat_map(self) -> np.ndarray:
        """Scores as a (rows, cols) grid, row 0 at the bottom of the region."""
        xs = sorted({c[0] for c in self.centers})
        ys = sorted({c[1] for c in self.centers})
        grid = np.full((len(ys), len(xs)), np.nan)
        x_index = {x: j for j, x in enumerate(xs)}
        y_index = {y: i for i, y in enumerate(ys)}
        for (cx, cy), score in zip(self.centers, self.scores):
            grid[y_index[cy], x_index[cx]] = score
        return grid


def scan_layer(
    detector: Detector,
    layer: Layer,
    region: Rect,
    window_nm: int = 768,
    core_nm: int = 256,
    step_nm: Optional[int] = None,
    oracle=None,
) -> ScanResult:
    """Sweep a fitted detector over all clip windows of a region.

    ``step_nm`` defaults to the core size so cores tile the region without
    gaps.  Passing a :class:`~repro.litho.HotspotOracle` as ``oracle``
    verifies the flagged windows (the detect-then-simulate flow).

    This is the compatibility entry point: it delegates to
    :class:`repro.runtime.ScanEngine` configured to match the historical
    contract exactly — in-process, every window scored (no dedup cache),
    scoring on the per-clip reference path (no raster-plane fast path).
    The result keeps ``layer``, so ``clips`` and ``flagged_clips()`` cut
    windows when asked.  Production scans should construct
    a :class:`~repro.runtime.ScanEngine` directly to get streaming,
    memoization, worker pools, raster-plane batching, and
    cascade/telemetry reporting.
    """
    from ..runtime import EngineConfig, ScanEngine

    engine = ScanEngine(
        detector,
        config=EngineConfig.from_kwargs(
            workers=1, dedup=False, raster_plane=False
        ),
    )
    return engine.scan(
        layer,
        region,
        window_nm=window_nm,
        core_nm=core_nm,
        step_nm=step_nm,
        oracle=oracle,
    )
