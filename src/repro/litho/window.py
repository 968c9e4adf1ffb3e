"""Process-window metrics.

Beyond the binary hotspot verdict, DFM flows quantify *how much* process
margin a pattern has: across a dose x defocus grid, at how many conditions
does the pattern still print defect-free?  ``process_window_ratio`` is
that fraction; ``dose_latitude`` is the widest dose interval that prints
cleanly at best focus.  Hotspots are precisely the patterns whose window
collapses — these metrics grade the severity the 0/1 label hides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..geometry.layout import Clip
from ..geometry.rasterize import core_slice
from .hotspot import HotspotOracle
from .optics import ImagingSettings


@dataclass(frozen=True)
class ProcessWindow:
    """Per-condition pass/fail over the dose x defocus grid."""

    doses: Tuple[float, ...]
    defocus_values_nm: Tuple[float, ...]
    passes: np.ndarray  # (n_defocus, n_dose) bool

    @property
    def ratio(self) -> float:
        """Fraction of grid conditions that print defect-free."""
        return float(self.passes.mean())

    def dose_latitude(self, defocus_index: int = 0) -> float:
        """Widest contiguous passing dose span at one defocus, as a
        fraction of nominal dose (0 when nothing passes)."""
        row = self.passes[defocus_index]
        best = 0
        run_start = None
        for i, ok in enumerate(row):
            if ok and run_start is None:
                run_start = i
            if (not ok or i == len(row) - 1) and run_start is not None:
                end = i if ok else i - 1
                span = self.doses[end] - self.doses[run_start]
                best = max(best, span)
                run_start = None
        return float(best)


def process_window(
    clip: Clip,
    oracle: Optional[HotspotOracle] = None,
    doses: Tuple[float, ...] = (0.90, 0.94, 0.98, 1.0, 1.02, 1.06, 1.10),
    defocus_values_nm: Tuple[float, ...] = (0.0, 16.0, 32.0, 48.0),
) -> ProcessWindow:
    """Evaluate defect-freedom on every (defocus, dose) grid point.

    One analysis runs the oracle's defect checks with the grid as its
    corners, so ``passes[i, j]`` is True iff the clip's core is clean when
    printed at ``defocus_values_nm[i]``, ``doses[j]``: the verdict of the
    same oracle restricted to that single corner.
    """
    base = oracle or HotspotOracle()
    grid = tuple(
        ImagingSettings(pixel_nm=base.pixel_nm, dose=dose, defocus_nm=defocus)
        for defocus in defocus_values_nm
        for dose in doses
    )
    analysis = replace(base, corners=grid).analyze(clip)
    rs, cs = core_slice(clip, base.pixel_nm)
    passes = np.array(
        [
            not any(d.in_box(rs.start, cs.start, rs.stop, cs.stop) for d in defects)
            for defects in analysis.corner_defects
        ],
        dtype=bool,
    ).reshape(len(defocus_values_nm), len(doses))
    return ProcessWindow(
        doses=tuple(doses),
        defocus_values_nm=tuple(defocus_values_nm),
        passes=passes,
    )


def severity_score(pw: ProcessWindow) -> float:
    """1 - window ratio: 0 for robust patterns, 1 for dead-on-arrival."""
    return 1.0 - pw.ratio
