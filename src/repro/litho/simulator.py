"""High-level lithography simulation facade.

``LithoSimulator`` bundles the optics, resist and pixel pitch into one
object that can image clips and report printed rasters / contours — the
convenience layer the examples and the process-window sweeps use.  The
hotspot verdict itself lives in :class:`repro.litho.hotspot.HotspotOracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.layout import Clip
from ..geometry.rasterize import rasterize_clip
from .hotspot import calibrate_threshold
from .kernels import OpticalSystem
from .optics import ImagingSettings, aerial_image
from .resist import ResistModel, printed_components


@dataclass
class LithoSimulator:
    """End-to-end clip imaging: design raster -> aerial image -> print."""

    optics: OpticalSystem = field(default_factory=OpticalSystem)
    pixel_nm: int = 8
    resist: Optional[ResistModel] = None
    reference_width_nm: int = 64
    reference_pitch_nm: int = 192  # matches HotspotOracle's calibration

    def __post_init__(self) -> None:
        if self.resist is None:
            self.resist = ResistModel(
                threshold=calibrate_threshold(
                    self.optics,
                    self.pixel_nm,
                    self.reference_width_nm,
                    self.reference_pitch_nm,
                )
            )

    def image(
        self, clip: Clip, dose: float = 1.0, defocus_nm: float = 0.0
    ) -> np.ndarray:
        """Aerial intensity image of a clip at the given condition."""
        design = rasterize_clip(clip, self.pixel_nm, antialias=True)
        settings = ImagingSettings(
            pixel_nm=self.pixel_nm, dose=dose, defocus_nm=defocus_nm
        )
        return aerial_image(design, self.optics, settings)

    def print_clip(
        self, clip: Clip, dose: float = 1.0, defocus_nm: float = 0.0
    ) -> np.ndarray:
        """Boolean printed raster of a clip."""
        return self.resist.develop(self.image(clip, dose, defocus_nm))  # type: ignore[union-attr]

    def printed_component_count(
        self, clip: Clip, dose: float = 1.0, defocus_nm: float = 0.0
    ) -> int:
        """Number of printed connected components (topology probe)."""
        _, count = printed_components(self.print_clip(clip, dose, defocus_nm))
        return count

    def process_window(
        self,
        clip: Clip,
        doses: Tuple[float, ...] = (0.9, 0.95, 1.0, 1.05, 1.1),
        defocus_values_nm: Tuple[float, ...] = (0.0, 20.0, 40.0),
    ) -> List[Tuple[float, float, np.ndarray]]:
        """Printed rasters over a dose x defocus grid.

        Returns ``[(dose, defocus_nm, printed), ...]`` in sweep order; the
        process-variation band is the pixelwise disagreement across entries.
        The clip is rasterized once and each defocus imaged once at unit
        dose; a corner scales that image by its dose, the same final
        product ``aerial_image`` forms, so every entry equals
        :meth:`print_clip` at its corner bit for bit.
        """
        design = rasterize_clip(clip, self.pixel_nm, antialias=True)
        out: List[Tuple[float, float, np.ndarray]] = []
        for defocus in defocus_values_nm:
            unit_dose = aerial_image(
                design,
                self.optics,
                ImagingSettings(pixel_nm=self.pixel_nm, defocus_nm=defocus),
            )
            for dose in doses:
                settings = ImagingSettings(
                    pixel_nm=self.pixel_nm, dose=dose, defocus_nm=defocus
                )
                printed = self.resist.develop(settings.dose * unit_dose)  # type: ignore[union-attr]
                out.append((dose, defocus, printed))
        return out

    def pv_band(
        self,
        clip: Clip,
        doses: Tuple[float, ...] = (0.9, 0.95, 1.0, 1.05, 1.1),
        defocus_values_nm: Tuple[float, ...] = (0.0, 20.0, 40.0),
    ) -> np.ndarray:
        """Process-variation band: pixels printed at some corners, not all."""
        prints = [
            printed
            for _, _, printed in self.process_window(clip, doses, defocus_values_nm)
        ]
        stack = np.stack(prints)
        return stack.any(axis=0) & ~stack.all(axis=0)
