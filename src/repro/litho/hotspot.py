"""The golden hotspot oracle: full lithography analysis of a clip.

``HotspotOracle`` is generation 0 of the survey's detector lineup — the
slow, accurate reference that every learned detector is compared against,
and the engine that labels the synthetic benchmarks.

A clip is a **hotspot** iff at any process corner (nominal plus dose and
defocus excursions) the printed pattern exhibits a bridge, open, neck, or
out-of-limit EPE whose defect marker falls inside the clip's *core* region.
Defects outside the core belong to neighboring clips (the contest's
attribution rule) and do not make this clip a hotspot.

Line ends need special treatment: diffraction pulls every wire tip back
(line-end shortening), so tips are judged by a looser *pullback* budget at
their cap edge, side-edge EPE sites inside the tip zone are skipped (the
contour there is the rounded tip, not a displaced side wall), and the neck
detector ignores tip zones (tip rounding is not a neck).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from ..geometry.layout import Clip
from ..geometry.rasterize import core_slice, rasterize_clip
from ..geometry.rect import Rect
from .analysis import (
    Defect,
    DesignState,
    EdgeProbes,
    EdgeSite,
    design_components,
    find_bridges,
    find_epe_defects,
    find_necks,
    find_opens,
    find_spots,
)
from .kernels import OpticalSystem, gaussian_1d, kernel_radius_px
from .optics import ImagingSettings, aerial_image
from .resist import ResistModel


def calibrate_threshold(
    optics: OpticalSystem,
    pixel_nm: int,
    line_width_nm: int,
    pitch_nm: int,
    defocus_nm: float = 0.0,
) -> float:
    """Resist threshold that prints a reference dense grating at size.

    Images an infinite 1-D line/space grating (``line_width_nm`` lines at
    ``pitch_nm`` pitch) and returns the aerial intensity exactly at the
    designed line edge.  With this threshold the reference grating prints
    with zero EPE, anchoring the process so that deviations measured on
    arbitrary patterns are meaningful.
    """
    if pitch_nm % pixel_nm or line_width_nm % pixel_nm:
        raise ValueError("grating dims must be multiples of the pixel pitch")
    period_px = pitch_nm // pixel_nm
    width_px = line_width_nm // pixel_nm
    n_periods = 32
    mask = np.zeros(period_px * n_periods, dtype=np.float64)
    for k in range(n_periods):
        start = k * period_px
        mask[start : start + width_px] = 1.0
    intensity = np.zeros_like(mask)
    for weight, sigma_nm in optics.kernel_stack(defocus_nm):
        sigma_px = sigma_nm / pixel_nm
        taps = gaussian_1d(sigma_px, kernel_radius_px(sigma_px))
        amplitude = ndimage.correlate1d(mask, taps, mode="wrap")
        intensity += weight * amplitude**2
    # intensity at the line edge of a mid-array line, interpolated between
    # the last inside pixel and first outside pixel
    line_start = (n_periods // 2) * period_px
    edge = line_start + width_px  # design edge in px (pixel boundary)
    return float(0.5 * (intensity[edge - 1] + intensity[edge]))


# ----------------------------------------------------------------------
# tip zones and edge sites
# ----------------------------------------------------------------------
_EDGE_SPECS = (
    # (orientation, which coordinate is fixed, outward normal (drow, dcol))
    ("bottom", "h", (-1.0, 0.0)),
    ("top", "h", (1.0, 0.0)),
    ("left", "v", (0.0, -1.0)),
    ("right", "v", (0.0, 1.0)),
)


def _rect_edges(rect: Rect):
    """Yield (name, fixed_nm, lo_nm, hi_nm, normal) for a rect's 4 edges."""
    yield ("bottom", rect.y1, rect.x1, rect.x2, (-1.0, 0.0))
    yield ("top", rect.y2, rect.x1, rect.x2, (1.0, 0.0))
    yield ("left", rect.x1, rect.y1, rect.y2, (0.0, -1.0))
    yield ("right", rect.x2, rect.y1, rect.y2, (0.0, 1.0))


def _outside_pixel(
    fixed_nm: float, t_nm: float, orientation: str, sign: float, pixel_nm: int
) -> Tuple[int, int]:
    """Pixel index of the first *fully outside* pixel next to an edge point.

    ``orientation`` is "h" for horizontal edges (fixed y) and "v" for
    vertical (fixed x); ``sign`` is the outward normal direction along the
    fixed axis (+1 or -1).  Integer math keeps this exact even when the
    edge lies mid-pixel.
    """
    e = int(fixed_nm)
    p = pixel_nm
    along = int(t_nm) // p
    probe = -((-e) // p) if sign > 0 else e // p - 1
    if orientation == "h":
        return probe, along
    return along, probe


def _is_exterior(
    design: np.ndarray,
    fixed_nm: float,
    t_nm: float,
    orientation: str,
    normal: Tuple[float, float],
    pixel_nm: int,
) -> bool:
    """True when the first pixel fully outside the edge point is empty."""
    h, w = design.shape
    sign = normal[0] if orientation == "h" else normal[1]
    pr, pc = _outside_pixel(fixed_nm, t_nm, orientation, sign, pixel_nm)
    if not (0 <= pr < h and 0 <= pc < w):
        return False
    return design[pr, pc] < 0.5


def _edge_index_coords(
    kind_fixed: str, fixed_idx: float, t_idx: float
) -> Tuple[float, float]:
    """(row, col) of a point on an edge given its orientation."""
    if kind_fixed == "h":
        return fixed_idx, t_idx
    return t_idx, fixed_idx


def tip_zones_for_clip(
    clip: Clip, design: np.ndarray, pixel_nm: int, tip_margin_nm: int = 80
) -> List[Rect]:
    """Line-end zones in clip-local nm coordinates.

    A rect edge is a *cap* when its length is at most ~the rect's thin
    dimension (the short end of an elongated wire segment) and it lies on
    the shape-union boundary.  The zone extends ``tip_margin_nm`` inward.
    """
    zones: List[Rect] = []
    for rect in clip.local_rects():
        thin = min(rect.width, rect.height)
        for name, fixed, lo, hi, normal in _rect_edges(rect):
            length = hi - lo
            if length > 1.25 * thin:
                continue
            orientation = "h" if name in ("bottom", "top") else "v"
            mid_nm = (lo + hi) / 2.0
            if not _is_exterior(design, fixed, mid_nm, orientation, normal, pixel_nm):
                continue
            margin = min(tip_margin_nm, rect.width if name in ("left", "right") else rect.height)
            if name == "bottom":
                zones.append(Rect(rect.x1, rect.y1, rect.x2, rect.y1 + margin))
            elif name == "top":
                zones.append(Rect(rect.x1, rect.y2 - margin, rect.x2, rect.y2))
            elif name == "left":
                zones.append(Rect(rect.x1, rect.y1, rect.x1 + margin, rect.y2))
            else:  # right
                zones.append(Rect(rect.x2 - margin, rect.y1, rect.x2, rect.y2))
    return zones


def tip_mask(
    zones: Sequence[Rect], shape: Tuple[int, int], pixel_nm: int
) -> np.ndarray:
    """Boolean pixel mask of the tip zones (clip-local)."""
    mask = np.zeros(shape, dtype=bool)
    h, w = shape
    for z in zones:
        r1 = max(0, z.y1 // pixel_nm)
        r2 = min(h, -(-z.y2 // pixel_nm))
        c1 = max(0, z.x1 // pixel_nm)
        c2 = min(w, -(-z.x2 // pixel_nm))
        mask[r1:r2, c1:c2] = True
    return mask


def _edge_is_straight(
    design: np.ndarray,
    fixed_nm: float,
    t_nm: float,
    orientation: str,
    normal: Tuple[float, float],
    pixel_nm: int,
    margin_px: int,
) -> bool:
    """True when the design boundary runs straight for +/- margin here.

    Checks that along the edge direction the pixel row just inside stays
    filled and the row just outside stays empty for ``margin_px`` pixels
    both ways.  Corner rounding and notch fill-in are *expected* printing
    behaviour, so EPE should only be measured on locally straight walls.
    Probes clipped by the array edge count as straight (the pattern
    conceptually continues).
    """
    h, w = design.shape
    sign = normal[0] if orientation == "h" else normal[1]
    pr_out, pc_out = _outside_pixel(fixed_nm, t_nm, orientation, sign, pixel_nm)
    pr_in, pc_in = _outside_pixel(fixed_nm, t_nm, orientation, -sign, pixel_nm)
    if orientation == "h":
        j = pc_out
        j_lo, j_hi = max(0, j - margin_px), min(w, j + margin_px + 1)
        if not (0 <= pr_out < h and 0 <= pr_in < h):
            return False
        outside = design[pr_out, j_lo:j_hi]
        inside = design[pr_in, j_lo:j_hi]
    else:
        i = pr_out
        i_lo, i_hi = max(0, i - margin_px), min(h, i + margin_px + 1)
        if not (0 <= pc_out < w and 0 <= pc_in < w):
            return False
        outside = design[i_lo:i_hi, pc_out]
        inside = design[i_lo:i_hi, pc_in]
    return bool((outside < 0.5).all() and (inside >= 0.5).all())


def edge_sites_for_clip(
    clip: Clip,
    design: np.ndarray,
    pixel_nm: int,
    spacing_px: int = 4,
    tip_zones: Sequence[Rect] = (),
    straight_margin_px: int = 5,
) -> List[EdgeSite]:
    """Sample EPE measurement sites on design edges inside the clip core.

    Cap edges (line ends) yield ``kind="cap"`` sites with a looser budget.
    Side sites are kept only where the boundary is locally straight
    (``straight_margin_px`` pixels each way) and outside tip zones: corner
    rounding, notch fill-in and tip retreat are expected contour behaviour,
    not wall displacement.

    Index coordinates: pixel ``[i, j]`` is centered at ``(i, j)``, so an nm
    coordinate ``v`` maps to index ``v / pixel_nm - 0.5``.
    """
    rs, cs = core_slice(clip, pixel_nm)
    r_lo, r_hi = rs.start - 0.5, rs.stop - 0.5
    c_lo, c_hi = cs.start - 0.5, cs.stop - 0.5
    sites: List[EdgeSite] = []
    for rect in clip.local_rects():
        thin = min(rect.width, rect.height)
        for name, fixed, lo, hi, normal in _rect_edges(rect):
            length = hi - lo
            if length < 1:
                continue
            is_cap = length <= 1.25 * thin
            orientation = "h" if name in ("bottom", "top") else "v"
            fixed_idx = fixed / pixel_nm - 0.5
            n_samples = max(1, int(length // (spacing_px * pixel_nm)))
            for k in range(n_samples):
                t_nm = lo + (k + 0.5) * length / n_samples
                t_idx = t_nm / pixel_nm - 0.5
                row, col = _edge_index_coords(orientation, fixed_idx, t_idx)
                if not (r_lo <= row <= r_hi and c_lo <= col <= c_hi):
                    continue
                if not _is_exterior(design, fixed, t_nm, orientation, normal, pixel_nm):
                    continue  # interior edge (another rect on the far side)
                if not is_cap:
                    if _point_in_zones(t_nm, fixed, orientation, tip_zones):
                        continue  # side site inside a tip zone: skip
                    if not _edge_is_straight(
                        design,
                        fixed,
                        t_nm,
                        orientation,
                        normal,
                        pixel_nm,
                        straight_margin_px,
                    ):
                        continue  # near a corner/notch: contour curves here
                sites.append(
                    EdgeSite(
                        row=row,
                        col=col,
                        normal=normal,
                        kind="cap" if is_cap else "side",
                    )
                )
    return sites


def _point_in_zones(
    t_nm: float, fixed_nm: float, orientation: str, zones: Sequence[Rect]
) -> bool:
    """Is the edge point (in clip-local nm) inside any tip zone?"""
    if orientation == "h":
        x, y = t_nm, fixed_nm
    else:
        x, y = fixed_nm, t_nm
    return any(z.contains_point(x, y) for z in zones)


@dataclass(frozen=True)
class ClipAnalysis:
    """Full oracle verdict for one clip."""

    is_hotspot: bool
    defects: Tuple[Defect, ...]  # core-attributed defects across all corners
    corner_defects: Tuple[Tuple[Defect, ...], ...]  # per corner, all defects

    @property
    def defect_kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({d.kind for d in self.defects}))


@dataclass
class HotspotOracle:
    """Lithography-simulation-based hotspot reference detector.

    Parameters
    ----------
    optics, resist:
        The process model.  If ``resist`` is None, the threshold is
        calibrated against a dense reference grating of
        ``reference_width_nm`` lines at ``reference_pitch_nm`` pitch.
    corners:
        Process corners to simulate; defaults to nominal, dose +/-
        ``dose_delta`` and defocus ``defocus_delta_nm`` (5 corners).
    neck_ratio:
        Printed/designed local-width ratio below which a neck is a defect.
    epe_limit_nm:
        |EPE| above this on side walls is a defect.
    cap_pullback_nm:
        |EPE| above this at line-end caps is a defect (looser: line ends
        always pull back somewhat).
    tip_margin_nm:
        Depth of the tip zone treated under cap rules.
    """

    optics: OpticalSystem = field(default_factory=OpticalSystem)
    pixel_nm: int = 8
    resist: Optional[ResistModel] = None
    corners: Optional[Tuple[ImagingSettings, ...]] = None
    dose_delta: float = 0.04
    defocus_delta_nm: float = 32.0
    neck_ratio: float = 0.5
    epe_limit_nm: float = 30.0
    cap_pullback_nm: float = 42.0
    tip_margin_nm: int = 80
    spot_margin_px: int = 2
    spot_min_area_px: int = 4
    reference_width_nm: int = 64
    reference_pitch_nm: int = 192
    epe_sites: bool = True

    def __post_init__(self) -> None:
        if self.resist is None:
            threshold = calibrate_threshold(
                self.optics,
                self.pixel_nm,
                self.reference_width_nm,
                self.reference_pitch_nm,
            )
            self.resist = ResistModel(threshold=threshold)
        if self.corners is None:
            p = self.pixel_nm
            self.corners = (
                ImagingSettings(pixel_nm=p),
                ImagingSettings(pixel_nm=p, dose=1.0 + self.dose_delta),
                ImagingSettings(pixel_nm=p, dose=1.0 - self.dose_delta),
                ImagingSettings(pixel_nm=p, defocus_nm=self.defocus_delta_nm),
                ImagingSettings(
                    pixel_nm=p,
                    dose=1.0 - self.dose_delta,
                    defocus_nm=self.defocus_delta_nm,
                ),
            )

    # ------------------------------------------------------------------
    def analyze(self, clip: Clip) -> ClipAnalysis:
        """Simulate all corners and collect core-attributed defects.

        Everything that depends only on the design is computed once per
        clip: the component labels and the maps derived from them
        (:class:`DesignState`), the tip zones, and the EPE probes.  Each
        distinct ``(pixel_nm, defocus_nm)`` is imaged once at unit dose
        and every corner scales that image by its dose, which is the same
        product ``aerial_image`` forms.  A corner then only develops its
        print and checks it.
        """
        design = rasterize_clip(clip, self.pixel_nm, antialias=True)
        state = DesignState(*design_components(design))
        rs, cs = core_slice(clip, self.pixel_nm)
        box = (rs.start, cs.start, rs.stop, cs.stop)
        zones = tip_zones_for_clip(
            clip, design, self.pixel_nm, self.tip_margin_nm
        )
        exclude = tip_mask(zones, design.shape, self.pixel_nm)
        sites = (
            edge_sites_for_clip(clip, design, self.pixel_nm, tip_zones=zones)
            if self.epe_sites
            else []
        )
        probes = EdgeProbes(sites, design.shape) if sites else None
        epe_limit_px = self.epe_limit_nm / self.pixel_nm
        cap_limit_px = self.cap_pullback_nm / self.pixel_nm

        unit_dose: Dict[Tuple[int, float], np.ndarray] = {}
        core_defects: List[Defect] = []
        per_corner: List[Tuple[Defect, ...]] = []
        for settings in self.corners:  # type: ignore[union-attr]
            key = (settings.pixel_nm, settings.defocus_nm)
            if key not in unit_dose:
                unit_dose[key] = aerial_image(
                    design, self.optics, replace(settings, dose=1.0)
                )
            intensity = settings.dose * unit_dose[key]
            printed = self.resist.develop(intensity)  # type: ignore[union-attr]
            defects: List[Defect] = []
            defects.extend(find_bridges(state, printed))
            defects.extend(find_opens(state, printed))
            defects.extend(
                find_spots(
                    state,
                    printed,
                    margin_px=self.spot_margin_px,
                    min_area_px=self.spot_min_area_px,
                )
            )
            defects.extend(
                find_necks(
                    state,
                    printed,
                    min_width_ratio=self.neck_ratio,
                    exclude=exclude,
                )
            )
            if probes is not None:
                defects.extend(
                    find_epe_defects(
                        intensity,
                        probes,
                        self.resist.threshold,
                        epe_limit_px,
                        cap_limit_px=cap_limit_px,
                    )
                )
            per_corner.append(tuple(defects))
            r1, c1, r2, c2 = box
            core_defects.extend(d for d in defects if d.in_box(r1, c1, r2, c2))
        return ClipAnalysis(
            is_hotspot=bool(core_defects),
            defects=tuple(core_defects),
            corner_defects=tuple(per_corner),
        )

    def label(self, clip: Clip) -> int:
        """1 if the clip is a hotspot else 0."""
        return int(self.analyze(clip).is_hotspot)

    def label_many(self, clips: Sequence[Clip]) -> np.ndarray:
        """Vector of 0/1 labels for a batch of clips."""
        return np.array([self.label(c) for c in clips], dtype=np.int64)
