"""Printability analysis: bridges, necks/opens, and edge placement error.

Given the design raster (what the mask asks for) and the printed raster
(what the resist develops), this module finds the defect classes that define
lithography hotspots:

* **bridge** — one printed component spans two or more distinct design
  components: an electrical short.
* **open** — a design component's print inside its own footprint falls
  apart into more pieces than designed (or vanishes): a broken wire.
* **neck** — the printed wire survives but its local width collapses below
  a fraction of the designed local width: an imminent open / reliability
  failure.  Measured by comparing Euclidean distance transforms of design
  and print along the design's interior.
* **EPE** — at sampled design edge sites, the printed contour's displacement
  along the edge normal exceeds a limit.

All functions operate in pixel units; the caller converts nm -> px.

The design side of every check is the same at each process corner.
:class:`DesignState` (labels and the maps derived from them) and
:class:`EdgeProbes` (every EPE probe's sample coordinates) hold it for one
clip, so checking another print of the clip costs only the print's side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import ndimage

from .resist import printed_components

_STRUCTURE4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class Defect:
    """A single printability defect at a pixel location."""

    kind: str  # "bridge" | "open" | "neck" | "epe" | "spot"
    row: int
    col: int
    severity: float  # kind-specific magnitude (px of bridge, width ratio, |EPE| px)

    def in_box(self, r1: int, c1: int, r2: int, c2: int) -> bool:
        """True if the defect marker lies in the half-open pixel box."""
        return r1 <= self.row < r2 and c1 <= self.col < c2


def design_components(design: np.ndarray) -> Tuple[np.ndarray, int]:
    """Label the design raster's 4-connected components (0 = background)."""
    labels, count = ndimage.label(design >= 0.5, structure=_STRUCTURE4)
    return labels, int(count)


class DesignState:
    """The design side of one clip, shared by every print checked against it.

    Each defect rule compares a printed raster with the design.  The design
    side (component labels, the design distance transform and each
    component's centerline, the spot margin) is the same at every process
    corner, so a clip builds it once and each corner only checks its print.
    Derived maps are computed on first use and kept.

    Every ``find_*`` function takes this state or a bare label grid, which
    it wraps in a fresh state; the result is the same either way.
    """

    def __init__(self, labels: np.ndarray, count: Optional[int] = None) -> None:
        self.labels = np.asarray(labels)
        self.count = int(self.labels.max(initial=0)) if count is None else count
        self.mask = self.labels > 0
        self._beyond: Dict[int, np.ndarray] = {}
        self._centerlines: Dict[float, np.ndarray] = {}

    @classmethod
    def of(cls, design: Union["DesignState", np.ndarray]) -> "DesignState":
        return design if isinstance(design, DesignState) else cls(design)

    @cached_property
    def depth(self) -> np.ndarray:
        """Euclidean distance of each design pixel to the nearest clear one."""
        return ndimage.distance_transform_edt(self.mask)

    @cached_property
    def widths(self) -> np.ndarray:
        """``depth`` floored at 1e-9: the denominator of width ratios."""
        return np.maximum(self.depth, 1e-9)

    def beyond(self, margin_px: int) -> np.ndarray:
        """Pixels farther than ``margin_px`` (4-connected steps) from the design."""
        far = self._beyond.get(margin_px)
        if far is None:
            allowed = self.mask
            if margin_px > 0:
                allowed = ndimage.binary_dilation(
                    self.mask, structure=_STRUCTURE4, iterations=margin_px
                )
            far = self._beyond[margin_px] = ~allowed
        return far

    def centerline(self, frac: float) -> np.ndarray:
        """Pixels whose design depth is at least ``frac`` of their component's
        deepest pixel: each component's medial band."""
        band = self._centerlines.get(frac)
        if band is None:
            peak = np.zeros(self.count + 1)  # deepest pixel per component
            np.maximum.at(peak, self.labels, self.depth)
            at = peak[self.labels]
            band = self._centerlines[frac] = (
                self.mask & (at > 0) & (self.depth >= frac * at)
            )
        return band


def _centroid(mask: np.ndarray) -> Tuple[int, int]:
    rows, cols = np.nonzero(mask)
    return int(round(rows.mean())), int(round(cols.mean()))


def _owner(blobs: np.ndarray, n_blobs: int, labels: np.ndarray) -> np.ndarray:
    """Design component under each blob (blobs lie inside one component)."""
    owner = np.zeros(n_blobs + 1, dtype=np.int64)
    inside = blobs > 0
    owner[blobs[inside]] = labels[inside]
    return owner


# ----------------------------------------------------------------------
# bridges
# ----------------------------------------------------------------------
def find_bridges(
    design_labels: Union[DesignState, np.ndarray], printed: np.ndarray
) -> List[Defect]:
    """Printed components that electrically merge >= 2 design components.

    The defect marker is placed at the centroid of the *bridging material*:
    printed pixels of the offending component that belong to no design shape.
    """
    design = DesignState.of(design_labels)
    printed_labels, n_printed = printed_components(printed)
    if design.count < 2 or n_printed == 0:
        return []
    # distinct (printed, design) label pairs over printed design pixels
    on = printed_labels[design.mask].astype(np.int64)
    hit = on > 0
    stride = design.count + 1
    pairs = np.unique(on[hit] * stride + design.labels[design.mask][hit])
    n_touched = np.bincount(pairs // stride, minlength=n_printed + 1)
    out: List[Defect] = []
    for comp in np.flatnonzero(n_touched >= 2):
        mask = printed_labels == comp
        bridge_px = mask & ~design.mask
        if not bridge_px.any():
            # merged exactly along shape boundaries; mark component centroid
            bridge_px = mask
        row, col = _centroid(bridge_px)
        out.append(
            Defect(
                kind="bridge",
                row=row,
                col=col,
                severity=float(np.count_nonzero(bridge_px)),
            )
        )
    return out


def find_spots(
    design_labels: Union[DesignState, np.ndarray],
    printed: np.ndarray,
    margin_px: int = 1,
    min_area_px: int = 2,
) -> List[Defect]:
    """Spurious printing in clear areas: pre-bridge blobs / resist spots.

    Printed pixels farther than ``margin_px`` from any design shape are
    *extra* printing; connected blobs of at least ``min_area_px`` such
    pixels are defects (as dose rises they merge with the neighboring
    patterns into full bridges).  The margin absorbs the normal dose-driven
    edge bulge so only material genuinely out in the open counts.
    """
    extra = printed & DesignState.of(design_labels).beyond(margin_px)
    if not extra.any():
        return []
    blobs, n_blobs = ndimage.label(extra, structure=_STRUCTURE4)
    areas = np.bincount(blobs.ravel(), minlength=n_blobs + 1)
    out: List[Defect] = []
    for b in np.flatnonzero(areas[1:] >= min_area_px) + 1:
        row, col = _centroid(blobs == b)
        out.append(Defect("spot", row, col, severity=float(areas[b])))
    return out


# ----------------------------------------------------------------------
# opens and necks
# ----------------------------------------------------------------------
def find_opens(
    design_labels: Union[DesignState, np.ndarray], printed: np.ndarray
) -> List[Defect]:
    """Design components whose in-footprint print is missing or fragmented."""
    design = DesignState.of(design_labels)
    if design.count == 0:
        return []
    # pieces of printed & design never span two components (they are not
    # 4-adjacent), so one labelling counts every footprint's pieces
    pieces, n_pieces = printed_components(printed & design.mask)
    owner = _owner(pieces, n_pieces, design.labels)
    n_per_comp = np.bincount(owner[1:], minlength=design.count + 1)
    out: List[Defect] = []
    for comp in np.flatnonzero(n_per_comp[1:] != 1) + 1:
        footprint = design.labels == comp
        n = int(n_per_comp[comp])
        if n == 0:
            row, col = _centroid(footprint)
            severity = float(np.count_nonzero(footprint))
        else:
            # marker at centroid of the unprinted gap inside the footprint
            gap = footprint & ~printed
            row, col = _centroid(gap if gap.any() else footprint)
            severity = float(n)
        out.append(Defect("open", row, col, severity=severity))
    return out


def find_necks(
    design_labels: Union[DesignState, np.ndarray],
    printed: np.ndarray,
    min_width_ratio: float = 0.7,
    centerline_frac: float = 0.8,
    exclude: Optional[np.ndarray] = None,
) -> List[Defect]:
    """Local printed-width collapse along design centerlines.

    At a design pixel ``p``, ``2 * edt_design(p)`` approximates the designed
    local width and ``2 * edt_printed(p)`` the printed local width.  Pixels
    near the design medial axis (``edt_design >= centerline_frac * local
    max``) whose printed/designed width ratio drops below
    ``min_width_ratio`` are neck defects; connected runs of such pixels are
    merged into one defect at their centroid.  Defects come out component
    by component, each component's runs in raster order.

    ``exclude`` masks pixels that must not be reported (line-end tip zones,
    where width collapse is ordinary pullback handled by the EPE check).
    A print with no background pixel has no width to measure (scipy would
    measure to a virtual pixel above row 0), so it has no necks.
    """
    design = DesignState.of(design_labels)
    if design.count == 0 or printed.all():
        return []
    centerline = design.centerline(centerline_frac)
    if exclude is not None:
        centerline = centerline & ~exclude
    ratio = ndimage.distance_transform_edt(printed) / design.widths
    thin = centerline & (ratio < min_width_ratio) & printed
    if not thin.any():
        return []
    # runs never span two components, so one labelling finds them all
    blobs, n_blobs = ndimage.label(thin, structure=_STRUCTURE4)
    owner = _owner(blobs, n_blobs, design.labels)
    out: List[Defect] = []
    for b in np.argsort(owner[1:], kind="stable") + 1:
        run = blobs == b
        row, col = _centroid(run)
        out.append(Defect("neck", row, col, severity=float(ratio[run].min())))
    return out


# ----------------------------------------------------------------------
# edge placement error
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeSite:
    """A sampled point on a design edge with its outward normal (pixels).

    ``kind`` distinguishes long-run **side** edges from line-end **cap**
    edges: caps pull back under diffraction even in healthy patterns, so
    they get a looser EPE budget.
    """

    row: float
    col: float
    normal: Tuple[float, float]  # (drow, dcol), unit, pointing out of the shape
    kind: str = "side"  # "side" | "cap"


class EdgeProbes:
    """Where each edge site's normal probe samples the aerial image.

    Probe ``i`` samples the image at ``site + t * normal`` for ``t`` from
    ``-max_px`` to ``max_px`` in ``step_px`` steps, keeping the samples that
    fall inside the image.  The coordinates depend only on the sites and the
    image shape, so a clip builds them once and each corner reads all of
    its probes with one interpolation call.
    """

    def __init__(
        self,
        sites: Sequence[EdgeSite],
        shape: Tuple[int, int],
        max_px: float = 12.0,
        step_px: float = 0.25,
    ) -> None:
        self.sites = tuple(sites)
        self.shape = tuple(shape)
        self.max_px = float(max_px)
        self.step_px = step_px
        self.ts = np.arange(-max_px, max_px + step_px, step_px)
        n = len(self.sites)
        at = np.array([(s.row, s.col) for s in self.sites], dtype=np.float64)
        normal = np.array([s.normal for s in self.sites], dtype=np.float64)
        at, normal = at.reshape(n, 2), normal.reshape(n, 2)
        rows = at[:, :1] + self.ts * normal[:, :1]
        cols = at[:, 1:] + self.ts * normal[:, 1:]
        h, w = self.shape
        valid = (rows >= 0) & (rows <= h - 1) & (cols >= 0) & (cols <= w - 1)
        # a probe with under two samples in the image reads 0
        self.usable = valid.sum(axis=1) >= 2
        self.valid = valid & self.usable[:, None]
        self.coords = np.stack([rows[self.valid], cols[self.valid]])
        self.is_cap = np.array([s.kind == "cap" for s in self.sites], dtype=bool)

    @classmethod
    def of(
        cls,
        sites: Union["EdgeProbes", Sequence[EdgeSite]],
        shape: Tuple[int, int],
        max_px: float = 12.0,
        step_px: float = 0.25,
    ) -> "EdgeProbes":
        if isinstance(sites, EdgeProbes):
            if (sites.shape, sites.max_px, sites.step_px) == (
                tuple(shape), max_px, step_px
            ):
                return sites
            sites = sites.sites
        return cls(sites, shape, max_px, step_px)

    def epe(self, intensity: np.ndarray, threshold: float) -> np.ndarray:
        """Signed EPE (px) of every site; see :func:`measure_epe`."""
        valid = self.valid
        profile = np.zeros(valid.shape)
        profile[valid] = ndimage.map_coordinates(
            intensity, self.coords, order=1, mode="nearest"
        )
        above = profile >= threshold
        # a probe's valid samples are contiguous (it is a straight line
        # through a box), so a flip is two adjacent valid samples that
        # disagree; it puts one at or above the threshold and one below,
        # so the interpolation denominator is never zero
        flips = valid[:, :-1] & valid[:, 1:] & (above[:, :-1] != above[:, 1:])
        site, k = np.nonzero(flips)
        p0, p1 = profile[site, k], profile[site, k + 1]
        t0, t1 = self.ts[k], self.ts[k + 1]
        frac = (threshold - p0) / (p1 - p0)
        crossing = t0 + frac * (t1 - t0)
        # no flip: uniformly printed or unprinted along the probe
        out = np.where((above | ~valid).all(axis=1), self.max_px, -self.max_px)
        if site.size:
            # per site, the crossing nearest t=0; the first one on a tie
            distance = np.full(flips.shape, np.inf)
            distance[site, k] = np.abs(crossing)
            offset = np.zeros(flips.shape)
            offset[site, k] = crossing
            crossed = np.unique(site)
            out[crossed] = offset[crossed, distance[crossed].argmin(axis=1)]
        return np.where(self.usable, out, 0.0)


def measure_epe(
    intensity: np.ndarray,
    sites: Union[EdgeProbes, Sequence[EdgeSite]],
    threshold: float,
    max_px: float = 12.0,
    step_px: float = 0.25,
) -> List[float]:
    """Signed EPE (px) at each edge site; positive = print bulges outward.

    Walks the aerial intensity along each site's normal in both directions
    and finds the threshold crossing nearest the design edge.  Sites where
    no crossing exists within ``max_px`` report ``+/- max_px`` (the print is
    grossly over/under the edge there).  ``sites`` may be an
    :class:`EdgeProbes` built once for many images.
    """
    probes = EdgeProbes.of(sites, intensity.shape, max_px, step_px)
    return probes.epe(intensity, threshold).tolist()


def find_epe_defects(
    intensity: np.ndarray,
    sites: Union[EdgeProbes, Sequence[EdgeSite]],
    threshold: float,
    epe_limit_px: float,
    cap_limit_px: Optional[float] = None,
    max_px: float = 12.0,
) -> List[Defect]:
    """EPE defects: sites whose |EPE| exceeds their kind's limit.

    ``cap_limit_px`` applies to ``kind == "cap"`` sites (line ends), where
    moderate pullback is normal; it defaults to the side limit when omitted.
    """
    if cap_limit_px is None:
        cap_limit_px = epe_limit_px
    probes = EdgeProbes.of(sites, intensity.shape, max_px)
    epes = np.abs(probes.epe(intensity, threshold))
    limits = np.where(probes.is_cap, cap_limit_px, epe_limit_px)
    return [
        Defect(
            "epe",
            int(round(probes.sites[i].row)),
            int(round(probes.sites[i].col)),
            severity=float(epes[i]),
        )
        for i in np.flatnonzero(epes > limits)
    ]
