"""Rasterization of layout geometry to numpy grids.

The lithography simulator and the CNN detectors both consume pixel images of
clips.  ``rasterize_rects`` converts integer-nm rects to a binary occupancy
grid at a given pixel pitch; partial pixels along shape edges are filled by
exact area coverage, giving an anti-aliased gray image when
``antialias=True`` (the optics model prefers this) or a hard 0/1 image
otherwise.

``rasterize_region`` is the scan-path counterpart: it renders a whole layer
region into one shared :class:`RasterPlane` so overlapping scan windows can
be sliced out as views instead of re-rasterizing the same geometry once per
window.  ``raster_fingerprint`` gives such window slices a canonical content
hash (the raster-plane analogue of
:func:`~repro.geometry.layout.clip_fingerprint`); ``quantize_raster`` and
``quantized_fingerprint`` split it in two so a scan can quantize a whole
band once and key each window from a slice of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .layout import Clip, Layer
from .rect import Rect


def rasterize_rects(
    rects: Sequence[Rect],
    window: Rect,
    pixel_nm: int,
    antialias: bool = True,
) -> np.ndarray:
    """Render rects into a ``(H, W)`` float grid covering ``window``.

    Pixel ``[i, j]`` covers nm region
    ``[x1 + j*p, x1 + (j+1)*p) x [y1 + i*p, y1 + (i+1)*p)``
    with row 0 at the *bottom* of the window (math orientation).  Values are
    the covered-area fraction in [0, 1]; overlapping rects saturate at 1.
    """
    if pixel_nm <= 0:
        raise ValueError("pixel_nm must be positive")
    if window.width % pixel_nm or window.height % pixel_nm:
        raise ValueError(
            f"window {window.width}x{window.height} nm not divisible by "
            f"pixel pitch {pixel_nm} nm"
        )
    width = window.width // pixel_nm
    height = window.height // pixel_nm
    grid = np.zeros((height, width), dtype=np.float64)
    for rect in rects:
        inter = rect.intersection(window)
        if inter is None:
            continue
        _paint(grid, inter, window, pixel_nm)
    np.clip(grid, 0.0, 1.0, out=grid)
    if not antialias:
        grid = (grid >= 0.5).astype(np.float64)
    return grid


def _paint(grid: np.ndarray, rect: Rect, window: Rect, p: int) -> None:
    """Accumulate one rect's per-pixel coverage fractions into the grid."""
    # rect coordinates in pixel units relative to the window origin
    fx1 = (rect.x1 - window.x1) / p
    fy1 = (rect.y1 - window.y1) / p
    fx2 = (rect.x2 - window.x1) / p
    fy2 = (rect.y2 - window.y1) / p
    j1, j2 = int(np.floor(fx1)), int(np.ceil(fx2))
    i1, i2 = int(np.floor(fy1)), int(np.ceil(fy2))
    # per-column x coverage and per-row y coverage; outer product fills block
    cols = np.arange(j1, j2)
    rows = np.arange(i1, i2)
    cov_x = np.minimum(cols + 1, fx2) - np.maximum(cols, fx1)
    cov_y = np.minimum(rows + 1, fy2) - np.maximum(rows, fy1)
    np.clip(cov_x, 0.0, 1.0, out=cov_x)
    np.clip(cov_y, 0.0, 1.0, out=cov_y)
    grid[i1:i2, j1:j2] += np.outer(cov_y, cov_x)


def rasterize_clip(
    clip: Clip, pixel_nm: int, antialias: bool = True
) -> np.ndarray:
    """Render a clip's shapes over its window."""
    return rasterize_rects(clip.rects, clip.window, pixel_nm, antialias=antialias)


@dataclass(frozen=True)
class RasterPlane:
    """A rasterized layer region that scan windows slice views out of.

    ``grid[i, j]`` covers the nm region
    ``[region.x1 + j*p, region.x1 + (j+1)*p) x
    [region.y1 + i*p, region.y1 + (i+1)*p)`` with row 0 at the *bottom*
    (the same orientation as :func:`rasterize_rects`).
    """

    region: Rect
    pixel_nm: int
    grid: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        return self.grid.shape  # type: ignore[return-value]

    def covers(self, window: Rect) -> bool:
        """True when ``window`` lies inside the plane, pixel-aligned."""
        p = self.pixel_nm
        return (
            self.region.contains(window)
            and (window.x1 - self.region.x1) % p == 0
            and (window.y1 - self.region.y1) % p == 0
            and window.width % p == 0
            and window.height % p == 0
        )

    def window(self, window: Rect) -> np.ndarray:
        """The ``(H, W)`` sub-grid covering ``window`` — a view, not a copy.

        The window must lie fully inside the plane and be aligned to the
        pixel grid; anything else would silently shift geometry by a
        sub-pixel amount, so it raises instead.
        """
        if not self.covers(window):
            raise ValueError(
                f"window {window} not pixel-aligned inside plane region "
                f"{self.region} (pixel {self.pixel_nm} nm)"
            )
        p = self.pixel_nm
        i1 = (window.y1 - self.region.y1) // p
        j1 = (window.x1 - self.region.x1) // p
        return self.grid[i1 : i1 + window.height // p, j1 : j1 + window.width // p]


def rasterize_region(
    layer: Layer,
    region: Rect,
    pixel_nm: int,
    antialias: bool = True,
) -> RasterPlane:
    """Render every layer shape intersecting ``region`` into one plane.

    Each piece of geometry is painted exactly once, however many scan
    windows overlap it — the win that makes the raster-plane scan path
    fast.  A window slice of the plane matches
    :func:`rasterize_clip` of the equivalent clip to float rounding
    (~1e-15): both paint the same per-pixel coverage fractions, merely
    relative to different origins.
    """
    if pixel_nm <= 0:
        raise ValueError("pixel_nm must be positive")
    if region.width % pixel_nm or region.height % pixel_nm:
        raise ValueError(
            f"region {region.width}x{region.height} nm not divisible by "
            f"pixel pitch {pixel_nm} nm"
        )
    grid = np.zeros(
        (region.height // pixel_nm, region.width // pixel_nm), dtype=np.float64
    )
    for poly in layer.query(region):
        for rect in poly.rects:
            inter = rect.intersection(region)
            if inter is None:
                continue
            _paint(grid, inter, region, pixel_nm)
    np.clip(grid, 0.0, 1.0, out=grid)
    if not antialias:
        grid = (grid >= 0.5).astype(np.float64)
    return RasterPlane(region=region, pixel_nm=pixel_nm, grid=grid)


#: quantization steps per unit coverage used by :func:`raster_fingerprint`;
#: coarse enough to absorb float rounding between the clip and plane
#: rasterization orders, fine enough that distinct geometry never collides
#: (the smallest real coverage difference at pixel pitch p is 1/p^2).
_FINGERPRINT_QUANT = 4096


def quantize_raster(raster: np.ndarray) -> np.ndarray:
    """Coverage quantized to 1/4096 steps, as ``uint16`` — the key's pixels.

    Elementwise, so quantizing a whole band plane and slicing a window
    out of it gives the window's own quantized raster bit for bit.
    """
    return np.rint(np.asarray(raster) * _FINGERPRINT_QUANT).astype(np.uint16)


def quantized_fingerprint(quantized: np.ndarray) -> str:
    """The ``r:`` key of a :func:`quantize_raster` window (or a slice).

    Hashes the shape and the C-ordered pixels with blake2b, so a slice
    of a quantized band keys exactly like :func:`raster_fingerprint` of
    the window's raster.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(quantized.shape, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(quantized))
    return "r:" + digest.hexdigest()


def raster_fingerprint(raster: np.ndarray) -> str:
    """Canonical content hash of a window raster (quantized).

    The raster-plane scan path cannot afford per-window geometry queries
    just to compute :func:`~repro.geometry.layout.clip_fingerprint`, so it
    dedups on the raster content itself: coverage values are quantized to
    1/4096 (absorbing the ~1e-15 float jitter between rasterization
    orders) and hashed together with the shape.  Keys carry an ``r:``
    prefix so they can never collide with clip-geometry fingerprints in a
    shared :class:`~repro.runtime.cache.ScoreCache`.
    """
    return quantized_fingerprint(quantize_raster(raster))


def core_slice(clip: Clip, pixel_nm: int) -> Tuple[slice, slice]:
    """Row/col slices of the core region inside the clip's raster grid."""
    core = clip.local_core()
    i1 = core.y1 // pixel_nm
    i2 = -(-core.y2 // pixel_nm)  # ceil division
    j1 = core.x1 // pixel_nm
    j2 = -(-core.x2 // pixel_nm)
    return slice(i1, i2), slice(j1, j2)
