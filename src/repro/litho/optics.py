"""Aerial image computation.

The mask raster (coverage fractions in [0, 1]) is imaged through the SOCS
kernel stack of :class:`repro.litho.kernels.OpticalSystem`:

``I = sum_k w_k (m * g_k)^2``

where ``g_k`` is a separable Gaussian.  Squaring the *amplitude* (the
convolved field) rather than blurring the intensity reproduces the key
nonlinearity of partially coherent imaging — isolated small features lose
peak intensity faster than dense ones, which is exactly the effect that
makes some DRC-clean patterns hotspots.

Convolution runs per-axis with `scipy.ndimage.correlate1d` in *reflect*
mode so clip borders behave as if the pattern continued (the contest clips
include a guard band around the core for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .kernels import OpticalSystem, gaussian_1d, kernel_radius_px


@dataclass(frozen=True)
class ImagingSettings:
    """Pixel pitch plus the process knobs of one exposure condition."""

    pixel_nm: int = 8
    dose: float = 1.0  # multiplies the effective intensity
    defocus_nm: float = 0.0

    def __post_init__(self) -> None:
        if self.pixel_nm <= 0:
            raise ValueError("pixel_nm must be positive")
        if self.dose <= 0:
            raise ValueError("dose must be positive")


def aerial_image(
    mask: np.ndarray,
    optics: OpticalSystem,
    settings: ImagingSettings,
) -> np.ndarray:
    """Aerial intensity image of a mask raster, same shape as ``mask``.

    Output values are intensities normalized so that a large clear field
    images to ~``dose`` (i.e. a fully-dense mask region saturates to the
    dose level).  Dose is the last step, one product ``dose * image``, so
    the image at dose 1 scaled by ``dose`` is this image bit for bit.
    """
    if mask.ndim != 2:
        raise ValueError("mask raster must be 2-D")
    field = np.asarray(mask, dtype=np.float64)
    intensity = np.zeros_like(field)
    for weight, sigma_nm in optics.kernel_stack(settings.defocus_nm):
        sigma_px = sigma_nm / settings.pixel_nm
        radius = kernel_radius_px(sigma_px)
        taps = gaussian_1d(sigma_px, radius)
        amplitude = ndimage.correlate1d(field, taps, axis=0, mode="reflect")
        amplitude = ndimage.correlate1d(amplitude, taps, axis=1, mode="reflect")
        intensity += weight * amplitude**2
    return settings.dose * intensity
