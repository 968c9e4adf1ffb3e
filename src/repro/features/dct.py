"""DCT feature tensor.

The deep detector's input representation (Yang et al.'s *feature tensor*):
the clip raster is tiled into ``block x block`` pixel blocks, each block is
transformed with a 2-D DCT, and only the ``k x k`` lowest-frequency
coefficients are kept.  The result is a ``(k*k, H/B, W/B)`` tensor — a
lossy but spatially faithful compression that shrinks CNN input ~10-50x
while keeping the low-frequency content that drives lithography.

``inverse_feature_tensor`` reconstructs the (low-passed) raster, used by
tests to verify the encoding is the DCT it claims to be.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import fft as spfft

from ..geometry.layout import Clip
from ..geometry.rasterize import rasterize_clip
from ..contracts import shaped
from .base import FeatureExtractor


class DCTFeatureTensor(FeatureExtractor):
    """Block-DCT low-frequency tensor of shape ``(keep^2, H/B, W/B)``."""

    def __init__(
        self, block: int = 8, keep: int = 4, pixel_nm: int = 8, flatten: bool = False
    ) -> None:
        if block <= 0 or not 0 < keep <= block:
            raise ValueError("need 0 < keep <= block")
        self.block = block
        self.keep = keep
        self.pixel_nm = pixel_nm
        self.flatten = flatten
        self.name = f"dct-b{block}k{keep}" + ("-flat" if flatten else "")

    def extract(self, clip: Clip) -> np.ndarray:
        raster = rasterize_clip(clip, self.pixel_nm, antialias=True)
        return self.extract_raster(raster)

    @shaped("(h,w)->*:float")
    def extract_raster(self, raster: np.ndarray) -> np.ndarray:
        tensor = feature_tensor(raster, self.block, self.keep)
        return tensor.ravel() if self.flatten else tensor

    @shaped("(n,h,w)->(n,...):float")
    def extract_batch(self, rasters: np.ndarray) -> np.ndarray:
        """One ``spfft.dctn`` over the whole stack instead of n calls."""
        tensors = feature_tensor_batch(np.asarray(rasters), self.block, self.keep)
        if not self.flatten:
            return tensors
        # explicit width: reshape(n, -1) cannot infer -1 when n == 0
        width = int(np.prod(tensors.shape[1:]))
        return tensors.reshape(len(tensors), width)

    @property
    def feature_shape(self) -> tuple:
        raise NotImplementedError("depends on clip size; probe with extract()")


def feature_tensor(raster: np.ndarray, block: int, keep: int) -> np.ndarray:
    """Encode a raster into the ``(keep^2, H/B, W/B)`` DCT tensor."""
    h, w = raster.shape
    if h % block or w % block:
        raise ValueError(f"raster {raster.shape} not divisible by block {block}")
    gh, gw = h // block, w // block
    # -> (gh, gw, block, block) view of blocks
    blocks = raster.reshape(gh, block, gw, block).transpose(0, 2, 1, 3)
    coeffs = spfft.dctn(blocks, axes=(2, 3), norm="ortho")
    kept = coeffs[:, :, :keep, :keep].reshape(gh, gw, keep * keep)
    return np.ascontiguousarray(kept.transpose(2, 0, 1))


_DCT_MATS: dict = {}
# scratch arrays of feature_tensor_batch, one set per thread: served
# scans extract features on several fleet worker threads at once
_BATCH_BUFFERS = threading.local()


def _truncated_dct_matrix(block: int, keep: int) -> np.ndarray:
    """``(block, keep)`` matrix: right-multiply = ortho DCT-II, truncated.

    ``x @ M`` computes the first ``keep`` DCT-II coefficients of each
    length-``block`` row — identical to ``spfft.dct(x, norm="ortho")``
    restricted to ``[:keep]``, but as a GEMM, so a batch of tiny
    transforms becomes one matrix product instead of an FFT-plan call.
    """
    key = (block, keep)
    mat = _DCT_MATS.get(key)
    if mat is None:
        j = np.arange(block, dtype=np.float64)
        k = np.arange(keep, dtype=np.float64)[:, None]
        mat = np.cos(np.pi * (2.0 * j + 1.0) * k / (2.0 * block))
        mat[0] *= np.sqrt(1.0 / block)
        if keep > 1:
            mat[1:] *= np.sqrt(2.0 / block)
        mat = np.ascontiguousarray(mat.T)  # (block, keep)
        _DCT_MATS[key] = mat
    return mat


def feature_tensor_batch(
    rasters: np.ndarray, block: int, keep: int
) -> np.ndarray:
    """Encode a ``(n, H, W)`` raster stack into ``(n, keep^2, H/B, W/B)``.

    Equivalent to stacking :func:`feature_tensor` per raster, but the
    separable block DCT runs as two GEMMs against the cached truncated
    DCT matrix — only the ``keep`` coefficients that survive are ever
    computed, and the intermediates live in persistent per-shape buffers
    reused across raster batches (the batched hot path of the
    raster-plane scan allocates nothing per call at steady state).  Each
    thread has its own buffers, so concurrent calls do not mix.
    Matches :func:`feature_tensor`'s ``spfft.dctn`` to ~1e-15.
    """
    if rasters.ndim != 3:
        raise ValueError(f"expected (n, H, W) raster stack, got {rasters.shape}")
    n, h, w = rasters.shape
    if h % block or w % block:
        raise ValueError(
            f"rasters {rasters.shape[1:]} not divisible by block {block}"
        )
    gh, gw = h // block, w // block
    if n == 0:
        return np.zeros((0, keep * keep, gh, gw), dtype=np.float64)
    mat = _truncated_dct_matrix(block, keep)
    blocks = np.asarray(rasters, dtype=np.float64).reshape(
        n, gh, block, gw, block
    )

    buffers = getattr(_BATCH_BUFFERS, "by_shape", None)
    if buffers is None:
        buffers = _BATCH_BUFFERS.by_shape = {}

    def buf(tag, shape):
        key = (tag, shape)
        b = buffers.get(key)
        if b is None:
            b = buffers[key] = np.empty(shape, dtype=np.float64)
        return b

    # contract the width axis, then the height axis, keeping only the
    # first `keep` coefficients of each: (n,gh,bh,gw,bw) -> (n,gh,bh,gw,kw)
    t1 = buf("t1", (n, gh, block, gw, keep))
    np.matmul(blocks, mat, out=t1)
    # -> (n, gh, gw, kw, bh) @ (bh, kh) -> (n, gh, gw, kw, kh)
    t2 = buf("t2", (n, gh, gw, keep, keep))
    np.matmul(t1.transpose(0, 1, 3, 4, 2), mat, out=t2)
    # channel order (kh, kw) matches the dctn corner's layout
    out = np.empty((n, keep * keep, gh, gw), dtype=np.float64)
    np.copyto(
        out.reshape(n, keep, keep, gh, gw), t2.transpose(0, 4, 3, 1, 2)
    )
    return out


def inverse_feature_tensor(
    tensor: np.ndarray, block: int, keep: int
) -> np.ndarray:
    """Decode back to a raster (exact when ``keep == block``)."""
    c, gh, gw = tensor.shape
    if c != keep * keep:
        raise ValueError(f"channel count {c} != keep^2 = {keep * keep}")
    coeffs = np.zeros((gh, gw, block, block), dtype=np.float64)
    coeffs[:, :, :keep, :keep] = tensor.transpose(1, 2, 0).reshape(
        gh, gw, keep, keep
    )
    blocks = spfft.idctn(coeffs, axes=(2, 3), norm="ortho")
    return blocks.transpose(0, 2, 1, 3).reshape(gh * block, gw * block)
