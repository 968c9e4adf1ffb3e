"""Binarized layers: sign-quantized weights with straight-through gradients.

The post-survey efficiency direction (binarized residual networks for
hotspot detection, TCAD'21): layout rasters are near-binary, so binarized
networks lose little accuracy while enabling bit-packed inference.

* ``BinaryDense`` / ``BinaryConv2D`` keep full-precision *latent* weights
  but compute forward passes with ``sign(w) * alpha`` where ``alpha`` is
  the per-layer mean |w| (the XNOR-Net scaling).  Gradients flow to the
  latent weights through the straight-through estimator (STE), clipping
  where |w| > 1.
* This numpy implementation demonstrates the accuracy side of the
  trade-off; the wall-clock speedup requires bit-packed kernels outside
  this repo's scope (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .im2col import col2im, conv_out_size, im2col
from .init import Param, he_normal
from .layers import Layer


def binarize(weights: np.ndarray) -> Tuple[np.ndarray, float]:
    """XNOR-style quantization: (sign(w), mean|w|)."""
    alpha = float(np.abs(weights).mean())
    signs = np.where(weights >= 0, 1.0, -1.0)
    return signs, alpha


def ste_mask(weights: np.ndarray) -> np.ndarray:
    """Straight-through estimator gate: pass gradients where |w| <= 1."""
    return (np.abs(weights) <= 1.0).astype(weights.dtype)


class BinaryDense(Layer):
    """Affine layer computed with binarized weights."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        self.w = Param(
            he_normal(rng, (in_features, out_features), fan_in=in_features),
            name="bdense.w",
        )
        self.b = Param(np.zeros(out_features), name="bdense.b")
        self._x: Optional[np.ndarray] = None
        self._wb: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        signs, alpha = binarize(self.w.value)
        wb = signs * alpha
        self._x = x if self.training else None
        self._wb = wb if self.training else None
        return x @ wb + self.b.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        # gradient wrt the *binarized* weights, gated back to the latents
        grad_wb = self._x.T @ grad
        self.w.grad += grad_wb * ste_mask(self.w.value)
        self.b.grad += grad.sum(axis=0)
        return grad @ self._wb.T

    def params(self) -> List[Param]:
        return [self.w, self.b]


class BinaryConv2D(Layer):
    """Convolution computed with binarized weights (im2col backend)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: Optional[int] = None,
    ) -> None:
        if pad is None:
            pad = kernel // 2
        fan_in = in_channels * kernel * kernel
        self.w = Param(
            he_normal(rng, (out_channels, in_channels, kernel, kernel), fan_in),
            name="bconv.w",
        )
        self.b = Param(np.zeros(out_channels), name="bconv.b")
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._wb_mat: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.pad
        oh = conv_out_size(h, k, s, p)
        ow = conv_out_size(w, k, s, p)
        cols = im2col(x, k, k, s, p)
        signs, alpha = binarize(self.w.value)
        wb = (signs * alpha).reshape(self.w.shape[0], -1)
        self._cols = cols if self.training else None
        self._x_shape = x.shape
        self._wb_mat = wb if self.training else None
        out = cols @ wb.T + self.b.value
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, oc, oh, ow = grad.shape
        k, s, p = self.kernel, self.stride, self.pad
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, oc)
        grad_wb = (grad_mat.T @ self._cols).reshape(self.w.shape)
        self.w.grad += grad_wb * ste_mask(self.w.value)
        self.b.grad += grad_mat.sum(axis=0)
        grad_cols = grad_mat @ self._wb_mat
        return col2im(grad_cols, self._x_shape, k, k, s, p)

    def params(self) -> List[Param]:
        return [self.w, self.b]


def build_binary_cnn(
    in_channels: int,
    grid: int,
    rng: np.random.Generator,
    width: int = 24,
) -> "Sequential":
    """Binarized twin of :func:`repro.nn.zoo.build_feature_tensor_cnn`.

    The first conv and the classifier head stay full precision (standard
    BNN practice); the body is binarized.
    """
    from .layers import BatchNorm, Conv2D, Dense, Flatten, MaxPool2D, ReLU
    from .model import Sequential

    if grid % 4:
        raise ValueError("grid must be divisible by 4 (two 2x2 pools)")
    c1, c2 = width, 2 * width
    return Sequential(
        [
            Conv2D(in_channels, c1, kernel=3, rng=rng),  # full precision stem
            BatchNorm(c1),
            ReLU(),
            BinaryConv2D(c1, c1, kernel=3, rng=rng),
            BatchNorm(c1),
            ReLU(),
            MaxPool2D(2),
            BinaryConv2D(c1, c2, kernel=3, rng=rng),
            BatchNorm(c2),
            ReLU(),
            BinaryConv2D(c2, c2, kernel=3, rng=rng),
            BatchNorm(c2),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            BinaryDense(c2 * (grid // 4) ** 2, 128, rng=rng),
            ReLU(),
            Dense(128, 2, rng=rng),  # full precision head
        ]
    )
