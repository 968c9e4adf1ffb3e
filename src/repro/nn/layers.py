"""Neural-network layers (numpy, explicit forward/backward).

In training mode every layer caches what its backward pass needs during
forward and releases it on the next call; an eval-mode forward keeps no
such cache and drops any that a training forward left, so a fitted model
carries its weights and not its last batch.  Shapes follow the PyTorch
convention: ``(N, C, H, W)`` for images, ``(N, D)`` for vectors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from .im2col import col2im, conv_out_size, im2col
from .init import Param, he_normal, xavier_uniform


class Layer(ABC):
    """Forward/backward node with trainable params."""

    training: bool = True

    @abstractmethod
    def forward(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray: ...

    def params(self) -> List[Param]:
        return []

    def train_mode(self, training: bool = True) -> None:
        self.training = training

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Affine layer ``y = x @ W + b`` over ``(N, D)``."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        self.w = Param(
            he_normal(rng, (in_features, out_features), fan_in=in_features),
            name="dense.w",
        )
        self.b = Param(np.zeros(out_features), name="dense.b")
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x if self.training else None
        return x @ self.w.value + self.b.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.w.grad += self._x.T @ grad
        self.b.grad += grad.sum(axis=0)
        return grad @ self.w.value.T

    def params(self) -> List[Param]:
        return [self.w, self.b]


class Conv2D(Layer):
    """2-D convolution via im2col; weight ``(out_c, in_c, kh, kw)``."""

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
            pad = kernel // 2  # 'same' for stride 1, odd kernels
        fan_in = in_channels * kernel * kernel
        self.w = Param(
            he_normal(rng, (out_channels, in_channels, kernel, kernel), fan_in),
            name="conv.w",
        )
        self.b = Param(np.zeros(out_channels), name="conv.b")
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.pad
        oh = conv_out_size(h, k, s, p)
        ow = conv_out_size(w, k, s, p)
        cols = im2col(x, k, k, s, p)  # (n*oh*ow, c*k*k)
        self._cols = cols if self.training else None
        self._x_shape = x.shape
        w_mat = self.w.value.reshape(self.w.shape[0], -1)  # (oc, c*k*k)
        out = cols @ w_mat.T + self.b.value  # (n*oh*ow, oc)
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, oc, oh, ow = grad.shape
        k, s, p = self.kernel, self.stride, self.pad
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, oc)  # (n*oh*ow, oc)
        w_mat = self.w.value.reshape(oc, -1)
        self.w.grad += (grad_mat.T @ self._cols).reshape(self.w.shape)
        self.b.grad += grad_mat.sum(axis=0)
        grad_cols = grad_mat @ w_mat  # (n*oh*ow, c*k*k)
        return col2im(grad_cols, self._x_shape, k, k, s, p)

    def params(self) -> List[Param]:
        return [self.w, self.b]


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class MaxPool2D(Layer):
    """Non-overlapping max pooling (kernel == stride)."""

    def __init__(self, kernel: int = 2) -> None:
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel
        if h % k or w % k:
            raise ValueError(f"input {h}x{w} not divisible by pool {k}")
        self._x_shape = x.shape
        xr = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
        flat = xr.reshape(n, c, h // k, w // k, k * k)
        self._argmax = flat.argmax(axis=4) if self.training else None
        return flat.max(axis=4)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        k = self.kernel
        oh, ow = h // k, w // k
        out = np.zeros((n, c, oh, ow, k * k), dtype=grad.dtype)
        idx = self._argmax
        ni, ci, hi, wi = np.indices(idx.shape)
        out[ni, ci, hi, wi, idx] = grad
        return (
            out.reshape(n, c, oh, ow, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )


class GlobalAvgPool(Layer):
    """(N, C, H, W) -> (N, C) mean over spatial dims."""

    def __init__(self) -> None:
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        return np.broadcast_to(
            grad[:, :, None, None] / (h * w), self._x_shape
        ).copy()


class Flatten(Layer):
    def __init__(self) -> None:
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(len(x), -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._x_shape)


class Dropout(Layer):
    """Inverted dropout; identity at eval time."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")
        self.p = p
        self.rng = rng
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class BatchNorm(Layer):
    """Batch normalization over (N,) stats for 2-D or (N, H, W) for 4-D.

    One implementation serves both ``(N, D)`` (per-feature) and
    ``(N, C, H, W)`` (per-channel) inputs.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        self.gamma = Param(np.ones(num_features), name="bn.gamma")
        self.beta = Param(np.zeros(num_features), name="bn.beta")
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self._cache: Optional[tuple] = None

    def _moments_axes(self, x: np.ndarray) -> Tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError("BatchNorm expects 2-D or 4-D input")

    def _reshape_stat(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 4:
            return stat[None, :, None, None]
        return stat[None, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._moments_axes(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        mean_b = self._reshape_stat(mean, x.ndim)
        var_b = self._reshape_stat(var, x.ndim)
        inv_std = 1.0 / np.sqrt(var_b + self.eps)
        x_hat = (x - mean_b) * inv_std
        self._cache = (x_hat, inv_std, axes) if self.training else None
        return self._reshape_stat(self.gamma.value, x.ndim) * x_hat + self._reshape_stat(
            self.beta.value, x.ndim
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std, axes = self._cache
        m = np.prod([grad.shape[a] for a in axes])
        self.gamma.grad += (grad * x_hat).sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        gamma_b = self._reshape_stat(self.gamma.value, grad.ndim)
        grad_xhat = grad * gamma_b
        # standard batchnorm backward (training-mode statistics)
        sum_gx = grad_xhat.sum(axis=axes, keepdims=True)
        sum_gx_xhat = (grad_xhat * x_hat).sum(axis=axes, keepdims=True)
        return inv_std * (grad_xhat - sum_gx / m - x_hat * sum_gx_xhat / m)

    def params(self) -> List[Param]:
        return [self.gamma, self.beta]
