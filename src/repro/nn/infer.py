"""Fused inference backend: compile a trained model into an execution plan.

The layer-by-layer :class:`~repro.nn.model.Sequential` forward pass is
built for training: every layer caches what its backward pass needs,
BatchNorm runs as a separate multi-pass op, ReLU materializes a mask, and
each convolution re-allocates its im2col scratch on every call.  None of
that work is needed at inference time, and on the scan hot path (the CNN
scoring thousands of raster windows per band) it dominates the runtime.

:func:`compile_plan` walks a trained ``Sequential`` once and emits an
:class:`InferencePlan` — a flat list of fused ops with three properties:

* **folding** — an eval-mode BatchNorm directly after a Conv2D/Dense is
  folded into that layer's weights and bias at compile time (the running
  statistics are affine in the layer output), and a ReLU directly after a
  Conv2D/Dense/affine op becomes an in-place ``np.maximum`` on the GEMM
  output.  Dropout is the identity at eval time and compiles away,
* **kernel-row GEMMs, no per-call allocation** — convolution runs as
  one GEMM per kernel row over a fixed-size chunk of windows.
  Activations flow in ``(N, H, W, C)`` layout so each row's im2col
  gather is one strided copy into a **persistent workspace** buffer
  (reused across raster batches of a plane) whose column order already
  matches the pre-transposed weight matrix — no output transpose either,
* **optional int8 quantization** — ``mode="int8"`` stores conv/dense
  weights as per-output-channel symmetric int8 and accumulates in
  float32 (the classifier head stays full precision: its logits feed
  softmax directly, so head error lands on probabilities 1:1).  When a
  calibration batch is supplied the compile runs a calibration pass
  (per-channel bias correction measured against the float plan), then
  :func:`quantization_report` measures the remaining damage and the
  compile refuses (raises :class:`QuantizationError`) when the
  flag-disagreement rate or the worst probability shift exceeds the
  caller's tolerance.

The float plan is numerically the same function as the eval-mode
layer-by-layer forward — logits agree to ~1e-13 (GEMM summation order is
the only difference), which the parity suite pins at ``<= 1e-10``.
A plan's scores do not depend on the batch size it is called with:
every GEMM runs on a fixed number of windows (:data:`GEMM_WINDOWS`).

**One BLAS.**  Every GEMM here goes through ``np.matmul``, never
``scipy.linalg.blas``.  The numpy and scipy wheels each bundle their own
OpenBLAS with its own thread pool, and an idle pool's threads busy-wait;
a forward pass that alternates between the two libraries keeps both
pools spinning against each other for the same cores.  On a 2-vCPU host
that made the fused plan no faster than the layer-by-layer forward
(a cnn-dct chip scan spent 3.3 s in the plan on two libraries, 0.85 s
on numpy's alone).  ``tests/nn/test_one_blas.py`` keeps ``src/repro`` off
scipy's BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .im2col import conv_out_size
from .layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
)
from .loss import softmax
from .model import Sequential


class PlanCompileError(ValueError):
    """The model contains a layer the plan compiler cannot fuse."""


class QuantizationError(ValueError):
    """Quantized plan failed its accuracy-delta gate vs the float plan."""


#: inference backend spellings accepted across the library
BACKENDS = ("layers", "fused", "fused-int8")

#: windows per GEMM call.  BLAS picks its kernel (``gemv`` for one row,
#: a small-matrix path, edge tiles, the thread split) from the problem
#: shape, so a window's last bit depended on how many windows shared
#: its call.  Every plan GEMM therefore runs on a fixed window count,
#: a batch tail padded up to it; 32 divides both preferred batches.
GEMM_WINDOWS = 32


class Workspace:
    """Grow-only buffer pool: one persistent scratch array per (op, role).

    Plan ops never allocate on the hot path; they ask the workspace for
    a named buffer and get the same array back on every call with a
    matching shape (the common case: all batches of a raster plane are
    the same size).  A *smaller* leading (batch) dimension returns a
    prefix view of the stored buffer — a raster scan's batch sequence
    is ragged (full chunks interleaved with band-tail remainders), and
    without prefix reuse every size transition would refault ~10MB of
    scratch pages.  Only a larger batch, or a change in the trailing
    dims or dtype, reallocates.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple, np.ndarray] = {}

    def _get(self, key, shape, dtype, alloc) -> np.ndarray:
        buf = self._buffers.get(key)
        if (
            buf is not None
            and buf.dtype == dtype
            and buf.shape[1:] == shape[1:]
            and buf.shape[0] >= shape[0]
        ):
            return buf if buf.shape[0] == shape[0] else buf[: shape[0]]
        buf = alloc(shape, dtype=dtype)
        self._buffers[key] = buf
        return buf

    def empty(self, key: Tuple, shape: Tuple[int, ...], dtype) -> np.ndarray:
        return self._get(key, shape, dtype, np.empty)

    def zeros(self, key: Tuple, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Like :meth:`empty` but zero-filled on (re)allocation only.

        Callers overwrite the interior every call and rely on the border
        staying zero (the conv padding halo), so a reused buffer must
        not be re-zeroed.  Prefix views keep the invariant: each row's
        halo was zeroed at allocation and only interiors are rewritten.
        """
        return self._get(key, shape, dtype, np.zeros)

    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


# --------------------------------------------------------------------------
# plan ops: each is `run(x, ws) -> array`, activations in NHWC layout
# --------------------------------------------------------------------------
class _Op:
    """One fused execution step; subclasses set ``tag`` for plan display."""

    tag = "op"

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        raise NotImplementedError


class _FusedConv(_Op):
    """Kernel-row GEMM conv + bias (+BN folded) (+ReLU), NHWC in/out.

    The classic im2col gather over NHWC input copies the ``(c, kh, kw)``
    patch axes element-by-element (innermost run: ``kw`` scalars strided
    by ``c``) and inflates memory traffic by ``k*k``.  This op instead
    loops over the ``kh`` kernel rows: for a fixed row offset ``i`` every
    output pixel's contribution is a **contiguous** ``kw*c`` slice of the
    padded input row, expressible as a zero-copy strided view.  Each row
    is one narrow gather (``k``x expansion instead of ``k*k``x) feeding
    one GEMM against that row's ``(kw*c, oc)`` weight slab, accumulated
    into the output.  Combined with sub-batch chunking (the gather
    scratch stays cache-resident until its GEMM consumes it) this is
    ~2-3x faster than whole-batch im2col on a memory-bound host.

    Row 0's GEMM writes the output chunk directly; rows ``1..k-1`` each
    write a partial-sum chunk that is then added in place — the
    dot-then-add rounding of a BLAS ``beta=1`` epilogue, kept on numpy's
    BLAS (see the module docstring).
    """

    tag = "conv"

    def __init__(
        self, index: int, weight: np.ndarray, bias: np.ndarray,
        kernel: int, stride: int, pad: int,
    ) -> None:
        # (oc, c, kh, kw) -> (kh, kw*c, oc): row i's slab maps the
        # contiguous (kw, c) input run for that kernel row onto the
        # output channels, so the GEMM output is already NHWC
        oc, c = weight.shape[0], weight.shape[1]
        k = kernel
        self.w_rows = np.ascontiguousarray(
            weight.transpose(2, 3, 1, 0).reshape(k, k * c, oc)
        )
        self.bias = np.asarray(bias)
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.out_channels = oc
        self.relu = False
        self.index = index
        self.nchw_input = False  # set on the plan's entry conv
        self.dtype = np.dtype(np.float64)  # overwritten by compile_plan

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> None:
        """Fold a per-output-channel ``y*scale + shift`` into the GEMM."""
        self.w_rows = self.w_rows * scale[None, None, :]
        self.bias = self.bias * scale + shift

    def quantize(self) -> Dict[str, np.ndarray]:
        """Switch to int8 weights / float32 accumulate; returns the pack.

        Per-output-channel symmetric scales: ``w_q = round(w / scale)``
        with ``scale = max|w| / 127``.  The GEMM runs in float32 against
        the *dequantized* matrix (``w_q * scale``) so accumulation is
        float32 while the weight information content is exactly int8.
        """
        scale = np.maximum(
            np.abs(self.w_rows).max(axis=(0, 1)), 1e-12
        ) / 127.0
        w_q = np.clip(
            np.round(self.w_rows / scale), -127, 127
        ).astype(np.int8)
        self.w_rows = w_q.astype(np.float32) * scale.astype(np.float32)
        self.bias = self.bias.astype(np.float32)
        return {"int8": w_q, "scale": scale}

    #: gather-scratch sub-batch budget in bytes — sized so the kernel-row
    #: columns stay cache-resident between their fill and the GEMM that
    #: consumes them (a whole-batch buffer is many x larger than LLC and
    #: forces every column through DRAM twice)
    CHUNK_BYTES = 4 << 20

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        if self.nchw_input:
            if x.ndim != 4:
                raise ValueError(f"conv expects (N, C, H, W), got {x.shape}")
            n, c, h, w = x.shape
            src = x.transpose(0, 2, 3, 1)  # strided view; copied below
        else:
            n, h, w, c = x.shape
            src = x
        k, s, p = self.kernel, self.stride, self.pad
        oh = conv_out_size(h, k, s, p)
        ow = conv_out_size(w, k, s, p)
        dt = self.dtype
        if p or self.nchw_input or x.dtype != dt or not x.flags.c_contiguous:
            # one copy does triple duty: layout change (entry conv),
            # dtype cast (int8 plans take float64 in) and zero halo
            xp = ws.zeros(
                ("pad", self.index), (n, h + 2 * p, w + 2 * p, c), dt
            )
            xp[:, p : p + h, p : p + w, :] = src
        else:
            xp = x
        # zero-copy view: row i, output pixel (y, x) -> the contiguous
        # kw*c run starting at padded row y*s + i, column x*s, channel 0
        flat = xp.reshape(n, h + 2 * p, (w + 2 * p) * c)
        st = flat.strides
        item = dt.itemsize
        # a fixed window count per GEMM (see GEMM_WINDOWS): the largest
        # power of two within the gather budget, so it divides the cap
        fit = max(1, self.CHUNK_BYTES // max(1, oh * ow * k * c * item))
        chunk = min(GEMM_WINDOWS, 1 << (fit.bit_length() - 1))
        rows = chunk * oh * ow
        # a tail chunk's padding rows keep zeros or an earlier chunk's
        # columns; GEMM rows never mix, so they cost time, not bits
        cols = ws.zeros(("cols", self.index), (rows, k * c), dt)
        # chunk-sized, so it stays cache-resident like the gather
        part = ws.empty(("part", self.index), (rows, self.out_channels), dt)
        n_pad = -(-n // chunk) * chunk
        out = ws.empty(
            ("out", self.index), (n_pad * oh * ow, self.out_channels), dt
        )
        for start in range(0, n, chunk):
            m = min(chunk, n - start)
            ob = out[start * oh * ow : start * oh * ow + rows]
            for i in range(k):
                view = as_strided(
                    flat[start : start + m, i:, :],
                    shape=(m, oh, ow, k * c),
                    strides=(st[0], st[1] * s, c * s * item, item),
                )
                np.copyto(cols[: m * oh * ow].reshape(m, oh, ow, k * c), view)
                if i == 0:
                    np.matmul(cols, self.w_rows[0], out=ob)
                else:
                    np.matmul(cols, self.w_rows[i], out=part)
                    ob += part
            ob += self.bias
            if self.relu:
                np.maximum(ob, 0.0, out=ob)
        return out[: n * oh * ow].reshape(n, oh, ow, self.out_channels)


class _FusedDense(_Op):
    """``x @ w + b`` (+BN folded) (+ReLU) over ``(N, D)`` vectors.

    Each GEMM covers :data:`GEMM_WINDOWS` rows; a batch whose size is
    not a multiple is first copied into a padded workspace block.
    """

    tag = "dense"

    def __init__(self, index: int, weight: np.ndarray, bias: np.ndarray) -> None:
        self.w = np.asarray(weight)  # (in, out)
        self.bias = np.asarray(bias)
        self.relu = False
        self.index = index

    def fold_affine(self, scale: np.ndarray, shift: np.ndarray) -> None:
        self.w = self.w * scale[None, :]
        self.bias = self.bias * scale + shift

    def quantize(self) -> Dict[str, np.ndarray]:
        scale = np.maximum(np.abs(self.w).max(axis=0), 1e-12) / 127.0
        w_q = np.clip(np.round(self.w / scale), -127, 127).astype(np.int8)
        self.w = (w_q.astype(np.float32) * scale.astype(np.float32))
        self.bias = self.bias.astype(np.float32)
        return {"int8": w_q, "scale": scale}

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        n, r = len(x), GEMM_WINDOWS
        n_pad = -(-n // r) * r
        if n_pad != n:
            # rows past n keep zeros or an earlier batch's rows; GEMM
            # rows never mix, so they cost time, not bits
            xp = ws.zeros(("pad", self.index), (n_pad, x.shape[1]), x.dtype)
            xp[:n] = x
            x = xp
        out = ws.empty(("out", self.index), (n_pad, self.w.shape[1]), x.dtype)
        for start in range(0, n_pad, r):
            np.matmul(
                x[start : start + r], self.w, out=out[start : start + r]
            )
        out = out[:n]
        out += self.bias
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


class _Affine(_Op):
    """Standalone per-channel ``x*scale + shift`` (BN with no host GEMM)."""

    tag = "affine"

    def __init__(self, index: int, scale: np.ndarray, shift: np.ndarray) -> None:
        self.scale = np.asarray(scale)
        self.shift = np.asarray(shift)
        self.relu = False
        self.index = index

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        # channels are the trailing axis in both NHWC and (N, D) layouts
        out = ws.empty(("out", self.index), x.shape, x.dtype)
        np.multiply(x, self.scale, out=out)
        out += self.shift
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out


class _ReLUOp(_Op):
    """Standalone ReLU (only when no preceding op could absorb it)."""

    tag = "relu"

    def __init__(self, index: int) -> None:
        self.index = index

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        out = ws.empty(("out", self.index), x.shape, x.dtype)
        return np.maximum(x, 0.0, out=out)


class _MaxPool(_Op):
    """Non-overlapping max pool in NHWC (kernel == stride)."""

    tag = "maxpool"

    def __init__(self, index: int, kernel: int) -> None:
        self.kernel = kernel
        self.index = index

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        n, h, w, c = x.shape
        k = self.kernel
        if h % k or w % k:
            raise ValueError(f"input {h}x{w} not divisible by pool {k}")
        oh, ow = h // k, w // k
        xr = x.reshape(n, oh, k, ow, k, c)
        # fold the pool window with pairwise in-place maxima into
        # persistent buffers — a multi-axis strided ``.max`` allocates
        # its result and reduces at half the ufunc's rate
        acc = ws.empty(("pool", self.index), (n, oh, ow, k, c), x.dtype)
        np.copyto(acc, xr[:, :, 0])
        for i in range(1, k):
            np.maximum(acc, xr[:, :, i], out=acc)
        out = ws.empty(("out", self.index), (n, oh, ow, c), x.dtype)
        np.copyto(out, acc[:, :, :, 0])
        for j in range(1, k):
            np.maximum(out, acc[:, :, :, j], out=out)
        return out


class _GlobalAvgPool(_Op):
    """(N, H, W, C) -> (N, C) spatial mean; identical to the NCHW result."""

    tag = "gap"

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        return x.mean(axis=(1, 2))


class _Flatten(_Op):
    """NHWC -> the NCHW-ordered flat vector the trained Dense expects."""

    tag = "flatten"

    def __init__(self, index: int) -> None:
        self.index = index

    def run(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        if x.ndim == 2:
            return x
        n, h, w, c = x.shape
        out = ws.empty(("out", self.index), (n, c * h * w), x.dtype)
        np.copyto(out.reshape(n, c, h, w), x.transpose(0, 3, 1, 2))
        return out


def _bn_eval_affine(layer: BatchNorm) -> Tuple[np.ndarray, np.ndarray]:
    """Eval-mode BatchNorm as ``y = x*scale + shift`` per channel."""
    inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
    scale = layer.gamma.value * inv_std
    shift = layer.beta.value - layer.running_mean * scale
    return scale, shift


@dataclass
class QuantizationReport:
    """How far the int8 plan drifted from the float plan on calibration."""

    n_calibration: int
    max_delta_proba: float
    flag_disagreement: float
    threshold: float
    max_delta_tol: float
    disagreement_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.max_delta_proba <= self.max_delta_tol
            and self.flag_disagreement <= self.disagreement_tol
        )

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "REJECT"
        return (
            f"int8 gate {verdict}: max|dP|={self.max_delta_proba:.2e} "
            f"(tol {self.max_delta_tol:.2e}), flag disagreement="
            f"{self.flag_disagreement:.4f} (tol {self.disagreement_tol:.4f}) "
            f"on {self.n_calibration} calibration windows"
        )


class InferencePlan:
    """Compiled inference-only forward pass for a trained model.

    Call :meth:`forward` for logits or :meth:`predict_proba` for
    P(hotspot).  The plan owns a :class:`Workspace` whose buffers are
    reused across calls, so outputs of :meth:`forward` are views into
    plan-owned memory — consume (or copy) them before the next call.
    """

    def __init__(
        self, ops: Sequence[_Op], in_is_image: bool, dtype: np.dtype
    ) -> None:
        self.ops = list(ops)
        self.in_is_image = in_is_image
        self.dtype = np.dtype(dtype)
        self.workspace = Workspace()
        #: inference telemetry, merged into scan counters by the engine;
        #: keys are fixed so clean and quantized runs expose the same set
        self.stats: Dict[str, int] = {
            "infer_batches": 0,
            "infer_windows": 0,
            "infer_int8_windows": 0,
        }
        self.quant_report: Optional[QuantizationReport] = None

    @property
    def preferred_batch(self) -> int:
        """Batch size the plan runs fastest at.

        The conv workspace footprint scales with batch x itemsize, and
        throughput drops once the gather/output buffers spill the LLC —
        float64 plans hit that at about half the batch float32 plans do
        (measured ~5-8% on the stock cnn-dct stack), so size the batch
        to the dtype.
        """
        return 64 if self.dtype == np.float64 else 96

    def describe(self) -> str:
        """Compact op listing, e.g. ``conv+relu -> maxpool -> dense``."""
        parts = []
        for op in self.ops:
            tag = op.tag
            if getattr(op, "relu", False):
                tag += "+relu"
            parts.append(tag)
        return " -> ".join(parts)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits for a batch; accepts ``(N, C, H, W)`` or ``(N, D)``."""
        ws = self.workspace
        x = np.asarray(x)
        n = len(x)
        if self.in_is_image:
            if x.ndim != 4:
                raise ValueError(f"plan expects (N, C, H, W), got {x.shape}")
            first = self.ops[0]
            if not (isinstance(first, _FusedConv) and first.nchw_input):
                # layout change at the door: NCHW -> NHWC into a
                # persistent buffer (an entry conv instead absorbs the
                # transpose into its own pad-buffer write)
                nhwc = ws.empty(
                    ("input",), (n,) + x.shape[2:] + (x.shape[1],), self.dtype
                )
                np.copyto(nhwc, x.transpose(0, 2, 3, 1))
                x = nhwc
        elif x.dtype != self.dtype:
            x = x.astype(self.dtype)
        for op in self.ops:
            x = op.run(x, ws)
        self.stats["infer_batches"] += 1
        self.stats["infer_windows"] += n
        if self.dtype == np.float32:
            self.stats["infer_int8_windows"] += n
        return x

    def predict_proba(
        self, x: np.ndarray, batch_size: int = 1024
    ) -> np.ndarray:
        """P(hotspot) per sample, float64, batched through the plan."""
        x = np.asarray(x)
        out = np.empty(len(x), dtype=np.float64)
        for start in range(0, len(x), batch_size):
            logits = self.forward(x[start : start + batch_size])
            out[start : start + batch_size] = softmax(
                np.asarray(logits, dtype=np.float64)
            )[:, 1]
        return out

    def reset_stats(self) -> None:
        for key in self.stats:
            self.stats[key] = 0


def compile_plan(
    model: Sequential,
    mode: str = "float",
    calibration: Optional[np.ndarray] = None,
    threshold: float = 0.5,
    max_delta_proba: float = 0.03,
    max_flag_disagreement: float = 0.0,
) -> InferencePlan:
    """Compile a trained ``Sequential`` into an :class:`InferencePlan`.

    Parameters
    ----------
    mode:
        ``"float"`` — float64, numerically the eval-mode forward pass;
        ``"int8"`` — per-channel int8 weights with float32 accumulate.
    calibration:
        Inputs used to gate an int8 plan against the float plan (same
        shape ``forward`` takes).  ``None`` skips the gate.
    threshold:
        Decision threshold used for the flag-disagreement gate.
    max_delta_proba / max_flag_disagreement:
        Int8 accuracy budget: the largest tolerated ``|P_int8 - P_float|``
        and the tolerated fraction of calibration samples whose flag
        flips.  Exceeding either raises :class:`QuantizationError`.
        The defaults demand *exact* flag agreement while allowing the
        probabilities three points of drift — int8 weight rounding on a
        4-conv/2-dense stack lands around 0.02 after bias correction,
        and what the scan path promises is the flags, not the scores.
    """
    if mode not in ("float", "int8"):
        raise ValueError(f"mode must be 'float' or 'int8', got {mode!r}")
    ops: List[_Op] = []
    in_is_image: Optional[bool] = None
    for layer in model.layers:
        prev = ops[-1] if ops else None
        if isinstance(layer, Conv2D):
            ops.append(
                _FusedConv(
                    len(ops), layer.w.value, layer.b.value,
                    layer.kernel, layer.stride, layer.pad,
                )
            )
            if in_is_image is None:
                in_is_image = True
        elif isinstance(layer, Dense):
            ops.append(_FusedDense(len(ops), layer.w.value, layer.b.value))
            if in_is_image is None:
                in_is_image = False
        elif isinstance(layer, BatchNorm):
            scale, shift = _bn_eval_affine(layer)
            if isinstance(prev, (_FusedConv, _FusedDense)) and not prev.relu:
                prev.fold_affine(scale, shift)
            else:
                ops.append(_Affine(len(ops), scale, shift))
        elif isinstance(layer, ReLU):
            if prev is not None and hasattr(prev, "relu") and not prev.relu:
                prev.relu = True
            else:
                ops.append(_ReLUOp(len(ops)))
        elif isinstance(layer, MaxPool2D):
            ops.append(_MaxPool(len(ops), layer.kernel))
        elif isinstance(layer, GlobalAvgPool):
            ops.append(_GlobalAvgPool())
        elif isinstance(layer, Flatten):
            ops.append(_Flatten(len(ops)))
        elif isinstance(layer, Dropout):
            continue  # identity at eval time
        else:
            raise PlanCompileError(
                f"cannot compile layer {type(layer).__name__}; the fused "
                "backend supports the standard zoo layers only"
            )
    if not ops:
        raise PlanCompileError("model compiled to an empty plan")
    dtype = np.float64 if mode == "float" else np.float32
    for op in ops:
        if isinstance(op, _FusedConv):
            op.dtype = np.dtype(dtype)
    if in_is_image and isinstance(ops[0], _FusedConv):
        ops[0].nchw_input = True
    if mode == "int8":
        # the classifier head stays full precision (cast to f32 only):
        # its logits feed softmax directly, so quantization error there
        # lands on the probabilities 1:1 — same convention as the
        # binarized zoo, which keeps first conv and head in float
        head = next(
            (
                op
                for op in reversed(ops)
                if isinstance(op, (_FusedConv, _FusedDense))
            ),
            None,
        )
        for op in ops:
            if isinstance(op, (_FusedConv, _FusedDense)):
                if op is head:
                    if isinstance(op, _FusedConv):
                        op.w_rows = op.w_rows.astype(np.float32)
                    else:
                        op.w = op.w.astype(np.float32)
                    op.bias = op.bias.astype(np.float32)
                else:
                    op.quantize()
            elif isinstance(op, _Affine):
                op.scale = op.scale.astype(np.float32)
                op.shift = op.shift.astype(np.float32)
    plan = InferencePlan(ops, in_is_image=bool(in_is_image), dtype=dtype)
    if mode == "int8" and calibration is not None:
        float_plan = compile_plan(model, mode="float")
        _calibrate_biases(float_plan, plan, calibration)
        report = quantization_report(
            float_plan, plan, calibration,
            threshold=threshold,
            max_delta_proba=max_delta_proba,
            max_flag_disagreement=max_flag_disagreement,
        )
        plan.quant_report = report
        plan.reset_stats()
        if not report.passed:
            raise QuantizationError(report.summary())
    return plan


def _calibrate_biases(
    float_plan: InferencePlan,
    int8_plan: InferencePlan,
    calibration: np.ndarray,
) -> None:
    """Per-channel bias correction — the int8 calibration pass.

    Weight rounding shifts each channel's mean pre-activation output by
    roughly ``E[dW @ x]`` — a *systematic* per-channel offset, not
    noise, because the calibration inputs share structure (the DCT DC
    channel dwarfs the rest).  Running the two plans in lockstep over
    the calibration batch and folding the measured per-channel mean gap
    into the int8 biases removes that offset at zero runtime cost
    (standard post-training-quantization bias correction); on the stock
    cnn-dct stack it cuts the max probability delta by ~25%.

    Corrections are measured *pre-activation* (ReLU is toggled off
    around each GEMM and re-applied manually) so the bias adjustment
    lands where the bias itself does.
    """
    fws, qws = Workspace(), Workspace()
    xf = np.asarray(calibration)
    xq = xf
    for fop, qop in zip(float_plan.ops, int8_plan.ops):
        if isinstance(qop, (_FusedConv, _FusedDense)):
            relu = qop.relu
            fop.relu = qop.relu = False
            yf = fop.run(xf, fws).copy()
            yq = qop.run(xq, qws).astype(np.float64)
            gap = yf - yq
            corr = gap.reshape(-1, gap.shape[-1]).mean(axis=0)
            qop.bias = (
                np.asarray(qop.bias, dtype=np.float64) + corr
            ).astype(np.float32)
            yq = (yq + corr).astype(np.float32)
            if relu:
                np.maximum(yf, 0.0, out=yf)
                np.maximum(yq, 0.0, out=yq)
            fop.relu = qop.relu = relu
            xf, xq = yf, yq
        else:
            xf = fop.run(xf, fws).copy()
            xq = qop.run(xq, qws).copy()


def quantization_report(
    float_plan: InferencePlan,
    int8_plan: InferencePlan,
    calibration: np.ndarray,
    threshold: float = 0.5,
    max_delta_proba: float = 0.03,
    max_flag_disagreement: float = 0.0,
) -> QuantizationReport:
    """Measure the int8 plan's drift from the float plan on a batch."""
    calibration = np.asarray(calibration)
    if len(calibration) == 0:
        raise ValueError("calibration batch must be non-empty")
    p_float = float_plan.predict_proba(calibration)
    p_int8 = int8_plan.predict_proba(calibration)
    delta = np.abs(p_float - p_int8)
    flags_differ = (p_float >= threshold) != (p_int8 >= threshold)
    return QuantizationReport(
        n_calibration=len(calibration),
        max_delta_proba=float(delta.max()),
        flag_disagreement=float(flags_differ.mean()),
        threshold=float(threshold),
        max_delta_tol=float(max_delta_proba),
        disagreement_tol=float(max_flag_disagreement),
    )
