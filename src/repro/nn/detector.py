"""CNN hotspot detector: the survey's generation-3 system.

``CNNDetector`` composes the full deep recipe:

1. minority up-sampling with mirror-flip augmentation,
2. block-DCT feature-tensor extraction,
3. the feature-tensor CNN from the zoo,
4. weighted cross-entropy training, optionally followed by the
   biased-learning phase,
5. softmax P(hotspot) scores through the common Detector API.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..contracts import shaped
from ..core.detector import Detector, FitReport
from ..core.registry import register
from ..data.dataset import ClipDataset
from ..data.imbalance import class_weights, upsample_minority
from ..features.dct import DCTFeatureTensor
from ..geometry.layout import Clip
from .biased import BiasedConfig, biased_fit
from .infer import BACKENDS, InferencePlan, compile_plan
from .model import Sequential
from .trainer import TrainConfig, Trainer, predict_proba
from .zoo import build_feature_tensor_cnn, build_raster_cnn

#: windows of the fit-time calibration split retained for the int8 gate
_MAX_CALIBRATION = 256


class InferBackendMixin:
    """Pluggable inference backend for model-backed detectors.

    ``backend`` selects how ``predict_proba*`` runs the trained model:

    * ``"layers"`` — the training-path layer-by-layer ``Model.forward``,
    * ``"fused"`` — a compiled float64 :class:`InferencePlan` (BN/ReLU
      folding, persistent workspace; numerically the same function),
    * ``"fused-int8"`` — the quantized plan; when the detector retained
      a fit-time calibration batch the compile runs the accuracy-delta
      gate against the float plan and refuses a lossy quantization.

    Plans are compiled lazily, invalidated on (re)fit, and dropped from
    pickles — a spawned scan worker recompiles from the weights it
    receives rather than shipping workspace buffers across processes.
    """

    _plan: Optional[InferencePlan] = None
    _calibration_x: Optional[np.ndarray] = None

    @property
    def backend(self) -> str:
        return getattr(self.config, "backend", "layers")

    def set_backend(
        self, backend: str, calibration: Optional[np.ndarray] = None
    ) -> None:
        """Select the inference backend; compiles eagerly when fitted."""
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown inference backend {backend!r}; expected one of "
                f"{BACKENDS}"
            )
        self.config.backend = backend
        self._plan = None
        if calibration is not None:
            self._calibration_x = np.asarray(calibration)
        if self.model is not None and backend != "layers":
            self._get_plan()  # fail fast: compile/quantization errors

    def _get_plan(self) -> Optional[InferencePlan]:
        if self.backend == "layers" or self.model is None:
            return None
        if self._plan is None:
            mode = "int8" if self.backend == "fused-int8" else "float"
            self._plan = compile_plan(
                self.model,
                mode=mode,
                calibration=self._calibration_x if mode == "int8" else None,
                threshold=self.threshold,
            )
        return self._plan

    def _predict_array(
        self, x: np.ndarray, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Score a feature/raster tensor through the selected backend.

        ``batch_size=None`` defers to the plan's
        :attr:`~repro.nn.infer.InferencePlan.preferred_batch` (dtype-
        sized for cache residency); the layers path keeps its historical
        128.
        """
        plan = self._get_plan()
        if plan is not None:
            return plan.predict_proba(
                x, batch_size=batch_size or plan.preferred_batch
            )
        return predict_proba(self.model, x, batch_size=batch_size or 128)

    def infer_stats(self) -> dict:
        """Counters from the compiled plan (empty for ``layers``)."""
        return dict(self._plan.stats) if self._plan is not None else {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_plan"] = None  # recompiled lazily in the receiving process
        return state


@dataclass
class CNNDetectorConfig:
    epochs: int = 12
    biased_epsilon: Optional[float] = 0.15  # None disables the biased phase
    biased_epochs: int = 4
    batch_size: int = 32
    lr: float = 1e-3
    upsample_ratio: Optional[float] = 0.5
    mirror: bool = True
    dct_block: int = 8
    dct_keep: int = 4
    width: int = 24
    seed_fallback: int = 0
    calibrate: Optional[str] = "fa"  # None | "f1" | "fa"
    fa_cap: float = 0.10  # false-alarm-rate budget for "fa" calibration
    backend: str = "layers"  # "layers" | "fused" | "fused-int8"


class CNNDetector(InferBackendMixin, Detector):
    """Feature-tensor CNN with biased learning."""

    name = "cnn-dct"

    def __init__(self, config: Optional[CNNDetectorConfig] = None) -> None:
        self.config = config or CNNDetectorConfig()
        if self.config.backend not in BACKENDS:
            raise ValueError(
                f"unknown inference backend {self.config.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        self.extractor = DCTFeatureTensor(
            block=self.config.dct_block, keep=self.config.dct_keep
        )
        self.model: Optional[Sequential] = None
        self._fitted_grid: int = 0
        self._plan = None
        self._calibration_x = None

    def _vectorize(self, clips: Sequence[Clip]) -> np.ndarray:
        return self.extractor.extract_many(clips)

    def _build_model(
        self, channels: int, grid: int, rng: np.random.Generator
    ) -> Sequential:
        return build_feature_tensor_cnn(
            channels, grid, rng=rng, width=self.config.width
        )

    def fit(
        self, train: ClipDataset, rng: Optional[np.random.Generator] = None
    ) -> FitReport:
        cfg = self.config
        rng = rng or np.random.default_rng(cfg.seed_fallback)
        t0 = time.perf_counter()
        self._plan = None  # new weights invalidate any compiled plan
        self._calibration_x = None
        calibration = None
        if cfg.calibrate is not None and train.n_hotspots >= 4:
            train, calibration = train.split(0.25, rng)
            if calibration.n_hotspots == 0 or train.n_hotspots == 0:
                train = train.extend(calibration.clips, calibration.labels)
                calibration = None
        if cfg.upsample_ratio is not None and train.n_hotspots > 0:
            train = upsample_minority(
                train, rng, target_ratio=cfg.upsample_ratio, mirror=cfg.mirror
            )
        x = self._vectorize(train.clips)
        y = train.labels
        channels, grid = x.shape[1], x.shape[2]
        self._fitted_grid = grid
        self.model = self._build_model(channels, grid, rng)
        weights = class_weights(y)
        if cfg.biased_epsilon is not None:
            biased_fit(
                self.model,
                x,
                y,
                rng,
                config=BiasedConfig(
                    epsilon=cfg.biased_epsilon,
                    base_epochs=cfg.epochs,
                    biased_epochs=cfg.biased_epochs,
                    batch_size=cfg.batch_size,
                    lr=cfg.lr,
                ),
                class_weights=weights,
            )
        else:
            trainer = Trainer(
                TrainConfig(
                    epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr
                ),
                class_weights=weights,
            )
            trainer.fit(self.model, x, y, rng)
        if calibration is not None:
            from ..core.threshold import pick_threshold

            x_cal = self._vectorize(calibration.clips)
            # retained for the int8 quantization accuracy-delta gate
            self._calibration_x = x_cal[:_MAX_CALIBRATION]
            scores = predict_proba(self.model, x_cal)
            self.threshold = pick_threshold(
                cfg.calibrate, calibration.labels, scores, cfg.fa_cap
            )
        else:
            # an eval pass drops the last training batch's backward caches
            predict_proba(self.model, x[:1])
        return FitReport(
            train_seconds=time.perf_counter() - t0,
            n_train=len(train),
            notes=f"params={self.model.n_parameters()}",
        )

    @shaped("[n]->(n,):float64")
    def predict_proba(self, clips: Sequence[Clip]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("CNNDetector not fitted")
        if len(clips) == 0:
            return np.empty(0, dtype=np.float64)
        return self._predict_array(self._vectorize(clips))

    @shaped("(n,h,w)->(n,):float64")
    def predict_proba_rasters(self, rasters: np.ndarray) -> np.ndarray:
        """Score pre-rendered window rasters: batched DCT -> CNN forward."""
        if self.model is None:
            raise RuntimeError("CNNDetector not fitted")
        rasters = np.asarray(rasters, dtype=np.float64)
        if len(rasters) == 0:
            return np.empty(0, dtype=np.float64)
        return self._predict_array(self.extractor.extract_batch(rasters))

    @property
    def raster_pixel_nm(self) -> int:
        """Pixel pitch the raster-plane scan must rasterize at."""
        return int(self.extractor.pixel_nm)

    # ------------------------------------------------------------------
    # plane-shared features: the scan engine's band fast path
    # ------------------------------------------------------------------
    def plane_feature_block(self) -> Optional[int]:
        """Raster-pixel block pitch of the shareable feature grid.

        The block DCT is computed per ``block x block`` pixel tile
        independently, so when every scan window lands on a tile
        boundary the whole band plane can be transformed *once* and
        each window's feature tensor becomes a slice of the plane
        tensor.  At the survey geometry windows overlap ~9x, so this
        divides the DCT work by the overlap factor and shrinks the
        per-window copy from raster pixels to kept coefficients.
        """
        return int(self.extractor.block)

    def plane_feature_tensor(self, plane: np.ndarray) -> np.ndarray:
        """Transform a ``(H, W)`` raster plane into ``(keep^2, H/B, W/B)``.

        Bit-identical per block to :meth:`predict_proba_rasters`'s
        batched extraction — the DCT never mixes blocks, so a window's
        slice of this tensor equals the tensor of the window's raster.
        """
        from ..features.dct import feature_tensor_batch

        plane = np.asarray(plane, dtype=np.float64)
        return feature_tensor_batch(
            plane[None], self.extractor.block, self.extractor.keep
        )[0]

    @shaped("(n,c,h,w)->(n,):float64")
    def predict_proba_features(self, feats: np.ndarray) -> np.ndarray:
        """Score pre-extracted feature tensors (plane slices)."""
        if self.model is None:
            raise RuntimeError("CNNDetector not fitted")
        feats = np.asarray(feats, dtype=np.float64)
        if len(feats) == 0:
            return np.empty(0, dtype=np.float64)
        return self._predict_array(feats)

    # ------------------------------------------------------------------
    # persistence: model weights + detector config/threshold in one npz
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Save weights, running stats, threshold and architecture dims."""
        if self.model is None:
            raise RuntimeError("cannot save an unfitted CNNDetector")
        state = self.model.state_arrays()
        state["__threshold"] = np.array([self.threshold])
        state["__backend"] = np.array(self.config.backend)
        state["__arch"] = np.array(
            [
                self.config.dct_block,
                self.config.dct_keep,
                self.config.width,
                self._fitted_grid,
            ]
        )
        np.savez_compressed(path, **state)

    @classmethod
    def load(cls, path) -> "CNNDetector":
        """Rebuild a fitted detector from :meth:`save` output."""
        with np.load(path) as data:
            state = {k: data[k] for k in data.files}
        block, keep, width, grid = (int(v) for v in state.pop("__arch"))
        threshold = float(state.pop("__threshold")[0])
        backend = str(state.pop("__backend", "layers"))
        det = cls(
            CNNDetectorConfig(
                dct_block=block, dct_keep=keep, width=width, backend=backend
            )
        )
        det.model = build_feature_tensor_cnn(
            keep * keep, grid, rng=np.random.default_rng(0), width=width
        )
        det.model.load_state_arrays(state)
        det.model.train_mode(False)
        det.threshold = threshold
        det._fitted_grid = grid
        return det


class BinaryCNNDetector(CNNDetector):
    """Binarized-weight twin of :class:`CNNDetector` (TCAD'21 direction).

    Same input representation and training recipe; the convolutional body
    and the first dense layer are weight-binarized with straight-through
    gradients.  Note that :meth:`CNNDetector.save`/:meth:`load` are not
    supported for the binary variant (the architectures differ).
    """

    name = "bnn-dct"

    def _build_model(
        self, channels: int, grid: int, rng: np.random.Generator
    ) -> Sequential:
        from .binary import build_binary_cnn

        return build_binary_cnn(channels, grid, rng=rng, width=self.config.width)

    def save(self, path) -> None:  # pragma: no cover - explicit unsupport
        raise NotImplementedError("BinaryCNNDetector persistence not supported")

    @classmethod
    def load(cls, path):  # pragma: no cover - explicit unsupport
        raise NotImplementedError("BinaryCNNDetector persistence not supported")


@dataclass
class RasterCNNDetectorConfig:
    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-3
    pixel_nm: int = 8
    upsample_ratio: Optional[float] = 0.5
    width: int = 8
    backend: str = "layers"  # "layers" | "fused" | "fused-int8"


class RasterCNNDetector(InferBackendMixin, Detector):
    """CNN on the raw clip raster (the no-DCT ablation arm)."""

    name = "cnn-raster"

    def __init__(self, config: Optional[RasterCNNDetectorConfig] = None) -> None:
        self.config = config or RasterCNNDetectorConfig()
        if self.config.backend not in BACKENDS:
            raise ValueError(
                f"unknown inference backend {self.config.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        self.model: Optional[Sequential] = None
        self._plan = None
        self._calibration_x = None

    def _vectorize(self, clips: Sequence[Clip]) -> np.ndarray:
        from ..geometry.rasterize import rasterize_clip

        rasters = [
            rasterize_clip(clip, self.config.pixel_nm, antialias=True)
            for clip in clips
        ]
        return np.stack(rasters)[:, None, :, :]

    def fit(
        self, train: ClipDataset, rng: Optional[np.random.Generator] = None
    ) -> FitReport:
        cfg = self.config
        rng = rng or np.random.default_rng(0)
        t0 = time.perf_counter()
        self._plan = None  # new weights invalidate any compiled plan
        self._calibration_x = None
        if cfg.upsample_ratio is not None and train.n_hotspots > 0:
            train = upsample_minority(train, rng, target_ratio=cfg.upsample_ratio)
        x = self._vectorize(train.clips)
        y = train.labels
        # no held-out split here; gate int8 against training inputs
        self._calibration_x = x[:_MAX_CALIBRATION]
        self.model = build_raster_cnn(x.shape[-1], rng=rng, width=cfg.width)
        trainer = Trainer(
            TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr),
            class_weights=class_weights(y),
        )
        trainer.fit(self.model, x, y, rng)
        # an eval pass drops the last training batch's backward caches
        predict_proba(self.model, x[:1])
        return FitReport(
            train_seconds=time.perf_counter() - t0, n_train=len(train)
        )

    @shaped("[n]->(n,):float64")
    def predict_proba(self, clips: Sequence[Clip]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("RasterCNNDetector not fitted")
        if len(clips) == 0:
            return np.empty(0, dtype=np.float64)
        return self._predict_array(self._vectorize(clips), batch_size=32)

    @shaped("(n,h,w)->(n,):float64")
    def predict_proba_rasters(self, rasters: np.ndarray) -> np.ndarray:
        """Score pre-rendered window rasters directly (no re-rasterize)."""
        if self.model is None:
            raise RuntimeError("RasterCNNDetector not fitted")
        rasters = np.asarray(rasters, dtype=np.float64)
        if len(rasters) == 0:
            return np.empty(0, dtype=np.float64)
        return self._predict_array(rasters[:, None, :, :], batch_size=32)

    @property
    def raster_pixel_nm(self) -> int:
        """Pixel pitch the raster-plane scan must rasterize at."""
        return int(self.config.pixel_nm)


register("cnn-dct", CNNDetector)
register("cnn-raster", RasterCNNDetector)
register("bnn-dct", BinaryCNNDetector)
