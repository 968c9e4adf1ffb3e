"""Feature extraction interfaces.

A ``FeatureExtractor`` maps a :class:`~repro.geometry.layout.Clip` to a
numpy array — a flat vector for the shallow learners, or a
``(C, H, W)`` tensor for the CNNs.  Extractors are stateless and
deterministic; ``CachingExtractor`` memoizes per-clip results (clips are
frozen/hashable) behind a bounded LRU so repeated evaluation passes don't
recompute and long scans can't grow memory without limit.

Extractors that only look at the rasterized window (density grids, DCT
tensors, HOG) additionally implement ``extract_raster`` — feature array
from a pre-rendered ``(H, W)`` raster — which unlocks the batched
``extract_batch`` API the raster-plane scan path feeds with window slices
of a shared :class:`~repro.geometry.rasterize.RasterPlane`.  Extractors
that need the clip geometry itself (squish, CCAS) simply don't override
it and report ``supports_rasters == False``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..contracts import shaped
from ..counters import BoundedLRU
from ..geometry.layout import Clip


class FeatureExtractor(ABC):
    """Maps clips to fixed-shape numpy feature arrays."""

    #: human-readable identifier used in tables and registries
    name: str = "base"

    @abstractmethod
    def extract(self, clip: Clip) -> np.ndarray:
        """Feature array for one clip (shape fixed per extractor)."""

    @shaped("[n]->(n,...)")
    def extract_many(self, clips: Sequence[Clip]) -> np.ndarray:
        """Stacked features, shape ``(n,) + feature_shape``.

        An empty clip list returns a correctly-shaped ``(0, ...)`` array
        (falling back to ``(0,)`` when the feature shape needs a clip to
        probe), so batch callers never need an emptiness guard.
        """
        if not clips:
            return np.zeros((0,) + self._empty_feature_shape(), dtype=np.float64)
        return np.stack([self.extract(clip) for clip in clips])

    def _empty_feature_shape(self) -> tuple:
        """Per-item shape for empty batches; ``()`` when unknowable."""
        try:
            return tuple(self.feature_shape)
        except NotImplementedError:
            return ()

    @property
    def feature_shape(self) -> tuple:
        """Shape of one clip's features (probed lazily via a dummy call)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # raster-plane scan support
    # ------------------------------------------------------------------
    def extract_raster(self, raster: np.ndarray) -> np.ndarray:
        """Feature array from a pre-rendered ``(H, W)`` window raster.

        Raster-capable extractors override this with the same function
        their ``extract`` applies after rasterizing, so a window slice of
        a shared raster plane yields the same features as the clip path.
        """
        raise NotImplementedError(
            f"{self.name} features need clip geometry, not just a raster"
        )

    @property
    def supports_rasters(self) -> bool:
        """True when this extractor can work from pre-rendered rasters."""
        return type(self).extract_raster is not FeatureExtractor.extract_raster

    @shaped("(n,*,*)->(n,...)")
    def extract_batch(self, rasters: np.ndarray) -> np.ndarray:
        """Stacked features for a ``(n, H, W)`` raster stack.

        Vectorized overrides (DCT, density) transform the whole stack in
        a few numpy/scipy calls; this generic fallback loops
        ``extract_raster`` and exists so every raster-capable extractor
        has the batch API.
        """
        rasters = np.asarray(rasters)
        if len(rasters) == 0:
            return np.zeros((0,) + self._empty_feature_shape(), dtype=np.float64)
        return np.stack([self.extract_raster(r) for r in rasters])


class CachingExtractor(FeatureExtractor, BoundedLRU):
    """Bounded LRU memoizing wrapper around another extractor.

    Shares :class:`~repro.runtime.cache.ScoreCache`'s map, eviction
    policy (least-recently-used beyond ``max_entries``) and hit/miss/
    eviction counters (:class:`repro.counters.BoundedLRU`), so long
    scans can be profiled and can't grow memory without limit.
    """

    def __init__(self, inner: FeatureExtractor, max_entries: int = 50_000) -> None:
        self.inner = inner
        self.name = f"cached({inner.name})"
        BoundedLRU.__init__(self, max_entries, label=self.name)

    def extract(self, clip: Clip) -> np.ndarray:
        cached = self.get(clip)
        if cached is None:
            cached = self.inner.extract(clip)
            self.put(clip, cached)
        return cached

    # raster calls are already batch-shaped; pass them through uncached
    def extract_raster(self, raster: np.ndarray) -> np.ndarray:
        return self.inner.extract_raster(raster)

    @property
    def supports_rasters(self) -> bool:
        return self.inner.supports_rasters

    def extract_batch(self, rasters: np.ndarray) -> np.ndarray:
        return self.inner.extract_batch(rasters)

    @property
    def feature_shape(self) -> tuple:
        return self.inner.feature_shape


class Standardizer:
    """Per-dimension (x - mean) / std scaling fitted on training features."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "Standardizer":
        self.mean_ = features.mean(axis=0)
        std = features.std(axis=0)
        self.std_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("Standardizer not fitted")
        return (features - self.mean_) / self.std_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)
