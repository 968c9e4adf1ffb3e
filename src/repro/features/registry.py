"""Name -> extractor factory registry.

Mirrors :mod:`repro.core.registry` for feature extractors so tooling —
the conformance harness, property tests, benchmarks — can enumerate
every canonical extractor configuration instead of hard-coding lists.
:mod:`repro.features` registers the standard configurations at import
time.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import FeatureExtractor

_REGISTRY: Dict[str, Callable[[], FeatureExtractor]] = {}


def register_extractor(
    name: str, factory: Callable[[], FeatureExtractor]
) -> None:
    """Register an extractor factory under ``name`` (no-arg callable)."""
    if name in _REGISTRY:
        raise KeyError(f"extractor {name!r} already registered")
    _REGISTRY[name] = factory


def create_extractor(name: str) -> FeatureExtractor:
    """Instantiate a registered extractor."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown extractor {name!r}; available: {available_extractors()}"
        ) from None
    return factory()


def available_extractors() -> List[str]:
    return sorted(_REGISTRY)
