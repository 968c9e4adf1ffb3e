"""Shared fixtures: deterministic RNGs, canonical clips, tiny datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ClipDataset
from repro.geometry import Clip, Layer, Rect, extract_clip

WINDOW = 768
CORE = 256
CENTER = (600, 600)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def clip_from_rects(rects, tag="test") -> Clip:
    """Build a clip centered at CENTER from absolute-coordinate rects."""
    layer = Layer("metal1")
    layer.add_rects(list(rects))
    return extract_clip(layer, CENTER, WINDOW, CORE, tag=tag)


def make_grating_clip() -> Clip:
    """Comfortable 64/128 vertical grating through the window."""
    rects = [Rect(88 + i * 128, 100, 88 + i * 128 + 64, 1100) for i in range(8)]
    return clip_from_rects(rects, tag="grating")


def make_tip_pair_clip() -> Clip:
    """Two wires facing tip-to-tip with a 64 nm gap at the center."""
    return clip_from_rects(
        [Rect(96, 568, 568, 632), Rect(632, 568, 1104, 632)], tag="tips"
    )


def make_empty_clip() -> Clip:
    """A clip with no shapes at all."""
    window = Rect(0, 0, WINDOW, WINDOW)
    core = Rect.from_center(WINDOW // 2, WINDOW // 2, CORE, CORE)
    return Clip(window=window, core=core, rects=(), tag="empty")


@pytest.fixture
def grating_clip() -> Clip:
    return make_grating_clip()


@pytest.fixture
def tip_pair_clip() -> Clip:
    return make_tip_pair_clip()


@pytest.fixture
def empty_clip() -> Clip:
    return make_empty_clip()


def synthetic_labeled_clips(rng: np.random.Generator, n: int = 40):
    """Tiny clip population with *geometric* (non-litho) labels.

    Dense gratings (spacing 48) are labeled hotspot, sparse ones (spacing
    128) are not — a separable toy task for learner plumbing tests that
    avoids the cost of oracle labeling.
    """
    clips, labels = [], []
    for i in range(n):
        hot = bool(rng.integers(2))
        space = 48 if hot else 128
        width = 64
        pitch = width + space
        offset = int(rng.integers(0, 4)) * 32
        rects = [
            Rect(offset + 100 + k * pitch, 100, offset + 100 + k * pitch + width, 1100)
            for k in range(10)
        ]
        clips.append(clip_from_rects(rects, tag=f"synthetic{i}"))
        labels.append(int(hot))
    return clips, np.asarray(labels, dtype=np.int64)


@pytest.fixture
def tiny_dataset(rng) -> ClipDataset:
    clips, labels = synthetic_labeled_clips(rng, n=40)
    return ClipDataset(name="tiny", clips=clips, labels=labels)
