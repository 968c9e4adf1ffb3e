"""The oracle's verdicts, pinned bit for bit.

``HotspotOracle`` labels every benchmark, so any change to how it computes
must leave each ``ClipAnalysis`` exactly as it was: same defects, same
order, same severity bits.  This module pins ``repr(ClipAnalysis)`` of a
fixed clip set (the first 24 training clips of each of the five suites at
scale 0.35, plus the shared fixture clips) to the digests checked in
beside it, and checks that the set exercises every defect rule.

A failure names the clips whose analysis moved.  Regenerate the digests
(``python -m tests.litho.test_oracle_identity --write``) only for a change
that is meant to move verdicts, and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    DEFAULT_CORE_NM,
    DEFAULT_WINDOW_NM,
    SUITE_CONFIGS,
    generate_clips,
)
from repro.geometry import rasterize_clip
from repro.litho import HotspotOracle
from repro.litho.hotspot import edge_sites_for_clip, tip_zones_for_clip

from ..conftest import make_empty_clip, make_grating_clip, make_tip_pair_clip

DIGEST_PATH = Path(__file__).with_name("oracle_digest.json")
SUITE_SEED, SUITE_SCALE, PER_SUITE = 2012, 0.35, 24


def digest_clips():
    """Name -> clip for the pinned set, in a fixed order."""
    clips = {}
    for i, config in enumerate(SUITE_CONFIGS):
        # the suite's train split draws clips in order from this rng, so the
        # first PER_SUITE clips do not depend on the split's full size
        rng = np.random.default_rng(SUITE_SEED + 1000 * i)
        n = min(PER_SUITE, max(20, int(config.n_train * SUITE_SCALE)))
        drawn, _ = generate_clips(
            rng, config.mix, n, DEFAULT_WINDOW_NM, DEFAULT_CORE_NM
        )
        for k, clip in enumerate(drawn):
            clips[f"{config.name}/train/{k}"] = clip
    clips["grating"] = make_grating_clip()
    clips["tip_pair"] = make_tip_pair_clip()
    clips["empty"] = make_empty_clip()
    return clips


def clip_digest(analysis) -> str:
    return hashlib.sha256(repr(analysis).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def analyses():
    oracle = HotspotOracle()
    return {name: oracle.analyze(clip) for name, clip in digest_clips().items()}


def test_analyses_match_pinned_digests(analyses):
    pinned = json.loads(DIGEST_PATH.read_text())
    assert sorted(pinned["clips"]) == sorted(analyses)
    moved = [
        name
        for name, analysis in analyses.items()
        if clip_digest(analysis) != pinned["clips"][name]
    ]
    assert not moved, f"{len(moved)} clip analyses changed: {moved[:10]}"


def test_pinned_set_exercises_every_defect_rule(analyses):
    """Every rule fires somewhere in the set, EPE at side and cap sites."""
    oracle = HotspotOracle()
    clips = digest_clips()
    seen = set()
    for name, analysis in analyses.items():
        clip = clips[name]
        design = rasterize_clip(clip, oracle.pixel_nm, antialias=True)
        zones = tip_zones_for_clip(
            clip, design, oracle.pixel_nm, oracle.tip_margin_nm
        )
        site_kinds = defaultdict(set)
        for site in edge_sites_for_clip(
            clip, design, oracle.pixel_nm, tip_zones=zones
        ):
            site_kinds[(int(round(site.row)), int(round(site.col)))].add(site.kind)
        for defects in analysis.corner_defects:
            for d in defects:
                if d.kind == "epe":
                    seen.update(f"epe-{k}" for k in site_kinds[(d.row, d.col)])
                else:
                    seen.add(d.kind)
    assert {"bridge", "open", "spot", "neck", "epe-side", "epe-cap"} <= seen
    assert any(a.is_hotspot for a in analyses.values())
    assert not all(a.is_hotspot for a in analyses.values())


def write_digests() -> None:
    oracle = HotspotOracle()
    clips = {
        name: clip_digest(oracle.analyze(clip))
        for name, clip in digest_clips().items()
    }
    DIGEST_PATH.write_text(json.dumps({"clips": clips}, indent=1) + "\n")
    print(f"wrote {len(clips)} digests to {DIGEST_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.litho.test_oracle_identity --write")
    write_digests()
