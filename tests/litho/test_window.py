"""Tests for process-window metrics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.geometry import Rect
from repro.litho import (
    HotspotOracle,
    ImagingSettings,
    ProcessWindow,
    process_window,
    severity_score,
)

from ..conftest import clip_from_rects


@pytest.fixture(scope="module")
def oracle():
    return HotspotOracle()


DOSES = (0.92, 1.0, 1.08)
DEFOCUS = (0.0, 32.0)


class TestProcessWindowDataclass:
    def test_ratio(self):
        passes = np.array([[True, True, False], [True, False, False]])
        pw = ProcessWindow(DOSES, DEFOCUS, passes)
        assert pw.ratio == pytest.approx(3 / 6)

    def test_dose_latitude_contiguous(self):
        passes = np.array([[True, True, False]])
        pw = ProcessWindow(DOSES, (0.0,), passes)
        assert pw.dose_latitude(0) == pytest.approx(1.0 - 0.92)

    def test_dose_latitude_zero_when_all_fail(self):
        passes = np.zeros((1, 3), dtype=bool)
        pw = ProcessWindow(DOSES, (0.0,), passes)
        assert pw.dose_latitude(0) == 0.0

    def test_dose_latitude_full_row(self):
        passes = np.ones((1, 3), dtype=bool)
        pw = ProcessWindow(DOSES, (0.0,), passes)
        assert pw.dose_latitude(0) == pytest.approx(1.08 - 0.92)


class TestProcessWindowEvaluation:
    def test_comfortable_pattern_wide_window(self, oracle, grating_clip):
        pw = process_window(
            grating_clip, oracle, doses=DOSES, defocus_values_nm=DEFOCUS
        )
        assert pw.ratio == 1.0
        assert severity_score(pw) == 0.0

    def test_marginal_pattern_narrow_window(self, oracle):
        clip = clip_from_rects(
            [Rect(504, 96, 568, 1104), Rect(608, 96, 672, 1104)]  # 40nm gap
        )
        pw = process_window(clip, oracle, doses=DOSES, defocus_values_nm=DEFOCUS)
        assert pw.ratio < 1.0
        assert severity_score(pw) > 0.0

    def test_grid_shape(self, oracle, grating_clip):
        pw = process_window(
            grating_clip, oracle, doses=DOSES, defocus_values_nm=DEFOCUS
        )
        assert pw.passes.shape == (len(DEFOCUS), len(DOSES))

    def test_severity_orders_patterns(self, oracle):
        """Severity grades marginality beyond the binary label."""
        tight = clip_from_rects(
            [Rect(504, 96, 568, 1104), Rect(608, 96, 672, 1104)]  # 40nm
        )
        comfortable = clip_from_rects(
            [Rect(472, 96, 536, 1104), Rect(632, 96, 696, 1104)]  # 96nm
        )
        s_tight = severity_score(
            process_window(tight, oracle, doses=DOSES, defocus_values_nm=DEFOCUS)
        )
        s_comf = severity_score(
            process_window(
                comfortable, oracle, doses=DOSES, defocus_values_nm=DEFOCUS
            )
        )
        assert s_tight > s_comf


#: two 40 nm wires tip to tip across a 32 nm gap: a cap-EPE defect decides
#: several grid points that the other rules pass
TIPS = [Rect(216, 576, 608, 616), Rect(640, 576, 984, 616)]


class TestGridMatchesSingleCorners:
    @pytest.mark.parametrize("epe_sites", [False, True])
    def test_each_point_is_the_single_corner_verdict(self, epe_sites):
        base = HotspotOracle(epe_sites=epe_sites)
        clip = clip_from_rects(TIPS)
        doses = (0.94, 1.0, 1.06)
        pw = process_window(clip, base, doses=doses, defocus_values_nm=DEFOCUS)
        expected = [
            [
                not replace(
                    base,
                    corners=(ImagingSettings(pixel_nm=8, dose=d, defocus_nm=f),),
                ).analyze(clip).is_hotspot
                for d in doses
            ]
            for f in DEFOCUS
        ]
        assert pw.passes.tolist() == expected

    def test_oracle_settings_carry_over(self):
        """Without EPE sites the tip pair keeps points that EPE fails."""
        clip = clip_from_rects(TIPS)
        doses = (0.94, 1.0, 1.06)
        kw = dict(doses=doses, defocus_values_nm=DEFOCUS)
        without = process_window(clip, HotspotOracle(epe_sites=False), **kw)
        with_epe = process_window(clip, HotspotOracle(), **kw)
        assert without.ratio > with_epe.ratio
