"""Tests for the LithoSimulator facade."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.litho import LithoSimulator

from ..conftest import (
    clip_from_rects,
    make_empty_clip,
    make_grating_clip,
    make_tip_pair_clip,
)


@pytest.fixture(scope="module")
def sim():
    return LithoSimulator()


@pytest.fixture
def wire_clip():
    return clip_from_rects([Rect(96, 568, 1104, 632)])


class TestImaging:
    def test_image_shape(self, sim, wire_clip):
        image = sim.image(wire_clip)
        assert image.shape == (96, 96)

    def test_print_is_boolean(self, sim, wire_clip):
        printed = sim.print_clip(wire_clip)
        assert printed.dtype == bool

    def test_wire_prints_roughly_at_size(self, sim, wire_clip):
        printed = sim.print_clip(wire_clip)
        # design covers rows 44..52 (8 rows); the print should land close
        printed_rows = printed[:, 48].sum()
        assert 5 <= printed_rows <= 11

    def test_higher_dose_prints_superset(self, sim, wire_clip):
        low = sim.print_clip(wire_clip, dose=0.9)
        high = sim.print_clip(wire_clip, dose=1.1)
        assert (high | low == high).all()  # low-dose print is a subset

    def test_higher_dose_prints_more_on_marginal_gap(self, sim):
        """A 24nm tip gap gains printed pixels as dose rises (pre-bridge)."""
        clip = clip_from_rects(
            [Rect(96, 568, 588, 632), Rect(612, 568, 1104, 632)]
        )
        low = sim.print_clip(clip, dose=0.92).sum()
        high = sim.print_clip(clip, dose=1.08).sum()
        assert high > low

    def test_component_count(self, sim, grating_clip):
        from repro.geometry import merge_touching

        n_design = len(merge_touching(list(grating_clip.rects)))
        count = sim.printed_component_count(grating_clip)
        assert count == n_design  # every grating wire prints separately


class TestProcessWindow:
    def test_sweep_size(self, sim, wire_clip):
        sweep = sim.process_window(
            wire_clip, doses=(0.95, 1.0, 1.05), defocus_values_nm=(0.0, 30.0)
        )
        assert len(sweep) == 6
        for dose, defocus, printed in sweep:
            assert printed.dtype == bool

    def test_pv_band_nonempty_and_ring_shaped(self, sim, wire_clip):
        band = sim.pv_band(wire_clip)
        assert band.any(), "edges must move across the process window"
        nominal = sim.print_clip(wire_clip)
        # band pixels are disputed: not part of the always-printed core
        always = sim.print_clip(wire_clip, dose=0.9, defocus_nm=40.0)
        assert not (band & always & nominal).all()

    def test_pv_band_empty_for_empty_clip(self, sim, empty_clip):
        assert not sim.pv_band(empty_clip).any()

    @pytest.mark.parametrize(
        "make_clip",
        [make_grating_clip, make_tip_pair_clip, make_empty_clip],
        ids=["grating", "tip-pair", "empty"],
    )
    def test_sweep_and_band_equal_per_corner_prints(self, sim, make_clip):
        """One raster and one image per defocus change no bit."""
        clip = make_clip()
        doses = (0.9, 0.95, 1.0, 1.05, 1.1)
        defocus_values = (0.0, 20.0, 40.0)
        sweep = sim.process_window(clip, doses, defocus_values)
        corners = [(dose, f) for f in defocus_values for dose in doses]
        assert [(dose, f) for dose, f, _ in sweep] == corners
        prints = [sim.print_clip(clip, dose, f) for dose, f in corners]
        for (_, _, printed), expected in zip(sweep, prints):
            assert printed.tobytes() == expected.tobytes()
        stack = np.stack(prints)
        band = stack.any(axis=0) & ~stack.all(axis=0)
        assert sim.pv_band(clip).tobytes() == band.tobytes()

    def test_sweep_refuses_a_non_positive_dose(self, sim, wire_clip):
        with pytest.raises(ValueError, match="dose"):
            sim.process_window(wire_clip, doses=(1.0, 0.0))
