"""Tests for defect analysis: bridges, opens, necks, spots, EPE."""

import numpy as np
import pytest

from repro.litho import (
    Defect,
    DesignState,
    EdgeProbes,
    EdgeSite,
    design_components,
    find_bridges,
    find_epe_defects,
    find_necks,
    find_opens,
    find_spots,
    measure_epe,
    printed_components,
)


def two_wires(h=32, w=32, gap_cols=(14, 18)):
    """Design with two vertical wires and the labels grid."""
    design = np.zeros((h, w))
    design[:, 8 : gap_cols[0]] = 1.0
    design[:, gap_cols[1] : 24] = 1.0
    labels, count = design_components(design)
    assert count == 2
    return design, labels


class TestDefect:
    def test_in_box(self):
        d = Defect("neck", row=5, col=7, severity=0.2)
        assert d.in_box(0, 0, 10, 10)
        assert not d.in_box(6, 0, 10, 10)
        assert not d.in_box(0, 0, 10, 7)


class TestBridges:
    def test_no_bridge_when_prints_separate(self):
        design, labels = two_wires()
        printed = design > 0.5
        assert find_bridges(labels, printed) == []

    def test_bridge_detected(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[15:17, 13:19] = True  # material crossing the gap
        defects = find_bridges(labels, printed)
        assert len(defects) == 1
        d = defects[0]
        assert d.kind == "bridge"
        assert 13 <= d.col <= 18 and 14 <= d.row <= 17

    def test_bridge_marker_at_gap_material(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[15:17, 14:18] = True
        d = find_bridges(labels, printed)[0]
        assert labels[d.row, d.col] == 0  # marker on bridge material


class TestOpens:
    def test_intact_wire_clean(self):
        design, labels = two_wires()
        assert find_opens(labels, design > 0.5) == []

    def test_vanished_wire(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[:, 8:14] = False  # left wire gone
        defects = find_opens(labels, printed)
        assert len(defects) == 1
        assert defects[0].kind == "open"

    def test_broken_wire(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[15:17, 8:14] = False  # cut through the left wire
        defects = find_opens(labels, printed)
        assert len(defects) == 1
        assert 15 <= defects[0].row <= 16


class TestNecks:
    def test_full_print_clean(self):
        design, labels = two_wires()
        assert find_necks(labels, design > 0.5, min_width_ratio=0.7) == []

    def test_thinned_region_flagged(self):
        design, labels = two_wires()
        printed = design > 0.5
        # thin the left wire (cols 8..13) down to 2 of 6 columns mid-span
        printed[14:18, 8:10] = False
        printed[14:18, 12:14] = False
        defects = find_necks(labels, printed, min_width_ratio=0.7)
        assert any(d.kind == "neck" for d in defects)

    def test_exclusion_mask_suppresses(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[14:18, 8:10] = False
        printed[14:18, 12:14] = False
        exclude = np.ones_like(printed, dtype=bool)
        assert find_necks(labels, printed, 0.7, exclude=exclude) == []

    def test_empty_design(self):
        labels = np.zeros((8, 8), dtype=np.int64)
        assert find_necks(labels, np.zeros((8, 8), dtype=bool)) == []

    def test_edge_to_edge_print_has_no_necks(self):
        """A print with no background pixel has no width to measure; the
        distance transform of it reads distances to a pixel beyond row 0,
        which made a wire on the left border look necked."""
        design = np.zeros((32, 32))
        design[:, 0:6] = 1.0
        labels, _ = design_components(design)
        printed = np.ones_like(design, dtype=bool)
        assert find_necks(labels, printed, min_width_ratio=0.7) == []


class TestSpots:
    def test_no_extra_printing(self):
        design, labels = two_wires()
        assert find_spots(labels, design > 0.5) == []

    def test_blob_in_clear_area(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[4:7, 27:30] = True  # floating blob far from any wire
        defects = find_spots(labels, printed, margin_px=1, min_area_px=2)
        assert len(defects) == 1
        assert defects[0].kind == "spot"
        assert defects[0].severity == 9.0

    def test_small_blob_below_area_ignored(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[5, 28] = True
        assert find_spots(labels, printed, margin_px=1, min_area_px=2) == []

    def test_edge_bulge_absorbed_by_margin(self):
        design, labels = two_wires()
        printed = design > 0.5
        printed[:, 7] = True  # 1-px bulge along the wire's left wall
        assert find_spots(labels, printed, margin_px=1, min_area_px=2) == []


class TestEPE:
    def _ramp_intensity(self, h=16, w=32, edge_col=16.0, slope=0.1):
        """Intensity ramping across columns, crossing 0.5 at edge_col."""
        cols = np.arange(w, dtype=float)
        row = 0.5 + slope * (edge_col - cols)
        return np.tile(row, (h, 1))

    def test_zero_epe_at_exact_edge(self):
        intensity = self._ramp_intensity(edge_col=16.0)
        sites = [EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))]
        (epe,) = measure_epe(intensity, sites, threshold=0.5)
        assert epe == pytest.approx(0.0, abs=0.05)

    def test_positive_epe_when_print_bulges(self):
        intensity = self._ramp_intensity(edge_col=20.0)
        sites = [EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))]
        (epe,) = measure_epe(intensity, sites, threshold=0.5)
        assert epe == pytest.approx(4.0, abs=0.1)

    def test_negative_epe_when_print_recedes(self):
        intensity = self._ramp_intensity(edge_col=12.0)
        sites = [EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))]
        (epe,) = measure_epe(intensity, sites, threshold=0.5)
        assert epe == pytest.approx(-4.0, abs=0.1)

    def test_no_crossing_saturates(self):
        intensity = np.full((16, 32), 0.9)
        sites = [EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))]
        (epe,) = measure_epe(intensity, sites, threshold=0.5, max_px=6.0)
        assert epe == 6.0
        intensity[:] = 0.1
        (epe,) = measure_epe(intensity, sites, threshold=0.5, max_px=6.0)
        assert epe == -6.0

    def test_probe_clipped_by_border_reads_its_valid_samples(self):
        """A site 3 px inside the left border probes only t >= -3."""
        intensity = self._ramp_intensity(edge_col=5.0)
        sites = [EdgeSite(row=8.0, col=3.0, normal=(0.0, 1.0))]
        (epe,) = measure_epe(intensity, sites, threshold=0.5)
        assert epe == pytest.approx(2.0, abs=1e-9)
        # the same wall seen from the right border, normal pointing out
        flipped = intensity[:, ::-1].copy()
        sites = [EdgeSite(row=8.0, col=28.0, normal=(0.0, -1.0))]
        (epe,) = measure_epe(flipped, sites, threshold=0.5)
        assert epe == pytest.approx(2.0, abs=1e-9)

    def test_probe_with_fewer_than_two_valid_samples_reads_zero(self):
        intensity = self._ramp_intensity()
        one_sample = EdgeSite(row=8.0, col=-12.0, normal=(0.0, 1.0))  # t=12 only
        outside = EdgeSite(row=-3.0, col=16.0, normal=(0.0, 1.0))
        inside = EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))
        epes = measure_epe(intensity, [one_sample, outside, inside], 0.5)
        assert epes[:2] == [0.0, 0.0]
        assert epes[2] == pytest.approx(0.0, abs=0.05)
        # a zero-length probe has one sample wherever it sits
        assert measure_epe(intensity, [inside], 0.5, max_px=0.0) == [0.0]

    def test_clipped_probe_without_crossing_saturates(self):
        intensity = np.full((16, 32), 0.9)
        sites = [
            EdgeSite(row=8.0, col=1.0, normal=(0.0, 1.0)),
            EdgeSite(row=14.5, col=16.0, normal=(1.0, 0.0)),
        ]
        assert measure_epe(intensity, sites, 0.5, max_px=6.0) == [6.0, 6.0]
        intensity[:] = 0.1
        assert measure_epe(intensity, sites, 0.5, max_px=6.0) == [-6.0, -6.0]

    def test_crossing_on_a_sample_interpolates_exactly(self):
        """Crossings at fraction 0 and 1 of a sample step land on samples."""
        intensity = np.ones((16, 32))
        intensity[:, 15:18] = 0.0  # print dips to 0 around the site
        sites = [EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))]
        # samples every 0.25 px: 0.5 (on threshold) at t=-1.5 and t=+1.5
        (epe,) = measure_epe(intensity, sites, threshold=0.5)
        assert abs(epe) == 1.5

    def test_equidistant_crossings_first_wins(self):
        """Crossings at t=-1.5 and t=+1.5: the one met first is kept."""
        intensity = np.ones((16, 32))
        intensity[:, 15:18] = 0.0
        right = [EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))]
        left = [EdgeSite(row=8.0, col=16.0, normal=(0.0, -1.0))]
        assert measure_epe(intensity, right, threshold=0.5) == [-1.5]
        assert measure_epe(intensity, left, threshold=0.5) == [-1.5]
        down = [EdgeSite(row=16.0, col=8.0, normal=(1.0, 0.0))]
        assert measure_epe(intensity.T.copy(), down, threshold=0.5) == [-1.5]

    def test_sites_measured_together_match_one_at_a_time(self):
        """Batching sites into one probe pass changes no bit of any EPE."""
        rng = np.random.default_rng(7)
        raw = rng.random((24, 20))
        intensity = (raw + np.roll(raw, 1, 0) + np.roll(raw, 1, 1)) / 3.0
        normals = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        sites = [
            EdgeSite(
                row=float(rng.integers(-2, 26)) + rng.choice([0.0, 0.5]),
                col=float(rng.integers(-2, 22)) + rng.choice([0.0, 0.5]),
                normal=normals[k % 4],
                kind="cap" if k % 3 == 0 else "side",
            )
            for k in range(80)
        ]
        together = measure_epe(intensity, sites, threshold=0.5, max_px=6.0)
        alone = [
            measure_epe(intensity, [s], threshold=0.5, max_px=6.0)[0]
            for s in sites
        ]
        assert together == alone
        assert len(set(together)) > 10  # crossings, not just saturation

    def test_epe_defects_respect_kind_limits(self):
        intensity = self._ramp_intensity(edge_col=12.0)  # -4 px everywhere
        sites = [
            EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0), kind="side"),
            EdgeSite(row=9.0, col=16.0, normal=(0.0, 1.0), kind="cap"),
        ]
        defects = find_epe_defects(
            intensity, sites, threshold=0.5, epe_limit_px=3.0, cap_limit_px=5.0
        )
        # side site violates its 3px limit; cap site tolerates 4px
        assert len(defects) == 1
        assert defects[0].row == 8


class TestRulesOnSharedState:
    """Each rule reads the design side from a ``DesignState`` built once.

    The per-print loops below are the rules as first written (one pass per
    component and blob); the shared-state rules must give the same defects
    in the same order, bit for bit, and a state reused across prints and
    parameters must give what a fresh label grid gives.
    """

    @staticmethod
    def loop_bridges(labels, printed):
        plabels, n = printed_components(printed)
        out = []
        for comp in range(1, n + 1):
            mask = plabels == comp
            touched = np.unique(labels[mask])
            if len(touched[touched != 0]) < 2:
                continue
            px = mask & (labels == 0)
            rows, cols = np.nonzero(px if px.any() else mask)
            out.append(Defect("bridge", int(round(rows.mean())), int(round(cols.mean())), float(len(rows))))
        return out

    @staticmethod
    def loop_opens(labels, printed):
        out = []
        for comp in range(1, int(labels.max()) + 1):
            footprint = labels == comp
            inside = printed & footprint
            if not inside.any():
                rows, cols = np.nonzero(footprint)
                out.append(Defect("open", int(round(rows.mean())), int(round(cols.mean())), float(footprint.sum())))
                continue
            _, pieces = printed_components(inside)
            if pieces > 1:
                gap = footprint & ~printed
                rows, cols = np.nonzero(gap if gap.any() else footprint)
                out.append(Defect("open", int(round(rows.mean())), int(round(cols.mean())), float(pieces)))
        return out

    @staticmethod
    def loop_necks(labels, printed, ratio_min, frac, exclude):
        from scipy import ndimage

        s4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
        edt_d = ndimage.distance_transform_edt(labels > 0)
        edt_p = ndimage.distance_transform_edt(printed)
        out = []
        for comp in range(1, int(labels.max()) + 1):
            footprint = labels == comp
            d = np.where(footprint, edt_d, 0.0)
            center = footprint & (d >= frac * d.max()) & ~exclude
            ratio = np.where(center, edt_p / np.maximum(d, 1e-9), np.inf)
            thin = center & (ratio < ratio_min) & printed
            blobs, n = ndimage.label(thin, structure=s4)
            for b in range(1, n + 1):
                rows, cols = np.nonzero(blobs == b)
                out.append(Defect("neck", int(round(rows.mean())), int(round(cols.mean())), float(ratio[blobs == b].min())))
        return out

    @staticmethod
    def random_case(rng):
        from scipy import ndimage

        design = np.zeros((40, 40))
        for _ in range(int(rng.integers(3, 8))):
            r, c = rng.integers(0, 34, size=2)
            h, w = rng.integers(3, 14, size=2)
            design[r : r + h, c : c + w] = 1.0
        printed = ndimage.binary_dilation(design > 0.5, iterations=int(rng.integers(0, 2)))
        printed ^= rng.random(printed.shape) < 0.06
        return design, printed

    def test_rules_match_per_component_loops(self):
        rng = np.random.default_rng(11)
        fired = set()
        for _ in range(60):
            design, printed = self.random_case(rng)
            labels, _ = design_components(design)
            state = DesignState(labels)
            exclude = rng.random(printed.shape) < 0.05
            bridges = find_bridges(state, printed)
            assert bridges == self.loop_bridges(labels, printed)
            opens = find_opens(state, printed)
            assert opens == self.loop_opens(labels, printed)
            necks = find_necks(state, printed, 0.6, 0.8, exclude)
            assert necks == self.loop_necks(labels, printed, 0.6, 0.8, exclude)
            fired |= {d.kind for d in bridges + opens + necks}
        assert fired == {"bridge", "open", "neck"}

    def test_reused_state_matches_fresh_label_grid(self):
        rng = np.random.default_rng(12)
        design, _ = self.random_case(rng)
        labels, _ = design_components(design)
        state = DesignState(labels)
        for _ in range(10):
            _, printed = self.random_case(rng)
            for margin in (0, 1, 2):
                assert find_spots(state, printed, margin) == find_spots(labels, printed, margin)
            for frac in (0.5, 0.8):
                assert find_necks(state, printed, 0.7, frac) == find_necks(
                    labels, printed, 0.7, frac
                )
            assert find_bridges(state, printed) == find_bridges(labels, printed)
            assert find_opens(state, printed) == find_opens(labels, printed)

    def test_probes_rebuild_for_other_probe_settings(self):
        intensity = TestEPE()._ramp_intensity(edge_col=20.0)
        sites = [EdgeSite(row=8.0, col=16.0, normal=(0.0, 1.0))]
        probes = EdgeProbes(sites, intensity.shape)
        assert measure_epe(intensity, probes, 0.5) == measure_epe(intensity, sites, 0.5)
        assert measure_epe(intensity, probes, 0.5, max_px=3.0) == [3.0]
