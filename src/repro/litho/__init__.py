"""Approximate lithography simulation: the golden labeling substrate.

The stack mirrors a production flow in miniature:

1. :class:`OpticalSystem` (:mod:`~repro.litho.kernels`) — SOCS-style
   Gaussian kernel mixture approximating partially coherent imaging,
2. :func:`aerial_image` (:mod:`~repro.litho.optics`) — mask raster to
   intensity,
3. :class:`ResistModel` (:mod:`~repro.litho.resist`) — constant-threshold
   development,
4. :mod:`~repro.litho.analysis` — bridge / open / neck / EPE measurement,
5. :class:`HotspotOracle` (:mod:`~repro.litho.hotspot`) — per-clip hotspot
   verdicts across process corners; labels the benchmarks,
6. :class:`LithoSimulator` (:mod:`~repro.litho.simulator`) — convenience
   facade for imaging, printing and process-window sweeps.
"""

from .analysis import (
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
)
from .hotspot import ClipAnalysis, HotspotOracle, calibrate_threshold, edge_sites_for_clip
from .kernels import OpticalSystem
from .optics import ImagingSettings, aerial_image
from .opc import OPCRules, add_hammerheads, bias_isolated_wires, correct_clip
from .resist import ResistModel, print_image, printed_components
from .simulator import LithoSimulator
from .multilayer import MetalViaAnalysis, ViaCoverage, analyze_metal_via
from .window import ProcessWindow, process_window, severity_score

__all__ = [
    "OpticalSystem",
    "ImagingSettings",
    "aerial_image",
    "ResistModel",
    "print_image",
    "printed_components",
    "Defect",
    "DesignState",
    "EdgeProbes",
    "EdgeSite",
    "design_components",
    "find_bridges",
    "find_opens",
    "find_necks",
    "find_spots",
    "find_epe_defects",
    "measure_epe",
    "HotspotOracle",
    "ClipAnalysis",
    "calibrate_threshold",
    "edge_sites_for_clip",
    "LithoSimulator",
    "OPCRules",
    "correct_clip",
    "bias_isolated_wires",
    "add_hammerheads",
    "ProcessWindow",
    "process_window",
    "severity_score",
    "MetalViaAnalysis",
    "ViaCoverage",
    "analyze_metal_via",
]
