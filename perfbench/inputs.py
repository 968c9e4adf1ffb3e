"""Training data, detectors and seeded layouts, built in-process per run.

Nothing here reads or writes a cache: every run labels its training
split, fits its detectors and generates its layouts from scratch, so
set-up time does not depend on what an earlier run left on disk.

Layouts are placements of a fixed library of routed cells.  The
workload seed decides where each cell goes (and which cells a served
job scans, and where an edit lands); the cell contents stay the same.
Drawing fresh cell contents per seed moved the number of flagged
windows of the 4x4 chip by 15% between seeds (IQR over ten seeds),
which swamps any code change; a seeded placement of fixed cells moves
it by ~4%, while windows straddling cell boundaries still differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: cell pitch of every generated layout (nm)
CELL_NM = 2048
#: scan geometry: the engine defaults
WINDOW_NM, CORE_NM = 768, 256
#: seed of the fixed cell library (not the workload seed)
LIBRARY_SEED = 2012
LIBRARY_SIZE = 64
#: the rect one_placement_edit adds (nm)
EDIT_W, EDIT_H = 304, 96

#: the training split every existing scan bench uses: B1 of the suite
#: at seed 2012, scale 0.35, labelled by the lithography oracle
SUITE_SEED, SUITE_SCALE = 2012, 0.35
FIT_SEED = 17


@dataclass
class Fitted:
    """Detectors of one set-up plus the time each phase took."""

    detectors: Dict[str, object]
    phase_s: Dict[str, float]


def training_split():
    """The oracle-labelled B1 training split (175 clips)."""
    from repro.api import ClipDataset, HotspotOracle
    from repro.data import (
        DEFAULT_CORE_NM,
        DEFAULT_WINDOW_NM,
        SUITE_CONFIGS,
        generate_clips,
    )

    config = SUITE_CONFIGS[0]
    n_train = max(20, int(config.n_train * SUITE_SCALE))
    clips, _specs = generate_clips(
        np.random.default_rng(SUITE_SEED), config.mix, n_train,
        DEFAULT_WINDOW_NM, DEFAULT_CORE_NM,
    )
    labels = HotspotOracle().label_many(clips)
    return ClipDataset(name=f"{config.name}/train", clips=clips, labels=labels)


def fit_detectors(names: Sequence[str]) -> Fitted:
    """Label the split, fit each named detector with rng 17, compile.

    ``cnn-dct`` runs on the ``fused`` backend, the production choice.
    """
    from repro.api import create

    phase_s: Dict[str, float] = {}
    t0 = time.perf_counter()
    train = training_split()
    phase_s["label"] = time.perf_counter() - t0
    detectors: Dict[str, object] = {}
    fit_s = compile_s = 0.0
    for name in names:
        t0 = time.perf_counter()
        detector = create(name)
        detector.fit(train, rng=np.random.default_rng(FIT_SEED))
        fit_s += time.perf_counter() - t0
        if name == "cnn-dct":
            t0 = time.perf_counter()
            detector.set_backend("fused")
            compile_s += time.perf_counter() - t0
        detectors[name] = detector
    phase_s["fit"] = fit_s
    phase_s["compile"] = compile_s
    return Fitted(detectors=detectors, phase_s=phase_s)


def cell_library() -> List[list]:
    """:data:`LIBRARY_SIZE` distinct routed cells, as cell-local rects."""
    from repro.data import RoutedBlockConfig, synthesize_routed_block
    from repro.geometry import Rect

    rng = np.random.default_rng(LIBRARY_SEED)
    config = RoutedBlockConfig(n_marginal=2, marginal_len_nm=400)
    cells = []
    for _ in range(LIBRARY_SIZE):
        layer, _seeded = synthesize_routed_block(
            rng, Rect(0, 0, CELL_NM, CELL_NM), config
        )
        cells.append([r for poly in layer.polygons for r in poly.rects])
    return cells


def place(cells: Sequence[list], nx: int, ny: int, order: Sequence[int]):
    """A layer with ``cells[order[k]]`` at grid slot ``k`` (row-major)."""
    from repro.geometry import Layer, Rect

    rects = []
    for k, index in enumerate(order[: nx * ny]):
        dx, dy = (k % nx) * CELL_NM, (k // nx) * CELL_NM
        rects.extend(r.translate(dx, dy) for r in cells[int(index)])
    layer = Layer("metal1")
    layer.add_rects(rects)
    return layer, Rect(0, 0, nx * CELL_NM, ny * CELL_NM)


def placed_chip(cells: Sequence[list], n: int, seed: int):
    """An ``n x n`` chip of the first ``n*n`` library cells, seeded order."""
    order = np.random.default_rng(seed).permutation(n * n)
    return place(cells, n, n, order)


def array_chip(cells: Sequence[list], n: int, cell_index: int = 0):
    """``replicate_block`` of one library cell into an ``n x n`` array."""
    from repro.data import replicate_block
    from repro.geometry import Layer, Rect

    cell = Layer("metal1")
    cell.add_rects(cells[cell_index])
    layer = replicate_block(cell, Rect(0, 0, CELL_NM, CELL_NM), n, n)
    return layer, Rect(0, 0, n * CELL_NM, n * CELL_NM)


def one_placement_edit(layer, n: int, seed: int):
    """``layer`` plus one rect at the centre of a seeded interior
    placement.

    Interior placements have congruent neighbourhoods and the shards
    snap to the cell pitch, so every seed re-scores the same amount of
    work; a seeded offset inside the cell moved the rescan time by a
    third between seeds.
    """
    from repro.geometry import Layer, Rect

    rng = np.random.default_rng(seed)
    ix, iy = (int(v) for v in rng.integers(1, n - 1, size=2))
    x = ix * CELL_NM + (CELL_NM - EDIT_W) // 2
    y = iy * CELL_NM + (CELL_NM - EDIT_H) // 2
    edited = Layer(layer.name)
    for poly in layer.polygons:
        edited.add(poly)
    edited.add_rects([Rect(x, y, x + EDIT_W, y + EDIT_H)])
    return edited, (ix, iy)


def job_mix(n_jobs: int, seed: int) -> List[int]:
    """Library cell index scanned by each served job."""
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.integers(0, LIBRARY_SIZE, size=n_jobs)]


def cell_layer(cells: Sequence[list], index: int):
    """One library cell as a layer plus its region."""
    return place(cells, 1, 1, [index])


def sample_indices(n: int, k: int, seed: int) -> np.ndarray:
    """``k`` distinct indices of ``range(n)``, seeded, sorted."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=min(k, n), replace=False))

