"""Full-chip scale-out: shard planning, execution, and deterministic merge.

One :class:`~repro.runtime.engine.ScanEngine` scans one region.  This
module tiles an arbitrarily large chip into **halo-overlapped shards**,
runs each shard on an independent engine instance, and reassembles the
per-shard reports into a single chip report **byte-identical** to the
monolithic scan — then layers hierarchy-aware reuse on top:

* :class:`ShardPlanner` splits the *center grid* (not raw nm) into
  balanced contiguous owned ranges and expands each by a halo.  With the
  default halo of one window extent, every window a shard owns sees the
  exact context a monolithic scan would, so its score is identical by
  construction.  Plans are pure data (:class:`ShardPlan`) with a stable
  content digest and a JSON wire form.
* :class:`ShardRunner` executes the shards (``shard_workers``-way
  thread fan-out; each shard engine may itself spread scoring over a
  process :class:`~repro.runtime.pool.WorkerPool`).  Each shard
  checkpoints under its own subdirectory and its finished report is
  persisted next to the checkpoints, so a killed shard resumes and
  completed shards are never re-scanned.
* **Instance-level dedup** generalizes the window fingerprint cache:
  shards whose halo-expanded regions are exact translated copies
  (:func:`~repro.geometry.region_fingerprint`) are scored once and
  *replayed* per placement — on ``replicate_block``-style arrays this
  collapses an n×n array to a handful of unique shards.
* **Incremental re-scan**: the runner persists a fingerprint→score
  manifest next to the checkpoint; a later run pointed at it via
  ``rescan_from`` re-scores only shards whose fingerprint cone changed
  and replays the rest from the manifest.
* :func:`merge_reports` places every shard's *owned* scores into the
  global row-major grid (halo duplicates are dropped by the canonical
  owner-shard rule: the owner of a window is the unique shard whose
  owned center range contains it) and merges telemetry.

:func:`scan_chip` is the single front door routing monolithic, sharded,
and incremental scans through this one code path, driven by the
:class:`~repro.runtime.config.ChipScanConfig` group of ``EngineConfig``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..durable import (
    CorruptFile,
    dump_json,
    dump_npz,
    load_json,
    load_npz,
    quarantine_file,
)
# extract_clip is not called here; it stays importable under this name
# because perfbench's traced ledger wraps it here
from ..geometry import Layer, Layout, Rect, extract_clip, region_fingerprint
from .config import EngineConfig
from .engine import REPORT_SCHEMA, ScanEngine, ScanReport, detector_tag
from .metrics import export_metrics
from .telemetry import Telemetry

PathLike = Union[str, Path]

#: bump when the ShardPlan JSON layout changes incompatibly
PLAN_SCHEMA = 1

#: bump when the chip manifest layout changes incompatibly (2: the
#: repro.durable checksum; an older manifest is refused as corrupt)
MANIFEST_SCHEMA = 2

#: the fingerprint→score manifest written next to the checkpoint
MANIFEST_NAME = "chip-manifest.npz"


# --------------------------------------------------------------------------
# plan data model
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard of a :class:`ShardPlan`, in center-index space.

    ``own_x`` / ``own_y`` are the half-open index ranges of the centers
    this shard *owns* (the owner-shard rule: owned ranges partition the
    global grid, so every window has exactly one owner).  ``scan_x`` /
    ``scan_y`` extend them by the halo (clamped to the grid); ``region``
    is the nm rectangle whose tile enumeration yields exactly the
    scanned centers.
    """

    shard_id: int
    ix: int
    iy: int
    own_x: Tuple[int, int]
    own_y: Tuple[int, int]
    scan_x: Tuple[int, int]
    scan_y: Tuple[int, int]
    region: Rect

    @property
    def scan_w(self) -> int:
        return self.scan_x[1] - self.scan_x[0]

    @property
    def scan_h(self) -> int:
        return self.scan_y[1] - self.scan_y[0]

    @property
    def n_windows(self) -> int:
        """Windows this shard scans (owned + halo)."""
        return self.scan_w * self.scan_h

    @property
    def n_owned(self) -> int:
        return (self.own_x[1] - self.own_x[0]) * (self.own_y[1] - self.own_y[0])


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic tiling of one scan into halo-overlapped shards.

    Pure data: two planner invocations over the same region and scan
    parameters produce equal plans with equal ``digest``.  ``nx`` /
    ``ny`` are the global center-grid dimensions; shard owned ranges
    partition ``[0, nx) × [0, ny)``.
    """

    region: Rect
    window_nm: int
    core_nm: int
    step_nm: int
    halo_nm: int
    nx: int
    ny: int
    shards: Tuple[ShardSpec, ...]
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            payload = self._payload()
            raw = json.dumps(payload, sort_keys=True).encode("ascii")
            object.__setattr__(
                self,
                "digest",
                hashlib.blake2b(raw, digest_size=16).hexdigest(),
            )

    @property
    def n_windows(self) -> int:
        return self.nx * self.ny

    @property
    def grid(self) -> Tuple[int, int]:
        """(shard columns, shard rows) of the plan."""
        if not self.shards:
            return (0, 0)
        return (
            max(s.ix for s in self.shards) + 1,
            max(s.iy for s in self.shards) + 1,
        )

    def centers(self) -> List[Tuple[int, int]]:
        """Global window centers in monolithic scan order (row-major)."""
        half = self.window_nm // 2
        x0 = self.region.x1 + half
        y0 = self.region.y1 + half
        return [
            (x0 + i * self.step_nm, y0 + j * self.step_nm)
            for j in range(self.ny)
            for i in range(self.nx)
        ]

    def shard_centers(self, spec: ShardSpec) -> List[Tuple[int, int]]:
        """The centers ``spec`` scans, in that shard's row-major order."""
        half = self.window_nm // 2
        x0 = self.region.x1 + half
        y0 = self.region.y1 + half
        return [
            (x0 + i * self.step_nm, y0 + j * self.step_nm)
            for j in range(*spec.scan_y)
            for i in range(*spec.scan_x)
        ]

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def _payload(self) -> Dict[str, object]:
        return {
            "schema": PLAN_SCHEMA,
            "region": [
                self.region.x1,
                self.region.y1,
                self.region.x2,
                self.region.y2,
            ],
            "window_nm": self.window_nm,
            "core_nm": self.core_nm,
            "step_nm": self.step_nm,
            "halo_nm": self.halo_nm,
            "nx": self.nx,
            "ny": self.ny,
            "shards": [
                [
                    s.shard_id,
                    s.ix,
                    s.iy,
                    *s.own_x,
                    *s.own_y,
                    *s.scan_x,
                    *s.scan_y,
                ]
                for s in self.shards
            ],
        }

    def to_json(self) -> str:
        """Versioned canonical JSON (sorted keys, digest-stable)."""
        return json.dumps(self._payload(), sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "ShardPlan":
        payload = json.loads(document)
        schema = payload.get("schema")
        if schema != PLAN_SCHEMA:
            raise ValueError(
                f"unsupported ShardPlan schema {schema!r} "
                f"(this build reads {PLAN_SCHEMA})"
            )
        region = Rect(*(int(v) for v in payload["region"]))
        window = int(payload["window_nm"])
        step = int(payload["step_nm"])
        specs = []
        for row in payload["shards"]:
            sid, ix, iy, ox0, ox1, oy0, oy1, sx0, sx1, sy0, sy1 = (
                int(v) for v in row
            )
            specs.append(
                ShardSpec(
                    shard_id=sid,
                    ix=ix,
                    iy=iy,
                    own_x=(ox0, ox1),
                    own_y=(oy0, oy1),
                    scan_x=(sx0, sx1),
                    scan_y=(sy0, sy1),
                    region=_shard_region(region, window, step, (sx0, sx1), (sy0, sy1)),
                )
            )
        return cls(
            region=region,
            window_nm=window,
            core_nm=int(payload["core_nm"]),
            step_nm=step,
            halo_nm=int(payload["halo_nm"]),
            nx=int(payload["nx"]),
            ny=int(payload["ny"]),
            shards=tuple(specs),
        )


def _shard_region(
    region: Rect,
    window_nm: int,
    step_nm: int,
    scan_x: Tuple[int, int],
    scan_y: Tuple[int, int],
) -> Rect:
    """The nm rectangle whose tile grid is exactly the scanned centers.

    Center ``i`` of the global grid sits at ``region.x1 + window//2 +
    i*step``, so its window's left edge is ``region.x1 + i*step``; the
    rectangle spanning window edges of the scan range therefore
    re-enumerates precisely centers ``[scan_lo, scan_hi)`` when handed
    to ``iter_tile_centers`` — the shard engine needs no special casing.
    """
    return Rect(
        region.x1 + scan_x[0] * step_nm,
        region.y1 + scan_y[0] * step_nm,
        region.x1 + (scan_x[1] - 1) * step_nm + window_nm,
        region.y1 + (scan_y[1] - 1) * step_nm + window_nm,
    )


# --------------------------------------------------------------------------
# planner
# --------------------------------------------------------------------------
class ShardPlanner:
    """Deterministically tile a scan region into halo-overlapped shards.

    Parameters
    ----------
    shards:
        Target shard count.  The planner factors it into a grid whose
        aspect tracks the center grid's; small grids (or aggressive
        snapping) may yield fewer shards than requested, never more.
    grid:
        Explicit ``(columns, rows)`` shard grid, overriding ``shards``.
    halo_nm:
        Overlap margin beyond each shard's owned windows.  ``None``
        (default) uses the full window extent — the margin under which a
        boundary window's context, and therefore its score, is identical
        to the monolithic scan's.
    snap_nm:
        Snap shard boundaries to multiples of this pitch so repeated
        placements (``InstanceArray``) land in congruent shards; must be
        a multiple of the scan step.
    """

    def __init__(
        self,
        shards: int = 1,
        *,
        grid: Optional[Tuple[int, int]] = None,
        halo_nm: Optional[int] = None,
        snap_nm: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if grid is not None and (grid[0] < 1 or grid[1] < 1):
            raise ValueError("grid dimensions must be >= 1")
        if halo_nm is not None and halo_nm < 0:
            raise ValueError("halo_nm must be >= 0 or None")
        if snap_nm is not None and snap_nm < 1:
            raise ValueError("snap_nm must be >= 1 or None")
        self.shards = shards
        self.grid = grid
        self.halo_nm = halo_nm
        self.snap_nm = snap_nm

    def plan(
        self,
        region: Rect,
        window_nm: int = 768,
        core_nm: int = 256,
        step_nm: Optional[int] = None,
    ) -> ShardPlan:
        """The shard plan for one scan's parameters."""
        step = core_nm if step_nm is None else step_nm
        if step < 1 or window_nm < 1:
            raise ValueError("window_nm and step must be positive")
        if region.width < window_nm or region.height < window_nm:
            raise ValueError("region too small for the clip window")
        nx = (region.width - window_nm) // step + 1
        ny = (region.height - window_nm) // step + 1
        if self.grid is not None:
            gx, gy = self.grid
        else:
            gx, gy = _choose_grid(self.shards, nx, ny)
        gx, gy = min(gx, nx), min(gy, ny)
        snap_ix: Optional[int] = None
        if self.snap_nm is not None:
            if self.snap_nm % step:
                raise ValueError(
                    f"snap_nm ({self.snap_nm}) must be a multiple of the "
                    f"scan step ({step})"
                )
            snap_ix = self.snap_nm // step
        x_bounds = _axis_bounds(nx, gx, snap_ix)
        y_bounds = _axis_bounds(ny, gy, snap_ix)
        halo = window_nm if self.halo_nm is None else self.halo_nm
        halo_c = -(-halo // step)  # ceil
        specs: List[ShardSpec] = []
        for iy in range(len(y_bounds) - 1):
            oy = (y_bounds[iy], y_bounds[iy + 1])
            sy = (max(0, oy[0] - halo_c), min(ny, oy[1] + halo_c))
            for ix in range(len(x_bounds) - 1):
                ox = (x_bounds[ix], x_bounds[ix + 1])
                sx = (max(0, ox[0] - halo_c), min(nx, ox[1] + halo_c))
                specs.append(
                    ShardSpec(
                        shard_id=len(specs),
                        ix=ix,
                        iy=iy,
                        own_x=ox,
                        own_y=oy,
                        scan_x=sx,
                        scan_y=sy,
                        region=_shard_region(region, window_nm, step, sx, sy),
                    )
                )
        return ShardPlan(
            region=region,
            window_nm=window_nm,
            core_nm=core_nm,
            step_nm=step,
            halo_nm=halo,
            nx=nx,
            ny=ny,
            shards=tuple(specs),
        )


def _choose_grid(shards: int, nx: int, ny: int) -> Tuple[int, int]:
    """The factor pair of ``shards`` whose aspect best matches the grid."""
    best: Optional[Tuple[int, int, int]] = None
    for gx in range(1, shards + 1):
        if shards % gx:
            continue
        gy = shards // gx
        score = abs(gx * ny - gy * nx)
        if best is None or score < best[0]:
            best = (score, gx, gy)
    assert best is not None
    return best[1], best[2]


def _axis_bounds(n: int, parts: int, snap: Optional[int]) -> List[int]:
    """Balanced (optionally pitch-snapped) split of ``[0, n)`` indices.

    Snapping may collapse adjacent boundaries; duplicates are dropped,
    shrinking the shard count rather than emitting empty shards.
    """
    bounds = [0]
    for k in range(1, parts):
        b = (k * n) // parts
        if snap:
            b = snap * round(b / snap)
        if bounds[-1] < b < n:
            bounds.append(b)
    bounds.append(n)
    return bounds


# --------------------------------------------------------------------------
# merge
# --------------------------------------------------------------------------
def merge_reports(
    plan: ShardPlan,
    reports: Sequence[ScanReport],
    *,
    layer: Optional[Layer] = None,
    elapsed_s: Optional[float] = None,
) -> ScanReport:
    """Reassemble per-shard reports into one chip report.

    Deterministic by construction: each shard contributes exactly its
    *owned* windows (the canonical owner-shard dedup rule — halo
    duplicates are dropped because owned ranges partition the grid), and
    owned scores land at their monolithic row-major position.  The
    result's canonical fields (centers, scores, flags, confirmed) are
    byte-identical to an unsharded scan of the same region.

    ``reports`` must align with ``plan.shards`` (same order and window
    counts; shard provenance fields, when present, must match).  The
    merged report takes its window geometry from the plan; passing
    ``layer`` lets its ``clips`` and ``flagged_clips()`` cut windows when
    asked.  The merge itself cuts nothing.
    """
    if len(reports) != len(plan.shards):
        raise ValueError(
            f"plan has {len(plan.shards)} shards but {len(reports)} "
            f"reports were supplied"
        )
    scan_paths = {r.scan_path for r in reports}
    if len(scan_paths) > 1:
        raise ValueError(f"shard reports mix scan paths {sorted(scan_paths)}")
    conf_present = {r.confirmed is not None for r in reports}
    if len(conf_present) > 1:
        raise ValueError(
            "shard reports mix verified and unverified results; "
            "re-scan with a consistent oracle"
        )
    scores2d = np.zeros((plan.ny, plan.nx), dtype=np.float64)
    flagged2d = np.zeros((plan.ny, plan.nx), dtype=bool)
    conf2d = np.full((plan.ny, plan.nx), -1, dtype=np.int8)
    telemetry = Telemetry()
    for spec, rep in zip(plan.shards, reports):
        if rep.n_windows != spec.n_windows:
            raise ValueError(
                f"shard {spec.shard_id} report has {rep.n_windows} windows, "
                f"plan expects {spec.n_windows}"
            )
        if rep.shard_id is not None and rep.shard_id != spec.shard_id:
            raise ValueError(
                f"report for shard {spec.shard_id} carries shard_id "
                f"{rep.shard_id}"
            )
        if rep.plan_digest is not None and rep.plan_digest != plan.digest:
            raise ValueError(
                f"shard {spec.shard_id} was scanned under plan "
                f"{rep.plan_digest}, not {plan.digest}"
            )
        h, w = spec.scan_h, spec.scan_w
        local_scores = np.asarray(rep.scores, dtype=np.float64).reshape(h, w)
        local_flags = np.asarray(rep.flagged, dtype=bool).reshape(h, w)
        r0 = spec.own_y[0] - spec.scan_y[0]
        r1 = spec.own_y[1] - spec.scan_y[0]
        c0 = spec.own_x[0] - spec.scan_x[0]
        c1 = spec.own_x[1] - spec.scan_x[0]
        own_rows = slice(spec.own_y[0], spec.own_y[1])
        own_cols = slice(spec.own_x[0], spec.own_x[1])
        scores2d[own_rows, own_cols] = local_scores[r0:r1, c0:c1]
        flagged2d[own_rows, own_cols] = local_flags[r0:r1, c0:c1]
        if rep.confirmed is not None:
            local_conf = np.full(h * w, -1, dtype=np.int8)
            local_conf[np.flatnonzero(local_flags.ravel())] = np.asarray(
                rep.confirmed, dtype=bool
            ).astype(np.int8)
            conf2d[own_rows, own_cols] = local_conf.reshape(h, w)[
                r0:r1, c0:c1
            ]
        if rep.telemetry is not None:
            telemetry.merge(rep.telemetry)
    scores = scores2d.ravel()
    flagged = flagged2d.ravel()
    if conf_present == {True}:
        flat_conf = conf2d.ravel()[flagged]
        if np.any(flat_conf < 0):
            raise ValueError(
                "merged report is missing confirmed verdicts for some "
                "flagged windows"
            )
        confirmed: Optional[np.ndarray] = flat_conf.astype(bool)
    else:
        confirmed = None
    return ScanReport(
        centers=plan.centers(),
        scores=scores,
        flagged=flagged,
        confirmed=confirmed,
        window_nm=plan.window_nm,
        core_nm=plan.core_nm,
        layer=layer,
        telemetry=telemetry,
        cascade_stats=None,
        n_windows=plan.n_windows,
        n_scored=sum(r.n_scored for r in reports),
        cache_hits=sum(r.cache_hits for r in reports),
        elapsed_s=(
            sum(r.elapsed_s for r in reports)
            if elapsed_s is None
            else elapsed_s
        ),
        scan_path=reports[0].scan_path if reports else "clip",
        shard_id=None,
        plan_digest=plan.digest,
    )


# --------------------------------------------------------------------------
# the fingerprint→score manifest (incremental re-scan)
# --------------------------------------------------------------------------
@dataclass
class ChipManifest:
    """Persisted fingerprint→score state of one completed chip scan.

    One checksummed npz (:func:`repro.durable.dump_npz`) next to the
    checkpoint: the plan digest and detector identity pin what the
    stored scores mean; per shard it
    keeps the halo-region fingerprint plus the scanned score/flag
    arrays (and confirmed verdicts, folded per window as ``-1`` /
    ``0`` / ``1``).  A re-scan replays every shard whose current
    fingerprint still matches — only shards inside a layout edit's
    fingerprint cone (the halo-expanded regions the edit touches) are
    re-scored.
    """

    plan_digest: str
    detector: str
    threshold: float
    scan_path: str
    has_confirmed: bool
    fingerprints: List[str]
    scores: List[np.ndarray]
    flags: List[np.ndarray]
    conf: List[np.ndarray]

    def save(self, path: PathLike) -> Path:
        offsets = np.cumsum([0] + [len(s) for s in self.scores])
        return dump_npz(
            path,
            {
                "schema": MANIFEST_SCHEMA,
                "plan_digest": self.plan_digest,
                "detector": self.detector,
                "threshold": self.threshold,
                "scan_path": self.scan_path,
                "has_confirmed": self.has_confirmed,
                "fingerprints": np.array(self.fingerprints, dtype=np.str_),
                "offsets": offsets.astype(np.int64),
                "scores": np.concatenate([np.zeros(0), *self.scores]),
                "flags": np.concatenate([np.zeros(0, bool), *self.flags]),
                "conf": np.concatenate([np.zeros(0, np.int8), *self.conf]),
            },
        )

    @classmethod
    def load(cls, path: PathLike) -> "ChipManifest":
        """Read a manifest file (or ``MANIFEST_NAME`` in a directory).

        A damaged or older-schema manifest raises
        :class:`~repro.durable.CorruptFile`, a ``ValueError``.
        """
        path = Path(path)
        if path.is_dir():
            path = path / MANIFEST_NAME
        try:
            data = load_npz(path, (MANIFEST_SCHEMA,))
        except FileNotFoundError:
            raise FileNotFoundError(f"no chip manifest at {path}") from None
        offsets = data["offsets"]
        bounds = list(zip(offsets[:-1], offsets[1:]))
        return cls(
            plan_digest=str(data["plan_digest"]),
            detector=str(data["detector"]),
            threshold=float(data["threshold"]),
            scan_path=str(data["scan_path"]),
            has_confirmed=bool(data["has_confirmed"]),
            fingerprints=[str(f) for f in data["fingerprints"]],
            scores=[data["scores"][lo:hi] for lo, hi in bounds],
            flags=[data["flags"][lo:hi] for lo, hi in bounds],
            conf=[data["conf"][lo:hi] for lo, hi in bounds],
        )

    def validate_for(
        self, plan: ShardPlan, detector: str, threshold: float
    ) -> None:
        """Refuse reuse across a different plan or detector."""
        if self.plan_digest != plan.digest:
            raise ValueError(
                f"manifest was written under plan {self.plan_digest}, "
                f"this scan plans {plan.digest} — re-plan with the same "
                f"shard grid to re-scan incrementally"
            )
        if len(self.fingerprints) != len(plan.shards):
            raise ValueError(
                f"manifest covers {len(self.fingerprints)} shards, plan "
                f"has {len(plan.shards)}"
            )
        if self.detector != detector or self.threshold != float(threshold):
            raise ValueError(
                f"manifest was scored by {self.detector!r} "
                f"(threshold {self.threshold}), this scan uses "
                f"{detector!r} (threshold {float(threshold)})"
            )


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------
class ShardRunner:
    """Execute a :class:`ShardPlan` and merge the result.

    Each shard scans on its own :class:`ScanEngine` (own detector copy,
    own checkpoint subdirectory ``shard-NNNN/`` under the configured
    checkpoint dir, own trace subdirectory).  ``shard_workers`` shards
    run concurrently on threads; every shard engine may additionally fan
    scoring out over its process pool (``workers``), so in-process and
    multiprocess execution compose.

    Fault tolerance: a shard's finished report is persisted next to the
    checkpoints the moment it completes.  If any shard dies, the
    partial state stays on disk and a ``run(..., resume=True)`` reloads
    completed shards verbatim, resumes the killed shard from its own
    engine checkpoint, and merges to a report byte-identical to an
    uninterrupted scan.
    """

    def __init__(
        self,
        detector,
        config: Optional[EngineConfig] = None,
        *,
        faults=None,
    ) -> None:
        self.detector = detector
        self.config = config if config is not None else EngineConfig()
        self.faults = faults

    # ------------------------------------------------------------------
    def run(
        self,
        layer: Layer,
        plan: ShardPlan,
        *,
        oracle=None,
        resume: bool = False,
    ) -> ScanReport:
        """Scan every shard of ``plan`` over ``layer`` and merge."""
        chip = self.config.chip
        t0 = time.perf_counter()
        n_shards = len(plan.shards)
        single = n_shards == 1
        root = (
            None
            if self.config.checkpoint.dir is None
            else Path(self.config.checkpoint.dir)
        )
        manifest_out = self._manifest_path(root)
        tele = Telemetry()

        manifest: Optional[ChipManifest] = None
        if chip.rescan_from is not None:
            manifest = ChipManifest.load(chip.rescan_from)
            manifest.validate_for(
                plan,
                self._detector_tag(),
                float(self.detector.threshold),
            )
        # a one-shard plan has no congruent copy to replay, so only a
        # manifest read or written needs its fingerprint
        need_fp = (
            (chip.instance_dedup and not single)
            or manifest is not None
            or manifest_out is not None
        )
        fps: Optional[List[str]] = None
        if need_fp:
            fps = [region_fingerprint(layer, s.region) for s in plan.shards]

        reports: List[Optional[ScanReport]] = [None] * n_shards

        # 1) resume: reload reports of shards that already completed
        if resume and root is not None and not single:
            for i, spec in enumerate(plan.shards):
                path = self._report_path(root, spec)
                try:
                    rep = ScanReport.from_dict(
                        load_json(path, (REPORT_SCHEMA,))
                    )
                except FileNotFoundError:
                    continue
                except CorruptFile:
                    quarantine_file(path)
                    continue  # re-scan this shard
                if rep.plan_digest == plan.digest and rep.shard_id == i:
                    reports[i] = rep
                    tele.count("shard_resumed")

        # 2) incremental re-scan: replay shards with unchanged fingerprints
        if manifest is not None:
            assert fps is not None
            for i, spec in enumerate(plan.shards):
                if reports[i] is not None:
                    continue
                if fps[i] != manifest.fingerprints[i]:
                    tele.count("rescan_shards_rescored")
                    continue
                rep = self._from_manifest(plan, spec, manifest, oracle)
                if rep is None:
                    tele.count("rescan_shards_rescored")
                    continue
                reports[i] = rep
                tele.count("rescan_shards_reused")
                tele.count("rescan_windows_reused", spec.n_windows)

        # 3) instance dedup: congruent unresolved shards replay a canonical
        replay_of: Dict[int, int] = {}
        to_scan: List[int] = []
        if chip.instance_dedup and fps is not None:
            canon: Dict[Tuple[str, int, int], int] = {}
            for i, spec in enumerate(plan.shards):
                key = (fps[i], spec.scan_w, spec.scan_h)
                if reports[i] is not None:
                    canon.setdefault(key, i)
            for i, spec in enumerate(plan.shards):
                if reports[i] is not None:
                    continue
                key = (fps[i], spec.scan_w, spec.scan_h)
                if key in canon:
                    replay_of[i] = canon[key]
                else:
                    canon[key] = i
                    to_scan.append(i)
        else:
            to_scan = [i for i in range(n_shards) if reports[i] is None]

        # 4) scan the remaining shards, shard_workers at a time
        if to_scan:
            self._scan_shards(
                layer, plan, to_scan, reports, root, single, oracle,
                resume, tele,
            )

        # 5) replay the congruent copies from their canonical shard
        for i in sorted(replay_of):
            src = reports[replay_of[i]]
            assert src is not None
            spec = plan.shards[i]
            reports[i] = self.replay_report(plan, spec, src)
            tele.count("shard_replays")
            tele.count("shard_windows_replayed", spec.n_windows)
            self._progress(spec.shard_id, "replayed", reports, n_shards)

        done = [r for r in reports if r is not None]
        assert len(done) == n_shards
        merged = merge_reports(
            plan, done, layer=layer, elapsed_s=time.perf_counter() - t0
        )
        assert merged.telemetry is not None
        merged.telemetry.merge(tele)

        if manifest_out is not None:
            assert fps is not None
            self._write_manifest(manifest_out, plan, fps, done)
        if root is not None and not single:
            for spec in plan.shards:  # finalize: the merge succeeded
                path = self._report_path(root, spec)
                if path.exists():
                    path.unlink()
        return merged

    # ------------------------------------------------------------------
    @staticmethod
    def replay_report(
        plan: ShardPlan, spec: ShardSpec, src: ScanReport
    ) -> ScanReport:
        """A shard report replayed from a congruent (translated) shard.

        ``src`` must come from a shard with the same region fingerprint
        and scan grid shape; the scores/flags/verdicts are copied and
        only the centers are re-derived for ``spec``'s placement.  Used
        by the in-process runner and the service fleet's chip fan-out.
        """
        return ScanReport(
            centers=plan.shard_centers(spec),
            scores=np.array(src.scores, dtype=np.float64, copy=True),
            flagged=np.array(src.flagged, dtype=bool, copy=True),
            confirmed=(
                None
                if src.confirmed is None
                else np.array(src.confirmed, dtype=bool, copy=True)
            ),
            window_nm=plan.window_nm,
            core_nm=plan.core_nm,
            telemetry=None,
            cascade_stats=None,
            n_windows=spec.n_windows,
            n_scored=0,
            cache_hits=0,
            elapsed_s=0.0,
            scan_path=src.scan_path,
            shard_id=spec.shard_id,
            plan_digest=plan.digest,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _detector_tag(self) -> str:
        """The manifest's detector tag, under this scan's backend override.

        Shard engines apply ``batch.infer_backend`` to their own detector
        copies, so the runner's detector may still carry another backend.
        """
        return detector_tag(self.detector, self.config.batch.infer_backend)

    def _manifest_path(self, root: Optional[Path]) -> Optional[Path]:
        if self.config.chip.manifest is not None:
            return Path(self.config.chip.manifest)
        if root is not None:
            return root / MANIFEST_NAME
        return None

    @staticmethod
    def _report_path(root: Path, spec: ShardSpec) -> Path:
        return root / f"shard-{spec.shard_id:04d}.report.json"

    def _from_manifest(
        self, plan: ShardPlan, spec: ShardSpec, manifest: ChipManifest,
        oracle,
    ) -> Optional[ScanReport]:
        """Synthesize a shard report from stored scores, or None to rescan."""
        i = spec.shard_id
        scores = manifest.scores[i]
        flags = manifest.flags[i]
        if len(scores) != spec.n_windows:
            return None
        # verified-ness must match what live shard scans will produce,
        # or the merge would mix verified and unverified shards
        want_confirmed = oracle is not None or manifest.has_confirmed
        if (oracle is not None) != manifest.has_confirmed:
            return None
        confirmed: Optional[np.ndarray] = None
        if want_confirmed:
            verdicts = manifest.conf[i][flags]
            if np.any(verdicts < 0):
                return None
            confirmed = verdicts.astype(bool)
        return ScanReport(
            centers=plan.shard_centers(spec),
            scores=scores.copy(),
            flagged=flags.copy(),
            confirmed=confirmed,
            window_nm=plan.window_nm,
            core_nm=plan.core_nm,
            telemetry=None,
            cascade_stats=None,
            n_windows=spec.n_windows,
            n_scored=0,
            cache_hits=0,
            elapsed_s=0.0,
            scan_path=manifest.scan_path,
            shard_id=spec.shard_id,
            plan_digest=plan.digest,
        )

    def _scan_shards(
        self,
        layer: Layer,
        plan: ShardPlan,
        to_scan: List[int],
        reports: List[Optional[ScanReport]],
        root: Optional[Path],
        single: bool,
        oracle,
        resume: bool,
        tele: Telemetry,
    ) -> None:
        n_shards = len(plan.shards)

        def scan_one(i: int) -> None:
            spec = plan.shards[i]
            detector = (
                self.detector if single else copy.deepcopy(self.detector)
            )
            cfg = self._shard_config(root, spec, single)
            engine = ScanEngine(detector, config=cfg, faults=self.faults)
            rep = engine.scan(
                layer,
                spec.region,
                window_nm=plan.window_nm,
                core_nm=plan.core_nm,
                step_nm=plan.step_nm,
                oracle=oracle,
                resume=resume and cfg.checkpoint.dir is not None,
            )
            rep.shard_id = spec.shard_id
            rep.plan_digest = plan.digest
            reports[i] = rep
            if root is not None and not single:
                dump_json(self._report_path(root, spec), rep.to_dict())
            self._progress(spec.shard_id, "scanned", reports, n_shards)

        workers = min(self.config.chip.shard_workers, len(to_scan))
        errors: List[BaseException] = []
        if workers <= 1:
            for i in to_scan:
                try:
                    scan_one(i)
                except BaseException as exc:  # lint: disable=broad-except  (held for post-count re-raise so telemetry stays exact even on crash)
                    errors.append(exc)
                    break
        else:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            ) as pool:
                futures = [pool.submit(scan_one, i) for i in to_scan]
                for fut in futures:
                    exc = fut.exception()
                    if exc is not None:
                        errors.append(exc)
        # count in the plan's thread so tallies are exact, not racy
        for i in to_scan:
            if reports[i] is not None:
                tele.count("shard_scans")
                tele.count(
                    "shard_windows_scanned", plan.shards[i].n_windows
                )
        if errors:
            raise errors[0]

    def _shard_config(
        self, root: Optional[Path], spec: ShardSpec, single: bool
    ) -> EngineConfig:
        """Per-shard engine config: private checkpoint/trace subpaths.

        A single-shard plan keeps the config untouched so checkpoints,
        metrics, and progress behave exactly as a direct engine scan —
        the monolithic route through :func:`scan_chip` is the engine.
        """
        if single:
            return self.config
        obs = self.config.observability
        sub = f"shard-{spec.shard_id:04d}"
        return replace(
            self.config,
            checkpoint=replace(
                self.config.checkpoint,
                dir=None if root is None else root / sub,
            ),
            observability=replace(
                obs,
                trace_dir=(
                    None
                    if obs.trace_dir is None
                    else Path(obs.trace_dir) / sub
                ),
                metrics=None,  # exported once, for the merged report
                progress=obs.progress if callable(obs.progress) else None,
            ),
        )

    def _progress(
        self,
        shard_id: int,
        state: str,
        reports: List[Optional[ScanReport]],
        n_shards: int,
    ) -> None:
        if self.config.observability.progress != "stderr" or n_shards == 1:
            return
        done = sum(1 for r in reports if r is not None)
        print(
            f"[chip] shard {shard_id:04d} {state} ({done}/{n_shards})",
            file=sys.stderr,
            flush=True,
        )

    def _write_manifest(
        self,
        path: Path,
        plan: ShardPlan,
        fps: List[str],
        reports: List[ScanReport],
    ) -> None:
        has_confirmed = all(r.confirmed is not None for r in reports)
        scores, flags, conf = [], [], []
        for spec, rep in zip(plan.shards, reports):
            local_flags = np.asarray(rep.flagged, dtype=bool)
            scores.append(np.asarray(rep.scores, dtype=np.float64))
            flags.append(local_flags)
            local_conf = np.full(spec.n_windows, -1, dtype=np.int8)
            if rep.confirmed is not None:
                local_conf[np.flatnonzero(local_flags)] = np.asarray(
                    rep.confirmed, dtype=bool
                ).astype(np.int8)
            conf.append(local_conf)
        ChipManifest(
            plan_digest=plan.digest,
            detector=self._detector_tag(),
            threshold=float(self.detector.threshold),
            scan_path=reports[0].scan_path if reports else "clip",
            has_confirmed=has_confirmed,
            fingerprints=list(fps),
            scores=scores,
            flags=flags,
            conf=conf,
        ).save(path)


# --------------------------------------------------------------------------
# the unified front door
# --------------------------------------------------------------------------
def scan_chip(
    layout: Union[Layer, Layout],
    detector,
    config: Optional[EngineConfig] = None,
    *,
    layer: Optional[str] = None,
    region: Optional[Rect] = None,
    window_nm: int = 768,
    core_nm: int = 256,
    step_nm: Optional[int] = None,
    oracle=None,
    resume: bool = False,
    faults=None,
    planner: Optional[ShardPlanner] = None,
) -> ScanReport:
    """Scan a full chip: monolithic, sharded, or incremental — one path.

    The :class:`~repro.runtime.config.ChipScanConfig` group of
    ``config`` selects the mode: ``shards=1`` (default) plans a single
    shard whose engine behaves exactly like a direct
    :meth:`ScanEngine.scan <repro.runtime.engine.ScanEngine.scan>`;
    ``shards>1`` fans out over ``shard_workers`` engines and merges;
    ``rescan_from=`` replays unchanged shards from a prior scan's
    manifest.  All three return the same byte-identical report for the
    same geometry.

    ``layout`` may be a bare :class:`~repro.geometry.Layer` or a
    :class:`~repro.geometry.Layout` (pass ``layer=`` to pick one of
    several).  ``region`` defaults to the layer's bounding box.
    """
    if config is None:
        config = EngineConfig()

    if isinstance(layout, Layer):
        if layer is not None:
            raise TypeError(
                "layer= selects a layer from a Layout; a bare Layer was "
                "passed"
            )
        scan_layer = layout
    elif isinstance(layout, Layout):
        if layer is not None:
            if layer not in layout.layers:
                raise ValueError(
                    f"layout {layout.name!r} has no layer {layer!r} "
                    f"(has {sorted(layout.layers)})"
                )
            scan_layer = layout.layers[layer]
        elif len(layout.layers) == 1:
            scan_layer = next(iter(layout.layers.values()))
        else:
            raise ValueError(
                f"layout {layout.name!r} has {len(layout.layers)} layers; "
                f"pass layer=<name> to pick one"
            )
    else:
        raise TypeError(
            f"layout must be a Layer or Layout, got {type(layout).__name__}"
        )

    if region is None:
        region = scan_layer.bbox
    chip = config.chip
    if planner is None:
        planner = ShardPlanner(
            chip.shards,
            halo_nm=chip.halo_nm,
            snap_nm=chip.snap_nm,
        )
    plan = planner.plan(
        region, window_nm=window_nm, core_nm=core_nm, step_nm=step_nm
    )
    runner = ShardRunner(detector, config, faults=faults)
    report = runner.run(scan_layer, plan, oracle=oracle, resume=resume)
    metrics = config.observability.metrics
    if metrics is not None and len(plan.shards) > 1:
        export_metrics(report, metrics)
    return report
