"""ScanEngine: the production full-chip scan path.

Where :func:`repro.core.scan.scan_layer` was a toy sweep (materialize
every clip, score once, re-score repeats), the engine is built for the
chip-scale workload the runtime figures motivate:

* **streaming tiles** — windows come from
  :func:`~repro.geometry.layout.iter_tile_centers` in bounded chunks and
  the report keeps centers, not clips: the full clip population is never
  materialized, and only verification cuts the flagged windows it reads,
* **dedup scoring** — a :class:`~repro.runtime.cache.ScoreCache` keyed on
  the canonical clip fingerprint scores each distinct pattern once per
  scan (and, with a cache directory, once *ever*); repeated cells make
  this the single biggest runtime win available,
* **worker pool** — unique clips fan out over a ``spawn``-safe
  :class:`~repro.runtime.pool.WorkerPool` with ordered reassembly, so
  ``workers>1`` returns byte-identical scores to ``workers=1``,
* **detector cascade** — any detector works, but a
  :class:`~repro.runtime.cascade.CascadeDetector` resolves most windows
  in its cheap stages and its per-stage counts land in the report,
* **raster-plane fast path** — when the detector scores rasters
  (:func:`~repro.core.detector.supports_raster_scan`), each band of scan
  rows is rasterized **once** into a shared plane and every window
  becomes a pixel-aligned numpy slice of it; whole slabs flow through
  the detector's batched ``predict_proba_rasters`` without constructing
  per-window :class:`Clip` objects.  Overlapping windows stop paying
  ``overlap x`` redundant rasterization, and feature extraction runs
  vectorized over the batch (one ``dctn`` for a whole chunk).  The clip
  path remains as the reference implementation and handles detectors
  that consume geometry directly,
* **telemetry** — windows/s, per-stage latency, cache and dedup ratios,
  embedded in the returned :class:`ScanReport` (a compatible superset of
  :class:`~repro.core.scan.ScanResult`),
* **fault tolerance** — chunk scoring runs under the
  :class:`~repro.runtime.pool.WorkerPool` supervision ladder (timeout /
  retry / pool rebuild / in-process degradation), periodic atomic
  **checkpoints** (:mod:`repro.runtime.checkpoint`) let an interrupted
  scan ``resume=True`` to a byte-identical report, corrupt persisted
  caches are quarantined instead of fatal, and the whole stack is
  exercisable via deterministic :mod:`~repro.runtime.faults` injection.

Every scan is one pipeline: a window source (clip windows, slices of a
raster band, or slices of a band's feature tensor) yields chunks in
global row-major order, and one runner either streams them through the
pool (no cache) or keys every window in the same single pass and sends
each unseen pattern's exemplar to the pool as soon as a batch of them
has accumulated (cache).  Checkpoint, telemetry and span code lives in
the runner, once for every source.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import contracts
from ..core.detector import supports_raster_scan
from ..core.scan import ScanResult
from ..geometry.layout import (
    Layer,
    clip_fingerprint,
    count_tile_centers,
    extract_clip,
    iter_tile_centers,
)
# raster_fingerprint is not called here; it stays importable under this
# name because perfbench's traced ledger wraps it here
from ..geometry.rasterize import (
    quantize_raster,
    quantized_fingerprint,
    raster_fingerprint,
    rasterize_region,
)
from ..geometry.rect import Rect
from .cache import ScoreCache
from .cascade import CascadeDetector, CascadeStats
from .checkpoint import (
    CHECKPOINT_NAME,
    Checkpointer,
    layer_signature,
    scan_config_hash,
)
from .config import EngineConfig
from .faults import FaultInjector
from .pool import WorkerPool
from .telemetry import Telemetry
from .trace import NULL_TRACER, ProgressEvent, ScanObservability

#: bump when the ScanReport JSON layout changes incompatibly
#: (2 added shard provenance: ``shard_id`` / ``plan_digest``)
REPORT_SCHEMA = 2


@dataclass
class ScanReport(ScanResult):
    """ScanResult plus runtime telemetry — what the engine returns.

    Like every :class:`~repro.core.scan.ScanResult` it holds centers and
    window geometry, and a live scan's report also holds the scanned
    layer, so ``clips`` and :meth:`flagged_clips` cut windows when
    called.  A report rebuilt from JSON has no layer and no geometry:
    both raise ``ValueError``, as does :meth:`hotspot_regions`.
    """

    telemetry: Optional[Telemetry] = None
    cascade_stats: Optional[CascadeStats] = None
    n_windows: int = 0
    n_scored: int = 0
    cache_hits: int = 0
    elapsed_s: float = 0.0
    #: which window source produced the scores: "clip" or "raster"
    scan_path: str = "clip"
    #: shard provenance (schema 2): the shard's index within its plan,
    #: or None for a monolithic / merged chip report
    shard_id: Optional[int] = None
    #: digest of the ShardPlan this report was scanned (or merged) under;
    #: None for a plain monolithic engine scan
    plan_digest: Optional[str] = None

    @property
    def flag_ratio(self) -> float:
        """Fraction of windows sent to verification (simulation cost)."""
        return self.n_flagged / self.n_windows if self.n_windows else 0.0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of windows resolved without invoking the detector."""
        if not self.n_windows:
            return 0.0
        return 1.0 - self.n_scored / self.n_windows

    @property
    def windows_per_s(self) -> float:
        return self.n_windows / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"{self.n_windows} windows, {self.n_flagged} flagged "
            f"({100 * self.flag_ratio:.1f}%), "
            f"{self.n_scored} scored ({100 * self.dedup_ratio:.1f}% dedup), "
            f"{self.windows_per_s:,.0f} windows/s in {self.elapsed_s:.2f}s "
            f"[{self.scan_path} path]"
        ]
        if self.cascade_stats is not None:
            lines.append(self.cascade_stats.summary())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the report as a versioned, canonical JSON document.

        Carries everything numeric — centers, scores, flags, confirmed
        verdicts, telemetry (losslessly, via
        :meth:`~repro.runtime.telemetry.Telemetry.to_state`), cascade
        stats, and the summary fields.  Geometry (the layer, the window
        and core sizes) is deliberately *not* serialized: clips are
        derivable from the layer plus ``centers`` and would dominate the
        wire size.  Keys are sorted, so ``from_json`` → ``to_json``
        round-trips byte-identically.
        """
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dict(self) -> Dict[str, object]:
        """The JSON-ready payload of :meth:`to_json`."""
        return {
            "schema": REPORT_SCHEMA,
            "scan_path": self.scan_path,
            "shard_id": None if self.shard_id is None else int(self.shard_id),
            "plan_digest": (
                None if self.plan_digest is None else str(self.plan_digest)
            ),
            "n_windows": self.n_windows,
            "n_scored": self.n_scored,
            "cache_hits": self.cache_hits,
            "elapsed_s": self.elapsed_s,
            "centers": [[int(x), int(y)] for x, y in self.centers],
            "scores": [float(s) for s in self.scores],
            "flagged": [bool(f) for f in self.flagged],
            "confirmed": (
                None
                if self.confirmed is None
                else [bool(c) for c in self.confirmed]
            ),
            "telemetry": (
                None if self.telemetry is None else self.telemetry.to_state()
            ),
            "cascade_stats": (
                None
                if self.cascade_stats is None
                else self.cascade_stats.as_dict()
            ),
        }

    @classmethod
    def from_json(cls, document: str) -> "ScanReport":
        """Rebuild a report serialized by :meth:`to_json`."""
        return cls.from_dict(json.loads(document))

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScanReport":
        """Rebuild a report from its :meth:`to_dict` payload.

        Schema-1 documents (pre shard provenance) migrate forward: the
        ``shard_id`` / ``plan_digest`` fields default to None, so a
        migrated report re-serializes as a valid schema-2 document.
        Documents from a *newer* schema are refused; the rebuilt report
        has no layer or window geometry (see :meth:`to_json`).
        """
        schema = payload.get("schema")
        if schema not in (1, REPORT_SCHEMA):
            raise ValueError(
                f"unsupported ScanReport schema {schema!r} "
                f"(this build reads {REPORT_SCHEMA})"
            )
        shard_id = payload.get("shard_id")
        plan_digest = payload.get("plan_digest")
        return cls(
            centers=[(int(x), int(y)) for x, y in payload["centers"]],
            scores=np.asarray(payload["scores"], dtype=np.float64),
            flagged=np.asarray(payload["flagged"], dtype=bool),
            confirmed=(
                None
                if payload["confirmed"] is None
                else np.asarray(payload["confirmed"], dtype=bool)
            ),
            telemetry=(
                None
                if payload["telemetry"] is None
                else Telemetry.from_state(payload["telemetry"])
            ),
            cascade_stats=(
                None
                if payload["cascade_stats"] is None
                else CascadeStats(**payload["cascade_stats"])
            ),
            n_windows=int(payload["n_windows"]),
            n_scored=int(payload["n_scored"]),
            cache_hits=int(payload["cache_hits"]),
            elapsed_s=float(payload["elapsed_s"]),
            scan_path=str(payload["scan_path"]),
            shard_id=None if shard_id is None else int(shard_id),
            plan_digest=None if plan_digest is None else str(plan_digest),
        )


def _iter_infer_detectors(detector) -> Iterator:
    """Yield ``detector`` and any cascade stages that expose infer stats."""
    seen = set()
    stack = [detector]
    while stack:
        det = stack.pop()
        if id(det) in seen or det is None:
            continue
        seen.add(id(det))
        if hasattr(det, "infer_stats"):
            yield det
        if isinstance(det, CascadeDetector):
            stack.extend((det.matcher, det.prefilter, det.primary))


def _apply_infer_backend(detector, backend: str) -> bool:
    """Set the inference backend on every backend-aware (sub-)detector.

    Returns True if at least one detector accepted the backend — a
    cascade counts when its primary (or any stage) is backend-aware.
    """
    applied = False
    for det in _iter_infer_detectors(detector):
        if hasattr(det, "set_backend"):
            det.set_backend(backend)
            applied = True
    return applied


def detector_tag(detector, backend: Optional[str] = None) -> str:
    """Whose scores these are: the detector name plus its backends.

    Every backend-aware (sub-)detector appends the inference backend it
    scores with — ``backend`` when a scan overrides it, else its own.
    ``fused-int8`` scores differ from ``fused`` ones, so score caches,
    checkpoints and chip manifests keyed on this tag refuse to cross
    backends instead of replaying another backend's scores.
    """
    backends = [
        backend or det.backend
        for det in _iter_infer_detectors(detector)
        if hasattr(det, "set_backend")
    ]
    name = getattr(detector, "name", type(detector).__name__)
    return "@".join([name, *backends])


def _sum_infer_stats(detector) -> dict:
    """Aggregate ``infer_*`` counters across the detector tree."""
    totals: dict = {}
    for det in _iter_infer_detectors(detector):
        for key, value in det.infer_stats().items():
            totals[key] = totals.get(key, 0) + int(value)
    return totals


def _chunked(items: Iterable, size: int) -> Iterator[list]:
    chunk: list = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


Centers = List[Tuple[int, int]]


def _iter_raster_bands(
    region: Rect,
    window_nm: int,
    step: int,
    pixel_nm: int,
    band_rows: int,
    max_plane_pixels: int,
) -> Iterator[Tuple[Centers, Rect]]:
    """Group the scan grid into shared-raster bands.

    Yields ``(centers, band_rect)`` pairs where ``band_rect`` is the
    union bounding box of the member windows — each band is rasterized
    once and every member window is a slice of that plane.  Bands hold
    ``band_rows`` consecutive window-rows (so vertically overlapping
    windows share pixels; the re-rendered overlap between *bands* is the
    halo that keeps band-edge windows exact).  Centers come out in the
    same global row-major order as :func:`iter_tile_centers`: rows are
    grouped consecutively, and a band is split along x only when it has
    a single row, so concatenating the yielded center lists reproduces
    the clip-path ordering exactly.

    ``max_plane_pixels`` bounds plane memory: row count shrinks first,
    then single rows are segmented into column runs.
    """
    half = window_nm // 2
    xs = list(range(region.x1 + half, region.x2 - window_nm + half + 1, step))
    ys = list(range(region.y1 + half, region.y2 - window_nm + half + 1, step))
    if not xs or not ys:
        return

    def band_rect(x_centers, y_centers) -> Rect:
        lo = Rect.from_center(x_centers[0], y_centers[0], window_nm, window_nm)
        hi = Rect.from_center(x_centers[-1], y_centers[-1], window_nm, window_nm)
        return Rect(lo.x1, lo.y1, hi.x2, hi.y2)

    full_w_px = ((len(xs) - 1) * step + window_nm) // pixel_nm
    max_h_px = max_plane_pixels // max(1, full_w_px)
    rows_fit = (max_h_px * pixel_nm - window_nm) // step + 1
    if rows_fit >= 1:
        rows = min(max(1, band_rows), rows_fit, len(ys))
        for r0 in range(0, len(ys), rows):
            y_band = ys[r0 : r0 + rows]
            yield [(x, y) for y in y_band for x in xs], band_rect(xs, y_band)
        return

    # Even one full-width row busts the pixel budget: segment each row
    # along x (legal only for single-row bands — see ordering note above).
    max_w_px = max_plane_pixels // max(1, window_nm // pixel_nm)
    cols = max(1, (max_w_px * pixel_nm - window_nm) // step + 1)
    for y in ys:
        for c0 in range(0, len(xs), cols):
            x_seg = xs[c0 : c0 + cols]
            yield [(x, y) for x in x_seg], band_rect(x_seg, [y])


@dataclass
class _WindowSource:
    """One scan's windows, and how windows of their kind are scored.

    ``chunks`` yields ``(chunk_centers, materialize)`` pairs in global
    row-major order.  ``materialize()`` cuts the chunk's windows and is
    called at most once per chunk, before the next pair is pulled; a
    resumed chunk is never cut.  Without a cache it returns one pool
    batch: a clip list, or an ``(n, H, W)`` / ``(n, C, h, w)`` stack of
    raster-band / band-feature slices.  With a cache it returns
    ``(keys, windows)``: every window's dedup key and the windows
    themselves (clips, or per-window views of their band).  The rest
    goes with the window kind:

    * ``method`` — the detector call that scores a batch, passed to
      :meth:`WorkerPool.map_scores`,
    * ``pack`` — a list of exemplar windows -> one pool batch.
    """

    chunks: Iterator[Tuple[Centers, Callable[[], Sequence]]]
    method: str
    pack: Callable[[list], object]


class ScanEngine:
    """Streaming, deduplicating, multi-process full-chip scanner.

    Parameters
    ----------
    detector:
        Any fitted :class:`~repro.core.detector.Detector` (a
        :class:`~repro.runtime.cascade.CascadeDetector` gets its stage
        stats surfaced in the report).
    config:
        An :class:`~repro.runtime.config.EngineConfig` grouping every
        policy knob — batching/dedup (``config.batch``), the
        raster-plane fast path (``config.raster``), worker supervision
        (``config.supervision``), checkpointing (``config.checkpoint``),
        and span tracing / metrics / progress
        (``config.observability``).  ``None`` means all defaults.  Use
        :meth:`EngineConfig.from_kwargs
        <repro.runtime.config.EngineConfig.from_kwargs>` to build one
        from the flat option names.
    cache:
        An explicit :class:`ScoreCache` to dedup against (overrides
        ``config.batch.cache_dir``).  Without either, a scan-local cache
        still dedups within the scan; ``batch.dedup=False`` disables
        memoization entirely (every window is scored — the legacy
        ``scan_layer`` contract).
    faults:
        Optional deterministic fault injection: a
        :class:`~repro.runtime.faults.FaultInjector`, a
        :class:`~repro.runtime.faults.FaultPolicy`, or a spec string
        (see :mod:`repro.runtime.faults` for the grammar).
    """

    def __init__(
        self,
        detector,
        config: Optional[EngineConfig] = None,
        *,
        cache: Optional[ScoreCache] = None,
        faults=None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        self.config = config
        self.detector = detector
        batch = config.batch
        backend = batch.infer_backend
        if backend is not None:
            # applied before any worker pickling so spawned workers
            # inherit the backend choice (plans recompile per process)
            applied = _apply_infer_backend(detector, backend)
            if not applied and backend != "layers":
                raise TypeError(
                    f"infer_backend={backend!r} requested but "
                    f"detector {getattr(detector, 'name', type(detector).__name__)!r} "
                    "(and none of its cascade stages) supports set_backend"
                )
        if faults is not None and not isinstance(faults, FaultInjector):
            faults = FaultInjector(faults)
        self.faults: Optional[FaultInjector] = faults
        self._persist_path = None
        # persistent (item-shape)-keyed window-batch buffers for direct
        # raster batches scored in-process (see _raster_chunks)
        self._plane_batch_bufs: Dict[Tuple[int, ...], np.ndarray] = {}
        tag = detector_tag(detector)
        if cache is not None:
            self.cache: Optional[ScoreCache] = cache
        elif batch.cache_dir is not None:
            self.cache = ScoreCache.open_dir(
                batch.cache_dir,
                detector_tag=tag,
                max_entries=batch.max_cache_entries,
            )
            self._persist_path = ScoreCache.dir_path(batch.cache_dir)
        elif batch.dedup:
            self.cache = ScoreCache(
                max_entries=batch.max_cache_entries, detector_tag=tag
            )
        else:
            self.cache = None

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def scan(
        self,
        layer: Layer,
        region: Rect,
        window_nm: int = 768,
        core_nm: int = 256,
        step_nm: Optional[int] = None,
        oracle=None,
        keep_clips: bool = True,
        resume: bool = False,
    ) -> ScanReport:
        """Sweep the detector over all windows of ``region`` (blocking).

        Mirrors :func:`~repro.core.scan.scan_layer` (including the
        ``ValueError`` on a region smaller than one window) and adds the
        engine behaviors.  The report holds centers, window geometry and
        ``layer``; its clips are cut only when asked for, and a verifier
        is handed only the flagged windows.  ``keep_clips`` is accepted
        and ignored.  With a checkpoint directory configured,
        ``resume=True`` restores a prior interrupted scan's progress
        (refusing a checkpoint from a different scan config) and
        continues to a report byte-identical to an uninterrupted run.
        :meth:`start` is the non-blocking counterpart.
        """
        return self._scan(
            layer,
            region,
            window_nm=window_nm,
            core_nm=core_nm,
            step_nm=step_nm,
            oracle=oracle,
            resume=resume,
        )

    def start(
        self,
        layer: Layer,
        region: Rect,
        window_nm: int = 768,
        core_nm: int = 256,
        step_nm: Optional[int] = None,
        oracle=None,
        resume: bool = False,
    ) -> "ScanSession":
        """Run :meth:`scan` on a background thread; return its session.

        The :class:`ScanSession` observes live progress (it is always a
        heartbeat sink, even with observability otherwise off) and
        delivers the final :class:`ScanReport` — or re-raises the scan's
        exception — from :meth:`ScanSession.result`.
        """
        return ScanSession(
            lambda hook: self._scan(
                layer,
                region,
                window_nm=window_nm,
                core_nm=core_nm,
                step_nm=step_nm,
                oracle=oracle,
                resume=resume,
                progress_hook=hook,
            )
        )

    def _scan(
        self,
        layer: Layer,
        region: Rect,
        window_nm: int = 768,
        core_nm: int = 256,
        step_nm: Optional[int] = None,
        oracle=None,
        resume: bool = False,
        progress_hook=None,
    ) -> ScanReport:
        """The actual sweep, shared by :meth:`scan` and :meth:`start`."""
        step = core_nm if step_nm is None else step_nm
        n_windows = count_tile_centers(region, window_nm, step)
        if n_windows == 0:
            raise ValueError("region too small for the clip window")
        scan_path = self._resolve_scan_path(window_nm, step)
        telemetry = Telemetry()
        obs = ScanObservability.for_scan(
            self.config.observability,
            telemetry,
            n_windows,
            extra_progress=progress_hook,
        )
        tracer = obs.tracer
        if self.cache is not None and self.cache.quarantined_from is not None:
            telemetry.count("cache_quarantined")
            tracer.event(
                "cache_quarantine", path=str(self.cache.quarantined_from)
            )
            self.cache.quarantined_from = None
        t0 = perf_counter()
        # baselines for end-of-scan counter deltas: compiled-plan stats
        # and cascade skip tallies accumulate across scans on the
        # detector, so only this scan's contribution is merged below
        # (in-process scoring only: spawned workers keep their own)
        infer_before = _sum_infer_stats(self.detector)
        detector_stats = getattr(self.detector, "stats", None)
        if isinstance(detector_stats, CascadeStats):
            skip_before = (
                detector_stats.filtered_cold,
                detector_stats.matched_hot,
            )
        else:
            skip_before = None
        batch = self.config.batch
        sup = self.config.supervision
        detach = self._attach_tracer(tracer)
        try:
            with tracer.span(
                "scan",
                kind="scan",
                scan_path=scan_path,
                windows=n_windows,
                workers=batch.workers,
                dedup=self.cache is not None,
            ) as scan_span:
                ckpt = self._make_checkpointer(
                    layer, region, window_nm, core_nm, step, scan_path,
                    telemetry, resume, tracer,
                )
                with WorkerPool(
                    self.detector,
                    workers=batch.workers,
                    mp_context=batch.mp_context,
                    chunk_timeout_s=sup.chunk_timeout_s,
                    max_chunk_retries=sup.max_chunk_retries,
                    retry_backoff_s=sup.retry_backoff_s,
                    max_pool_rebuilds=sup.max_pool_rebuilds,
                    degrade_after_failures=sup.degrade_after_failures,
                    on_invalid_score=sup.on_invalid_score,
                    telemetry=telemetry,
                    faults=self.faults,
                    tracer=tracer,
                ) as pool:
                    source = self._window_source(
                        layer, region, window_nm, core_nm, step, scan_path,
                        pool, telemetry,
                    )
                    centers, scores = self._run(
                        source, pool, ckpt, obs, telemetry
                    )

                contracts.require(
                    "(n,):float64",
                    scores,
                    func="ScanEngine.scan",
                    n=len(centers),
                )
                contracts.require_scores(scores, func="ScanEngine.scan")
                flagged = scores >= self.detector.threshold
                contracts.require(
                    "(n,):bool", flagged, func="ScanEngine.scan", n=len(centers)
                )
                n_flagged = int(flagged.sum())
                with tracer.span("verify", kind="phase") as verify_span:
                    confirmed = self._verify(
                        layer, centers, flagged, window_nm, core_nm, oracle,
                        telemetry,
                    )
                    verify_span.set(flagged=n_flagged)
                elapsed = perf_counter() - t0
                telemetry.add_time("total", elapsed)
                infer_after = _sum_infer_stats(self.detector)
                for key in set(infer_before) | set(infer_after):
                    delta = infer_after.get(key, 0) - infer_before.get(key, 0)
                    if delta:
                        telemetry.count(key, delta)
                if skip_before is not None and isinstance(
                    detector_stats, CascadeStats
                ):
                    telemetry.count(
                        "cascade_skip_cold",
                        detector_stats.filtered_cold - skip_before[0],
                    )
                    telemetry.count(
                        "cascade_skip_matched",
                        detector_stats.matched_hot - skip_before[1],
                    )
                if self._persist_path is not None:
                    with tracer.span("cache_save", kind="phase"):
                        with telemetry.timer("cache_save"):
                            self.cache.save(self._persist_path)
                        if self.faults is not None and self.faults.truncate_file(
                            self._persist_path, "cache_truncate"
                        ):
                            telemetry.count("fault_cache_truncate")
                            tracer.event(
                                "fault_fired", point="cache_truncate"
                            )
                if ckpt is not None:
                    ckpt.finalize()
                scan_span.set(
                    n_scored=telemetry.counter("scored"),
                    cache_hits=telemetry.counter("cache_hits")
                    + telemetry.counter("dedup_hits"),
                    flagged=n_flagged,
                )
        except BaseException:  # lint: disable=broad-except  (close the trace file on ANY exit — incl. KeyboardInterrupt — then re-raise)
            tracer.close()
            raise
        finally:
            detach()

        stats = getattr(self.detector, "stats", None)
        report = ScanReport(
            centers=centers,
            scores=scores,
            flagged=flagged,
            confirmed=confirmed,
            window_nm=window_nm,
            core_nm=core_nm,
            layer=layer,
            telemetry=telemetry,
            cascade_stats=stats if isinstance(stats, CascadeStats) else None,
            n_windows=len(centers),
            n_scored=telemetry.counter("scored"),
            cache_hits=telemetry.counter("cache_hits")
            + telemetry.counter("dedup_hits"),
            elapsed_s=elapsed,
            scan_path=scan_path,
        )
        obs.finish(report)
        return report

    def _attach_tracer(self, tracer):
        """Point the cache and cascade at this scan's tracer.

        Returns the detach callable that restores the null tracer —
        collaborators outlive the scan (persistent caches, reused
        detectors), so they must never keep a handle to a closed trace
        stream.
        """
        targets = []
        if self.cache is not None:
            self.cache.tracer = tracer
            targets.append(self.cache)
        if isinstance(self.detector, CascadeDetector):
            self.detector._tracer = tracer
            targets.append(self.detector)

        def detach() -> None:
            for target in targets:
                if target is self.cache:
                    target.tracer = NULL_TRACER
                else:
                    target._tracer = NULL_TRACER

        return detach

    def _make_checkpointer(
        self, layer, region, window_nm, core_nm, step, scan_path, telemetry,
        resume, tracer=NULL_TRACER,
    ) -> Optional[Checkpointer]:
        """Build the per-scan checkpointer (None without a checkpoint dir).

        The config hash covers everything that changes the window
        enumeration or the meaning of a stored score; a resume against a
        checkpoint whose hash differs is refused rather than replayed.
        """
        ckpt_config = self.config.checkpoint
        if ckpt_config.dir is None:
            if resume:
                raise ValueError(
                    "resume=True requires the engine to be constructed "
                    "with checkpoint_dir"
                )
            return None
        mode = "direct" if self.cache is None else "dedup"
        tag = detector_tag(self.detector)
        config_hash = scan_config_hash(
            region=[region.x1, region.y1, region.x2, region.y2],
            window_nm=window_nm,
            core_nm=core_nm,
            step_nm=step,
            scan_path=scan_path,
            mode=mode,
            chunk_clips=self.config.batch.chunk_clips,
            band_rows=self.config.raster.band_rows,
            max_plane_pixels=self.config.raster.max_plane_pixels,
            detector=tag,
            threshold=float(self.detector.threshold),
            layer=layer_signature(layer),
        )
        ckpt_dir = Path(ckpt_config.dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt = Checkpointer(
            ckpt_dir / CHECKPOINT_NAME,
            config_hash=config_hash,
            detector_tag=tag,
            mode=mode,
            every_chunks=ckpt_config.every_chunks,
            telemetry=telemetry,
            faults=self.faults,
            tracer=tracer,
        )
        if resume:
            ckpt.load_for_resume()
        return ckpt

    def _resolve_scan_path(self, window_nm: int, step: int) -> str:
        """Pick "raster" or "clip" per the ``raster_plane`` policy."""
        raster_plane = self.config.raster.raster_plane
        if raster_plane is False:
            return "clip"
        reason = None
        if not supports_raster_scan(self.detector):
            reason = (
                f"detector {getattr(self.detector, 'name', '?')!r} does not "
                "support raster scoring"
            )
        else:
            pixel = self.detector.raster_pixel_nm
            if window_nm % pixel or step % pixel:
                reason = (
                    f"window {window_nm} / step {step} nm not divisible by "
                    f"the detector's {pixel} nm raster pixel"
                )
        if reason is None:
            return "raster"
        if raster_plane is True:
            raise ValueError(f"raster_plane=True but {reason}")
        return "clip"

    # ------------------------------------------------------------------
    # window sources
    # ------------------------------------------------------------------
    def _window_source(
        self, layer, region, window_nm, core_nm, step, scan_path, pool,
        telemetry,
    ) -> _WindowSource:
        """Pick the scan's window kind: clips, raster slices or features.

        The clip path cuts a :class:`Clip` per window.  The raster path
        slices windows out of shared band planes; when the detector can
        share them, it slices a band's feature tensor instead.  With a
        cache, every chunk comes with its windows' dedup keys.
        """
        chunk = self.config.batch.chunk_clips
        keyed = self.cache is not None

        if scan_path == "clip":

            def cut(chunk_centers: Centers):
                with telemetry.timer("extract"):
                    clips = [
                        extract_clip(layer, c, window_nm, core_nm)
                        for c in chunk_centers
                    ]
                if not keyed:
                    return clips
                with telemetry.timer("dedup"):
                    return [clip_fingerprint(c) for c in clips], clips

            centers = iter_tile_centers(region, window_nm, step)
            return _WindowSource(
                chunks=(
                    (cc, partial(cut, cc)) for cc in _chunked(centers, chunk)
                ),
                method="predict_proba",
                pack=list,
            )
        block = self._plane_feature_block(window_nm, step)
        return _WindowSource(
            # the in-process pool scores each direct batch before pulling
            # the next, so those batches may share one buffer; a process
            # pool pickles batches ahead
            chunks=self._raster_chunks(
                layer, region, window_nm, step, telemetry, block, keyed,
                reuse=not keyed and pool.workers == 1,
            ),
            method=(
                "predict_proba_rasters"
                if block is None
                else "predict_proba_features"
            ),
            pack=np.stack,
        )

    def _plane_feature_block(
        self, window_nm: int, step: int
    ) -> Optional[int]:
        """Feature-grid block pitch (px) when the plane path can share it.

        The detector must expose the plane-feature trio
        (``plane_feature_block`` / ``plane_feature_tensor`` /
        ``predict_proba_features``) and both the window size and the
        scan step must land on feature-block boundaries — then every
        window's feature tensor is a slice of one per-band plane
        tensor.  Returns ``None`` (fall back to raster-window batches)
        otherwise.
        """
        if not all(
            callable(getattr(self.detector, name, None))
            for name in (
                "plane_feature_block",
                "plane_feature_tensor",
                "predict_proba_features",
            )
        ):
            return None
        block = self.detector.plane_feature_block()
        if not block:
            return None
        block_nm = int(block) * self.detector.raster_pixel_nm
        if window_nm % block_nm or step % block_nm:
            return None
        return int(block)

    def _raster_chunks(
        self, layer, region, window_nm, step, telemetry, feature_block,
        keyed, reuse,
    ) -> Iterator[Tuple[Centers, Callable[[], object]]]:
        """Band-plane window chunks: paint each band once, slice windows.

        Each band is rasterized once and every member window is a
        pixel-aligned slice of it.  With ``feature_block`` set (see
        :meth:`_plane_feature_block`) the band is feature-transformed
        once too and windows are ``(C, h, w)`` slices of that tensor —
        at the survey geometry windows overlap ~9x, so the per-window
        transform cost drops by the overlap factor.

        ``keyed`` (dedup mode) quantizes the band once as well; each
        window's key hashes its slice of the quantized band, equal to
        :func:`~repro.geometry.rasterize.raster_fingerprint` of its
        raster, and its window stays a view of the band for the runner
        to pack only if it is an unseen pattern.  Otherwise slices are
        copied into a chunk batch (the plane is dropped after its band).
        ``reuse=True`` copies into a persistent engine-owned buffer
        instead of a fresh stack (a chunk of 96x96 float64 windows is
        ~10MB, and faulting in fresh pages every chunk costs real
        per-window time); a batch is then overwritten by the next one,
        so only a consumer that drains each batch before pulling the
        next may ask for it.
        """
        chunk = self.config.batch.chunk_clips
        pixel = self.detector.raster_pixel_nm
        pitch = pixel * (feature_block or 1)
        size = window_nm // pitch
        key_size = window_nm // pixel
        half = window_nm // 2

        def cut(grid, quantized, box: Rect, chunk_centers: Centers):
            # each window's lower-left corner, in nm from the band's
            corners = [
                (cy - half - box.y1, cx - half - box.x1)
                for cx, cy in chunk_centers
            ]
            views = [
                grid[..., y // pitch : y // pitch + size,
                     x // pitch : x // pitch + size]
                for y, x in corners
            ]
            if keyed:
                with telemetry.timer("dedup"):
                    keys = [
                        quantized_fingerprint(
                            quantized[y // pixel : y // pixel + key_size,
                                      x // pixel : x // pixel + key_size]
                        )
                        for y, x in corners
                    ]
                return keys, views
            with telemetry.timer("slice"):
                if not reuse:
                    return np.stack(views)
                item = views[0].shape
                buf = self._plane_batch_bufs.get(item)
                if buf is None or len(buf) < len(views):
                    buf = np.empty(
                        (max(len(views), chunk), *item), dtype=views[0].dtype
                    )
                    self._plane_batch_bufs[item] = buf
                batch = buf[: len(views)]
                for j, view in enumerate(views):
                    np.copyto(batch[j], view)
                return batch

        raster = self.config.raster
        bands = _iter_raster_bands(
            region, window_nm, step, pixel, raster.band_rows,
            raster.max_plane_pixels,
        )
        for band_centers, box in bands:
            with telemetry.timer("rasterize"):
                grid = rasterize_region(layer, box, pixel).grid
            telemetry.count("raster_bands")
            quantized = None
            if keyed:
                with telemetry.timer("dedup"):
                    quantized = quantize_raster(grid)
            if feature_block is not None:
                with telemetry.timer("features"):
                    grid = self.detector.plane_feature_tensor(grid)
                telemetry.count("feature_planes")
            for cc in _chunked(band_centers, chunk):
                yield cc, partial(cut, grid, quantized, box, cc)

    # ------------------------------------------------------------------
    # the runner
    # ------------------------------------------------------------------
    def _run(
        self, source: _WindowSource, pool, ckpt, obs, telemetry
    ) -> Tuple[Centers, np.ndarray]:
        """Score every window ``source`` yields; return centers and scores.

        Without a cache the windows stream through the pool
        (:meth:`_stream`); with one, each distinct pattern is scored once
        (:meth:`_dedup`).  Centers and the window/chunk counters are
        recorded here, once, for both; a chunk replayed from a
        checkpoint was never cut and counts no chunk.
        """
        centers: Centers = []

        def admit(chunk_centers: Centers, cut: bool = True) -> None:
            centers.extend(chunk_centers)
            telemetry.count("windows", len(chunk_centers))
            if cut:
                telemetry.count("chunks")
                telemetry.observe("chunk_clips", len(chunk_centers))

        score = self._stream if self.cache is None else self._dedup
        return centers, score(source, pool, admit, ckpt, obs, telemetry)

    def _stream(
        self, source, pool, admit, ckpt, obs, telemetry
    ) -> np.ndarray:
        """No-cache mode: every chunk's batch goes straight to the pool.

        With a checkpoint loaded for resume, the stored score prefix is
        replayed chunk for chunk (those windows are never cut) and only
        the remainder is dispatched; every newly scored chunk is
        committed to the checkpointer in order.
        """
        prefix: List[np.ndarray] = []

        def batches() -> Iterator[Sequence]:
            for chunk_centers, materialize in source.chunks:
                part = (
                    None
                    if ckpt is None
                    else ckpt.next_resumed_chunk(len(chunk_centers))
                )
                if part is not None:
                    prefix.append(part)
                    admit(chunk_centers, cut=False)
                    telemetry.count("resume_hits", len(chunk_centers))
                    obs.tick("resume")
                    continue
                windows = materialize()
                admit(chunk_centers)
                yield windows

        parts: List[np.ndarray] = []
        with obs.tracer.span("score_stream", kind="phase"):
            with telemetry.timer("score"):
                for part in pool.map_scores(batches(), source.method):
                    parts.append(part)
                    telemetry.count("scored", len(part))
                    if ckpt is not None:
                        ckpt.record_chunk(part)
                    obs.tick("score")
        parts = prefix + parts
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)

    def _dedup(
        self, source, pool, admit, ckpt, obs, telemetry
    ) -> np.ndarray:
        """Cache mode: one pass that scores each unseen pattern once.

        Chunks are cut and keyed in order.  A key this scan has not met
        is settled by the cache, then by a resumed checkpoint's stored
        pairs (loaded before the pass), or else its window becomes the
        pattern's exemplar; every ``chunk_clips`` exemplars go to the
        pool as one batch, and a pattern in flight counts as seen.  The
        pool thus receives the first-seen unsettled patterns in the same
        batches whenever scoring happens, and holds at most about one
        batch of exemplars at a time.  Cache inserts wait for the end of
        the pass, so a bounded cache evicts nothing a later window of
        this scan could still hit.
        """
        cache = self.cache
        chunk = self.config.batch.chunk_clips
        resumed = {} if ckpt is None else ckpt.resumed_fp_scores()
        replayed = set()
        keys: List[str] = []
        #: key -> score for every pattern met; None while not yet scored
        known: Dict[str, Optional[float]] = {}
        pending: Dict[str, object] = {}  # key -> exemplar, first-seen order
        in_flight: "deque[List[str]]" = deque()

        def take() -> list:
            in_flight.append(list(pending))
            exemplars = list(pending.values())
            pending.clear()
            return exemplars

        def batches() -> Iterator[object]:
            for chunk_centers, materialize in source.chunks:
                chunk_keys, windows = materialize()
                full = []
                with telemetry.timer("dedup"):
                    for fp, window in zip(chunk_keys, windows):
                        if fp in known:
                            telemetry.count("dedup_hits")
                            continue
                        cached = cache.get(fp)
                        if cached is not None:
                            known[fp] = cached
                            telemetry.count("cache_hits")
                        elif fp in resumed:
                            known[fp] = resumed[fp]
                            replayed.add(fp)
                            telemetry.count("resume_hits")
                        else:
                            known[fp] = None
                            pending[fp] = window
                            if len(pending) == chunk:
                                full.append(take())
                keys.extend(chunk_keys)
                admit(chunk_centers)
                obs.tick("fingerprint")
                for exemplars in full:
                    yield source.pack(exemplars)
            if pending:
                yield source.pack(take())

        scored: List[str] = []
        with obs.tracer.span("score_dedup", kind="phase") as span:
            with telemetry.timer("score"):
                for part in pool.map_scores(batches(), source.method):
                    batch_fps = in_flight.popleft()
                    for fp, score in zip(batch_fps, part):
                        known[fp] = float(score)
                    scored.extend(batch_fps)
                    telemetry.count("scored", len(part))
                    if ckpt is not None:
                        ckpt.record_fp_chunk(batch_fps, part)
                    obs.tick("score")
            span.set(unique=len(known))
        for fp, score in resumed.items():
            if fp in replayed:
                cache.put(fp, score)
        for fp in scored:
            cache.put(fp, known[fp])
        return np.array([known[fp] for fp in keys], dtype=np.float64)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _verify(
        self, layer, centers, flagged, window_nm, core_nm, oracle, telemetry
    ) -> Optional[np.ndarray]:
        """Oracle-confirm flagged windows (deduped by pattern).

        Each flagged window is cut once, for the verifier; with no
        verifier nothing is cut.
        """
        verifier = oracle
        if verifier is None and isinstance(self.detector, CascadeDetector):
            verifier = self.detector.verifier
        if verifier is None:
            return None
        use_cascade = (
            oracle is None
            and isinstance(self.detector, CascadeDetector)
            and self.detector.verifier is not None
        )
        idx = np.flatnonzero(flagged)
        confirmed = np.empty(len(idx), dtype=bool)
        verdict_by_fp: Dict[str, bool] = {}
        with telemetry.timer("verify"):
            for i, j in enumerate(idx):
                clip = extract_clip(layer, centers[j], window_nm, core_nm)
                fp = clip_fingerprint(clip)
                if fp not in verdict_by_fp:
                    if use_cascade:
                        verdict = bool(
                            self.detector.verify_flagged([clip])[0]
                        )
                    else:
                        verdict = bool(verifier.label(clip))
                    verdict_by_fp[fp] = verdict
                    telemetry.count("verified_unique")
                confirmed[i] = verdict_by_fp[fp]
        telemetry.count("verified", len(idx))
        return confirmed


class ScanSession:
    """Handle to a scan running on a background thread.

    Returned by :meth:`ScanEngine.start`.  The session is wired into the
    scan's progress reporter as an extra sink, so heartbeats arrive here
    regardless of the engine's :class:`ObservabilityConfig
    <repro.runtime.config.ObservabilityConfig>`; :meth:`result` joins
    the thread and either returns the final :class:`ScanReport` or
    re-raises the exception the scan died with.
    """

    def __init__(self, run) -> None:
        self._progress_events: List[ProgressEvent] = []
        self._result: Optional[ScanReport] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, args=(run,), name="repro-scan", daemon=True
        )
        self._thread.start()

    def _run(self, run) -> None:
        try:
            self._result = run(self._on_progress)  # lint: disable=unlocked-shared-mutation  (single writer: only this thread assigns, and readers go through result(), which joins the thread first)
        except BaseException as exc:  # lint: disable=broad-except  (held for re-raise in result(); a session must never swallow nor leak the scan's failure into its own thread)
            self._error = exc  # lint: disable=unlocked-shared-mutation  (same single-writer-then-join protocol as _result above)

    def _on_progress(self, event: ProgressEvent) -> None:
        self._progress_events.append(event)

    @property
    def progress(self) -> Optional[ProgressEvent]:
        """Most recent heartbeat, or None before the first one."""
        events = self._progress_events
        return events[-1] if events else None

    @property
    def progress_events(self) -> List[ProgressEvent]:
        """All heartbeats received so far (oldest first)."""
        return list(self._progress_events)

    def done(self) -> bool:
        """True once the scan finished — successfully or not."""
        return not self._thread.is_alive()

    def result(self, timeout: Optional[float] = None) -> ScanReport:
        """Block for the report; re-raise the scan's failure if it died.

        Raises :class:`TimeoutError` when ``timeout`` (seconds) elapses
        first — the scan keeps running and ``result()`` may be called
        again.
        """
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                f"scan still running after {timeout}s; call result() again"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result
