"""Grouped, frozen scan-engine configuration: the ``EngineConfig`` surface.

``ScanEngine.__init__`` historically grew one keyword per subsystem until
the front door carried ~20 flat knobs across five concerns.  This module
replaces that with one frozen :class:`EngineConfig` composed of six
grouped sub-configs — construction-time validated, hashable-by-identity,
and safe to share between engines:

* :class:`BatchConfig` — chunking, workers, dedup cache sizing,
* :class:`RasterConfig` — raster-plane fast-path policy,
* :class:`SupervisionConfig` — the WorkerPool retry/rebuild/degrade ladder,
* :class:`CheckpointConfig` — periodic atomic checkpoint/resume,
* :class:`ObservabilityConfig` — span tracing, metrics export, progress
  heartbeats (:mod:`repro.runtime.trace` / :mod:`repro.runtime.metrics`),
* :class:`ChipScanConfig` — full-chip sharding, instance-level dedup,
  and incremental re-scan (:func:`repro.runtime.scan_chip`).

Every flat option name of the pre-config ``ScanEngine`` maps to exactly
one grouped field (:data:`LEGACY_KWARGS`); :meth:`EngineConfig.from_kwargs`
builds a config from those names, and the CLI, the service wire format and
``scan_layer`` all build their configs through it.  ``ScanEngine`` and
``scan_chip`` take only ``config=`` — a flat keyword is a ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

PathLike = Union[str, Path]

#: progress sink spellings accepted by :class:`ObservabilityConfig`
_PROGRESS_SINKS = ("stderr",)


@dataclass(frozen=True)
class BatchConfig:
    """Chunking, worker fan-out, and dedup-cache sizing."""

    workers: int = 1
    chunk_clips: int = 256
    dedup: bool = True
    cache_dir: Optional[PathLike] = None
    max_cache_entries: int = 200_000
    mp_context: str = "spawn"
    #: inference backend applied to backend-aware detectors before the
    #: scan starts: None keeps the detector's own setting, otherwise
    #: "layers" | "fused" | "fused-int8" (see repro.nn.infer)
    infer_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_clips < 1:
            raise ValueError("chunk_clips must be >= 1")
        if self.max_cache_entries < 1:
            raise ValueError("max_cache_entries must be >= 1")
        if self.infer_backend is not None:
            from ..nn.infer import BACKENDS

            if self.infer_backend not in BACKENDS:
                raise ValueError(
                    f"infer_backend must be one of {BACKENDS}, "
                    f"got {self.infer_backend!r}"
                )


@dataclass(frozen=True)
class RasterConfig:
    """Raster-plane fast-path policy and plane memory budget."""

    #: ``None`` auto-selects, ``True`` requires, ``False`` forbids
    raster_plane: Optional[bool] = None
    band_rows: int = 8
    max_plane_pixels: int = 32_000_000

    def __post_init__(self) -> None:
        if self.band_rows < 1:
            raise ValueError("band_rows must be >= 1")
        if self.max_plane_pixels < 1:
            raise ValueError("max_plane_pixels must be >= 1")


@dataclass(frozen=True)
class SupervisionConfig:
    """WorkerPool fault-tolerance ladder (timeout/retry/rebuild/degrade)."""

    chunk_timeout_s: Optional[float] = 300.0
    max_chunk_retries: int = 2
    retry_backoff_s: float = 0.05
    max_pool_rebuilds: int = 1
    degrade_after_failures: int = 8
    on_invalid_score: str = "repair"

    def __post_init__(self) -> None:
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if self.on_invalid_score not in ("repair", "raise"):
            raise ValueError("on_invalid_score must be 'repair' or 'raise'")


@dataclass(frozen=True)
class CheckpointConfig:
    """Periodic atomic checkpointing for ``scan(resume=True)``."""

    dir: Optional[PathLike] = None
    every_chunks: int = 16

    def __post_init__(self) -> None:
        if self.every_chunks < 1:
            raise ValueError("every_chunks must be >= 1")


@dataclass(frozen=True)
class ObservabilityConfig:
    """Span tracing, metrics export, and progress heartbeats.

    All three sinks default off; a default-constructed config keeps the
    scan on the zero-overhead null tracer.

    Parameters
    ----------
    trace_dir:
        Directory for the per-scan JSONL span/event log
        (:data:`repro.runtime.trace.TRACE_NAME`).  ``None`` disables
        tracing entirely.
    metrics:
        Output basename for the end-of-scan metrics snapshot; the scan
        writes ``<metrics>.json`` and ``<metrics>.prom`` (Prometheus
        text exposition) via :func:`repro.runtime.metrics.export_metrics`.
    progress:
        ``"stderr"`` prints heartbeat lines, a callable receives
        :class:`~repro.runtime.trace.ProgressEvent` objects, ``None``
        disables heartbeats (a :class:`~repro.runtime.engine.ScanSession`
        still observes progress through its own hook).
    progress_every_chunks:
        Chunks between heartbeats (the final heartbeat always fires).
    """

    trace_dir: Optional[PathLike] = None
    metrics: Optional[PathLike] = None
    progress: Union[None, str, Callable] = None
    progress_every_chunks: int = 8

    def __post_init__(self) -> None:
        if self.progress_every_chunks < 1:
            raise ValueError("progress_every_chunks must be >= 1")
        if (
            self.progress is not None
            and not callable(self.progress)
            and self.progress not in _PROGRESS_SINKS
        ):
            raise ValueError(
                f"progress must be None, a callable, or one of "
                f"{_PROGRESS_SINKS}, got {self.progress!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when any sink (trace, metrics, progress) is configured."""
        return (
            self.trace_dir is not None
            or self.metrics is not None
            or self.progress is not None
        )


@dataclass(frozen=True)
class ChipScanConfig:
    """Full-chip sharded scan policy (:func:`repro.runtime.scan_chip`).

    The :class:`~repro.runtime.shard.ShardRunner` reads this group; a
    plain :class:`~repro.runtime.engine.ScanEngine` ignores it, so one
    config object can drive both entry points.

    Parameters
    ----------
    shards:
        Target shard count for the planner (1 = monolithic; the planner
        may return fewer shards than requested on small center grids).
        The shards are scanned one after another, each on its own engine
        (which may fan its scoring out over ``workers`` processes).
    halo_nm:
        Overlap margin in nm beyond each shard's owned windows.  ``None``
        defaults to the full window extent, the margin under which every
        boundary window sees exactly the context a monolithic scan does.
    snap_nm:
        Snap shard boundaries to multiples of this pitch (nm), e.g. an
        instance-array pitch so repeated placements land in congruent
        shards.  ``None`` balances shard sizes freely.
    instance_dedup:
        Fingerprint each shard's halo region and replay scores across
        shards whose geometry is an exact translated copy.
    manifest:
        Explicit path for the fingerprint→score manifest written after
        the scan; ``None`` writes ``chip-manifest.npz`` next to the
        checkpoint when a checkpoint dir is configured, else nothing.
    rescan_from:
        Path of a prior scan's manifest (or the directory holding it):
        shards whose region fingerprint is unchanged replay their stored
        scores and only changed-cone shards are re-scored.
    """

    shards: int = 1
    halo_nm: Optional[int] = None
    snap_nm: Optional[int] = None
    instance_dedup: bool = True
    manifest: Optional[PathLike] = None
    rescan_from: Optional[PathLike] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.halo_nm is not None and self.halo_nm < 0:
            raise ValueError("halo_nm must be >= 0 or None")
        if self.snap_nm is not None and self.snap_nm < 1:
            raise ValueError("snap_nm must be >= 1 or None")


@dataclass(frozen=True)
class EngineConfig:
    """The full :class:`~repro.runtime.engine.ScanEngine` configuration."""

    batch: BatchConfig = field(default_factory=BatchConfig)
    raster: RasterConfig = field(default_factory=RasterConfig)
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    chip: ChipScanConfig = field(default_factory=ChipScanConfig)

    @classmethod
    def from_kwargs(cls, **kwargs) -> "EngineConfig":
        """Build a config from the flat option names.

        ``EngineConfig.from_kwargs(workers=4, checkpoint_dir="ckpt")`` sets
        ``batch.workers`` and ``checkpoint.dir`` and leaves every other
        field at its default; unknown names raise ``TypeError`` with the
        offending keys.  :data:`LEGACY_KWARGS` is the name -> field table.
        """
        unknown = sorted(set(kwargs) - set(LEGACY_KWARGS))
        if unknown:
            raise TypeError(
                f"unknown ScanEngine option(s) {unknown}; "
                f"valid flat names: {sorted(LEGACY_KWARGS)}"
            )
        by_group: Dict[str, Dict[str, object]] = {}
        for name, value in kwargs.items():
            group, field_name = LEGACY_KWARGS[name]
            by_group.setdefault(group, {})[field_name] = value
        default = cls()
        return replace(
            default,
            **{
                group: replace(getattr(default, group), **changes)
                for group, changes in by_group.items()
            },
        )


#: flat option name (the pre-``EngineConfig`` ``ScanEngine`` keyword) ->
#: (sub-config attribute, field name); read by :meth:`EngineConfig.from_kwargs`
LEGACY_KWARGS: Dict[str, Tuple[str, str]] = {
    "workers": ("batch", "workers"),
    "chunk_clips": ("batch", "chunk_clips"),
    "dedup": ("batch", "dedup"),
    "cache_dir": ("batch", "cache_dir"),
    "max_cache_entries": ("batch", "max_cache_entries"),
    "mp_context": ("batch", "mp_context"),
    "infer_backend": ("batch", "infer_backend"),
    "raster_plane": ("raster", "raster_plane"),
    "band_rows": ("raster", "band_rows"),
    "max_plane_pixels": ("raster", "max_plane_pixels"),
    "chunk_timeout_s": ("supervision", "chunk_timeout_s"),
    "max_chunk_retries": ("supervision", "max_chunk_retries"),
    "retry_backoff_s": ("supervision", "retry_backoff_s"),
    "max_pool_rebuilds": ("supervision", "max_pool_rebuilds"),
    "degrade_after_failures": ("supervision", "degrade_after_failures"),
    "on_invalid_score": ("supervision", "on_invalid_score"),
    "checkpoint_dir": ("checkpoint", "dir"),
    "checkpoint_every_chunks": ("checkpoint", "every_chunks"),
    "trace_dir": ("observability", "trace_dir"),
    "metrics": ("observability", "metrics"),
    "progress": ("observability", "progress"),
    "progress_every_chunks": ("observability", "progress_every_chunks"),
    "shards": ("chip", "shards"),
    "halo_nm": ("chip", "halo_nm"),
    "snap_nm": ("chip", "snap_nm"),
    "instance_dedup": ("chip", "instance_dedup"),
    "manifest": ("chip", "manifest"),
    "rescan_from": ("chip", "rescan_from"),
}

# every mapped field must actually exist on its sub-config (import-time
# self-check: a typo here would otherwise surface as a confusing
# dataclasses.replace error at first use)
for _name, (_group, _field) in LEGACY_KWARGS.items():
    _cls = EngineConfig.__dataclass_fields__[_group].default_factory
    if _field not in {f.name for f in fields(_cls)}:  # pragma: no cover
        raise AssertionError(f"LEGACY_KWARGS maps {_name} to missing field")
del _name, _group, _field, _cls
