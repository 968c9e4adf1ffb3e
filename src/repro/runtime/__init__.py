"""Production full-chip scan runtime.

The deployment path of the library: :class:`ScanEngine` streams tile
windows out of a layer, dedups repeated patterns through a content-hash
:class:`ScoreCache`, fans unique clips over a spawn-safe
:class:`WorkerPool`, optionally routes scoring through a staged
:class:`CascadeDetector` (pattern match -> shallow prefilter -> CNN ->
oracle verify), and reports throughput and per-stage resolution via
:class:`Telemetry` inside the returned :class:`ScanReport`.  When the
detector scores rasters, the engine switches to the raster-plane fast
path: each band of scan rows is rasterized once and windows are scored
as batched slices of the shared plane.

Scan execution is fault tolerant: the pool supervises chunks (timeout /
retry / rebuild / in-process degradation), the engine checkpoints
progress atomically and can ``resume=True`` an interrupted scan to a
byte-identical report, corrupt persisted caches are quarantined rather
than fatal, and :mod:`repro.runtime.faults` provides the deterministic
injection harness that proves all of it under test.

Scans are observable end to end: configuration arrives as one grouped,
frozen :class:`EngineConfig` (``ScanEngine(detector, config=...)``;
:meth:`EngineConfig.from_kwargs` builds one from the flat option names),
:meth:`ScanEngine.start` runs the sweep on a background thread behind a
:class:`ScanSession` handle, and :class:`ObservabilityConfig` turns on
the three sinks of :mod:`repro.runtime.trace` /
:mod:`repro.runtime.metrics`: a hierarchical JSONL span log (scan →
phase → chunk, with counter deltas and worker attribution), an
end-of-scan metrics snapshot (JSON + Prometheus text exposition), and
live progress heartbeats — all without perturbing a single score.

Above the single engine, :mod:`repro.runtime.shard` scales to full
chips: :func:`scan_chip` plans halo-overlapped shards
(:class:`ShardPlanner`), executes them on independent engines with
instance-level fingerprint dedup and incremental re-scan
(:class:`ShardRunner`), and merges the per-shard reports
(:func:`merge_reports`) into one report byte-identical to the
monolithic scan.

The legacy :func:`repro.core.scan.scan_layer` entry point delegates here.
"""

from .cache import CacheIntegrityError, ScoreCache
from .cascade import (
    TUNING_SCHEMA,
    CascadeDetector,
    CascadeStats,
    CascadeTuning,
    tune_cascade,
)
from .checkpoint import (
    CHECKPOINT_NAME,
    Checkpointer,
    CheckpointMismatch,
    quarantine_file,
    scan_config_hash,
)
from .config import (
    LEGACY_KWARGS,
    BatchConfig,
    CheckpointConfig,
    ChipScanConfig,
    EngineConfig,
    ObservabilityConfig,
    RasterConfig,
    SupervisionConfig,
)
from .engine import REPORT_SCHEMA, ScanEngine, ScanReport, ScanSession
from .faults import (
    INJECTION_POINTS,
    FaultInjector,
    FaultPolicy,
    FaultRule,
    InjectedFault,
)
from .metrics import (
    BASELINE_COUNTERS,
    INFER_COUNTERS,
    METRICS_SCHEMA,
    SERVICE_COUNTERS,
    SHARD_COUNTERS,
    export_metrics,
    format_snapshot,
    metrics_snapshot,
    to_prometheus,
)
from .pool import WorkerPool
from .shard import (
    MANIFEST_NAME,
    PLAN_SCHEMA,
    ChipManifest,
    ShardPlan,
    ShardPlanner,
    ShardRunner,
    ShardSpec,
    merge_reports,
    scan_chip,
)
from .telemetry import Histogram, Telemetry, Timer
from .trace import (
    NULL_TRACER,
    TRACE_NAME,
    TRACE_SCHEMA,
    ProgressEvent,
    ProgressReporter,
    Tracer,
    read_trace,
)

__all__ = [
    "ScanEngine",
    "ScanReport",
    "ScanSession",
    "REPORT_SCHEMA",
    "EngineConfig",
    "BatchConfig",
    "RasterConfig",
    "SupervisionConfig",
    "CheckpointConfig",
    "ObservabilityConfig",
    "ChipScanConfig",
    "LEGACY_KWARGS",
    "scan_chip",
    "ShardPlanner",
    "ShardPlan",
    "ShardSpec",
    "ShardRunner",
    "merge_reports",
    "ChipManifest",
    "MANIFEST_NAME",
    "PLAN_SCHEMA",
    "ScoreCache",
    "CacheIntegrityError",
    "CascadeDetector",
    "CascadeStats",
    "CascadeTuning",
    "tune_cascade",
    "TUNING_SCHEMA",
    "WorkerPool",
    "Telemetry",
    "Timer",
    "Histogram",
    "Checkpointer",
    "CheckpointMismatch",
    "CHECKPOINT_NAME",
    "quarantine_file",
    "scan_config_hash",
    "FaultInjector",
    "FaultPolicy",
    "FaultRule",
    "InjectedFault",
    "INJECTION_POINTS",
    "Tracer",
    "ProgressEvent",
    "ProgressReporter",
    "read_trace",
    "NULL_TRACER",
    "TRACE_NAME",
    "TRACE_SCHEMA",
    "metrics_snapshot",
    "format_snapshot",
    "to_prometheus",
    "export_metrics",
    "METRICS_SCHEMA",
    "BASELINE_COUNTERS",
    "SERVICE_COUNTERS",
    "INFER_COUNTERS",
    "SHARD_COUNTERS",
]
