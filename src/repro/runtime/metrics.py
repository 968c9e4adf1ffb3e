"""Machine-readable metrics snapshots for completed scans.

The third observability sink: turn a finished
:class:`~repro.runtime.engine.ScanReport` into

* a **JSON snapshot** — one sorted, stable object (schema-versioned)
  that scripts can diff across runs, and
* **Prometheus text exposition** — ``repro_scan_*`` metric families
  suitable for a textfile collector / pushgateway.

Counters that *can* fire but happened not to — every ``fault_<point>``
from :data:`~repro.runtime.faults.INJECTION_POINTS` and the supervision
``pool_*`` family — are seeded at zero (:data:`BASELINE_COUNTERS`), so a
clean run and a faulted run expose the same key set and dashboards never
query a metric that does not exist yet.  ``scan-chip --stats`` prints
the JSON snapshot, and ``--metrics-out BASE`` writes ``BASE.json`` +
``BASE.prom`` via :func:`export_metrics`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple, Union

from .faults import INJECTION_POINTS

PathLike = Union[str, Path]

#: bump when the snapshot layout changes incompatibly
METRICS_SCHEMA = 1

#: the scan-as-a-service job/HTTP counter family (repro.service); seeded
#: here so service dashboards see the full key set from the first scrape
SERVICE_COUNTERS: Tuple[str, ...] = (
    "job_submitted",
    "job_started",
    "job_succeeded",
    "job_failed",
    "job_cancelled",
    "job_retries",
    "job_requeued",
    "job_recovered",
    "job_quarantined",
    "job_shed",
    "job_drained",
    "job_deadline_exceeded",
    "job_deadline_attempt_exceeded",
    "lease_renewed",
    "lease_reaped",
    "lease_lost",
    "service_entry_quarantined",
    "service_rate_limited",
    "service_http_requests",
    "service_http_errors",
)

#: fused-inference-backend and cascade-tuning counter family (PR 7);
#: zero-seeded so a layers-backend or untuned run exposes the same
#: metric key set as a fused/tuned one
INFER_COUNTERS: Tuple[str, ...] = (
    "infer_batches",
    "infer_windows",
    "infer_int8_windows",
    "feature_planes",
    "cascade_skip_cold",
    "cascade_skip_matched",
)

#: full-chip shard fan-out / incremental re-scan counter family
#: (repro.runtime.shard); zero-seeded so monolithic scans expose the
#: same key set as sharded ones
SHARD_COUNTERS: Tuple[str, ...] = (
    "shard_scans",
    "shard_replays",
    "shard_resumed",
    "shard_windows_scanned",
    "shard_windows_replayed",
    "rescan_shards_reused",
    "rescan_shards_rescored",
    "rescan_windows_reused",
    "job_shards_spawned",
    "job_chip_merged",
)

#: counters always present in a snapshot, zero-seeded when they never fired
BASELINE_COUNTERS: Tuple[str, ...] = tuple(
    [f"fault_{point}" for point in INJECTION_POINTS]
    + [
        "pool_degradations",
        "pool_degraded_chunks",
        "pool_rebuilds",
        "pool_retries",
        "pool_timeouts",
        "score_repairs",
        "worker_errors",
        "cache_hits",
        "cache_quarantined",
        "checkpoint_saves",
        "checkpoint_resumed",
        "checkpoint_quarantined",
        "chunks",
        "dedup_hits",
        "raster_bands",
        "resume_hits",
        "verified",
        "verified_unique",
        "windows",
        "scored",
    ]
    + list(SERVICE_COUNTERS)
    + list(INFER_COUNTERS)
    + list(SHARD_COUNTERS)
)


def metrics_snapshot(report) -> Dict[str, object]:
    """One stable dict summarizing a finished scan.

    Keys are sorted at serialization time; the counter block always
    contains :data:`BASELINE_COUNTERS` so consumers can rely on the
    shape regardless of which code paths a particular run exercised.
    """
    tele = report.telemetry
    counters = {name: 0 for name in BASELINE_COUNTERS}
    counters.update(tele.counters)
    return {
        "schema": METRICS_SCHEMA,
        "scan": {
            "scan_path": report.scan_path,
            "n_windows": report.n_windows,
            "n_scored": report.n_scored,
            "n_flagged": report.n_flagged,
            "cache_hits": report.cache_hits,
            "dedup_ratio": (
                1.0 - report.n_scored / report.n_windows
                if report.n_windows
                else 0.0
            ),
            "elapsed_s": report.elapsed_s,
            "windows_per_s": (
                report.n_windows / report.elapsed_s
                if report.elapsed_s > 0
                else 0.0
            ),
        },
        "counters": counters,
        "timers": {k: t.as_dict() for k, t in sorted(tele.timers.items())},
        "histograms": {
            k: h.as_dict() for k, h in sorted(tele.histograms.items())
        },
        "cascade": (
            {}
            if report.cascade_stats is None
            else report.cascade_stats.as_dict()
        ),
    }


def format_snapshot(snapshot: Dict[str, object]) -> str:
    """Canonical JSON rendering: sorted keys, 2-space indent, newline."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sanitize(name: str) -> str:
    """Fold an arbitrary counter/timer name into a metric-name token."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus parsers expect."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a :func:`metrics_snapshot` in Prometheus text exposition.

    Families, all prefixed ``repro_scan_``:

    * scan summary gauges (``windows_total``, ``scored_total``,
      ``flagged_total``, ``dedup_ratio``, ``elapsed_seconds``, ...),
    * one ``repro_scan_events_total{event="..."}`` counter family for
      every telemetry counter (baseline-seeded, sorted by label),
    * ``repro_scan_stage_seconds{stage=...}`` / ``_calls`` for timers,
    * one summary per histogram (``_count``/``_sum`` + p50/p95
      quantiles).
    """
    scan = snapshot["scan"]
    lines = [
        "# HELP repro_scan_info Scan identity (value is always 1).",
        "# TYPE repro_scan_info gauge",
        'repro_scan_info{{scan_path="{}",schema="{}"}} 1'.format(
            _escape_label(str(scan["scan_path"])), snapshot["schema"]
        ),
    ]

    gauges = [
        ("windows_total", scan["n_windows"], "Windows enumerated."),
        ("scored_total", scan["n_scored"], "Windows actually scored."),
        ("flagged_total", scan["n_flagged"], "Windows flagged as hotspots."),
        ("cache_hits_total", scan["cache_hits"], "Dedup cache hits."),
        ("dedup_ratio", scan["dedup_ratio"], "1 - scored/windows."),
        ("elapsed_seconds", scan["elapsed_s"], "Scan wall time."),
        ("windows_per_second", scan["windows_per_s"], "Scan throughput."),
    ]
    for name, value, help_text in gauges:
        metric = f"repro_scan_{name}"
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")

    counters = snapshot["counters"]
    lines.append(
        "# HELP repro_scan_events_total Telemetry event counters by name."
    )
    lines.append("# TYPE repro_scan_events_total counter")
    for name in sorted(counters):
        lines.append(
            'repro_scan_events_total{{event="{}"}} {}'.format(
                _escape_label(name), _fmt(int(counters[name]))
            )
        )

    timers = snapshot["timers"]
    if timers:
        lines.append(
            "# HELP repro_scan_stage_seconds Accumulated stage wall time."
        )
        lines.append("# TYPE repro_scan_stage_seconds gauge")
        for name in sorted(timers):
            lines.append(
                'repro_scan_stage_seconds{{stage="{}"}} {}'.format(
                    _escape_label(name), _fmt(timers[name]["seconds"])
                )
            )
        lines.append("# HELP repro_scan_stage_calls Stage enter count.")
        lines.append("# TYPE repro_scan_stage_calls gauge")
        for name in sorted(timers):
            lines.append(
                'repro_scan_stage_calls{{stage="{}"}} {}'.format(
                    _escape_label(name), _fmt(int(timers[name]["calls"]))
                )
            )

    for name in sorted(snapshot["histograms"]):
        hist = snapshot["histograms"][name]
        metric = f"repro_scan_{_sanitize(name)}"
        lines.append(f"# HELP {metric} Distribution of {name}.")
        lines.append(f"# TYPE {metric} summary")
        for q, key in (("0.5", "p50"), ("0.95", "p95")):
            lines.append(
                '{}{{quantile="{}"}} {}'.format(metric, q, _fmt(hist[key]))
            )
        lines.append(f"{metric}_sum {_fmt(hist['mean'] * hist['count'])}")
        lines.append(f"{metric}_count {_fmt(int(hist['count']))}")

    return "\n".join(lines) + "\n"


def export_metrics(report, out_base: PathLike) -> Tuple[Path, Path]:
    """Write ``<out_base>.json`` and ``<out_base>.prom`` for a report."""
    out_base = Path(out_base)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    snapshot = metrics_snapshot(report)
    json_path = out_base.with_name(out_base.name + ".json")
    prom_path = out_base.with_name(out_base.name + ".prom")
    json_path.write_text(format_snapshot(snapshot), encoding="utf-8")
    prom_path.write_text(to_prometheus(snapshot), encoding="utf-8")
    return json_path, prom_path
