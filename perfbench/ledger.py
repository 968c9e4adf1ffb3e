"""Which names the traced run wraps, and the per-layer metrics.

Layers are named by module.  Times and counts are per timed call (one
``scan_chip`` call, one array-ECO cycle, or one served job); ratios are
ratios of totals over the traced phase.  A layer that does not run in a
workload reports 0.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import Recorder, Span, Target, clipped, self_times, union_length
from .stats import nearest_rank

CALL_SPAN = "bench.call"
JOB_SPAN = "loadgen.job"

_JOB_PATH = re.compile(r"^/jobs/([^/?]+)")


# --------------------------------------------------------------------------
# observers: counts recorded at the same boundaries as the spans
# --------------------------------------------------------------------------
def _windows(rec: Recorder, span: Span, args: tuple, result) -> None:
    span.attrs["windows"] = float(len(args[1]))


def _hit(rec: Recorder, span: Span, args: tuple, result) -> None:
    span.attrs["hit"] = float(result is not None)


def _hotspot(rec: Recorder, span: Span, args: tuple, result) -> None:
    span.attrs["hotspot"] = float(result)


_ENGINE_COUNTERS = ("scored", "dedup_hits", "chunks", "pool_retries")
_CHIP_COUNTERS = (
    "shard_scans",
    "shard_replays",
    "rescan_shards_rescored",
    "rescan_shards_reused",
)


def _engine_report(rec: Recorder, span: Span, args: tuple, result) -> None:
    span.attrs["windows"] = float(result.n_windows)
    for name in _ENGINE_COUNTERS:
        span.attrs[name] = float(result.telemetry.counter(name))


def _chip_report(rec: Recorder, span: Span, args: tuple, result) -> None:
    for name in _CHIP_COUNTERS:
        span.attrs[name] = float(result.telemetry.counter(name))


def _submitted(rec: Recorder, span: Span, args: tuple, result) -> None:
    span.trace = result.job_id
    rec.set_trace(result.job_id)


def _claimed(rec: Recorder, span: Span, args: tuple, result) -> None:
    if result is None:
        span.attrs["idle"] = 1.0
        return
    span.trace = result.job_id
    rec.set_trace(result.job_id)


def _settled(rec: Recorder, span: Span, args: tuple, result) -> None:
    rec.set_trace(None)


def _request_job(args: tuple) -> Optional[str]:
    match = _JOB_PATH.match(getattr(args[0], "path", ""))
    return match.group(1) if match else None


#: wrapped in the benchmark process (and in the server: its scans run
#: the same engine code)
SCAN_TARGETS: Tuple[Target, ...] = (
    Target("repro.runtime.engine:rasterize_region", "geometry.rasterize"),
    Target("repro.runtime.engine:extract_clip", "geometry.extract_clip"),
    Target("repro.runtime.shard:extract_clip", "geometry.extract_clip"),
    Target("repro.runtime.engine:raster_fingerprint", "geometry.fingerprint"),
    Target("repro.runtime.engine:clip_fingerprint", "geometry.fingerprint"),
    Target("repro.runtime.shard:region_fingerprint",
           "geometry.region_fingerprint"),
    Target("repro.features.dct:DCTFeatureTensor.extract_batch",
           "features.dct", observe=_windows),
    Target("repro.nn.infer:InferencePlan.forward", "nn.infer.forward",
           observe=_windows),
    Target("repro.shallow.adapters:FeatureDetector.predict_proba_rasters",
           "shallow.predict", observe=_windows),
    Target("repro.shallow.adapters:FeatureDetector.predict_proba",
           "shallow.predict", observe=_windows),
    Target("repro.runtime.cache:ScoreCache.get", "runtime.cache.get",
           observe=_hit),
    Target("repro.runtime.cache:ScoreCache.put", "runtime.cache.put"),
    Target("repro.runtime.engine:ScanEngine.scan", "runtime.engine.scan",
           observe=_engine_report),
    Target("repro.runtime.shard:ShardPlanner.plan", "runtime.shard.plan"),
    Target("repro.runtime.shard:ShardRunner.run", "runtime.shard.run",
           observe=_chip_report),
    Target("repro.runtime.shard:ShardRunner.replay_report",
           "runtime.shard.replay"),
    Target("repro.runtime.shard:merge_reports", "runtime.shard.merge"),
    Target("repro.runtime.shard:ChipManifest.save",
           "runtime.shard.manifest_save"),
    Target("repro.runtime.shard:ChipManifest.load",
           "runtime.shard.manifest_load"),
    Target("repro.litho.hotspot:HotspotOracle.label", "litho.label",
           observe=_hotspot),
)

#: wrapped in the server process
SERVER_TARGETS: Tuple[Target, ...] = SCAN_TARGETS + (
    Target("repro.service.http:_Handler.do_GET", "service.handler",
           trace_of=_request_job),
    Target("repro.service.http:_Handler.do_POST", "service.handler"),
    Target("repro.service.fleet:decode_layer", "service.decode"),
    Target("repro.service.manager:JobManager.submit", "service.submit",
           observe=_submitted),
    Target("repro.service.manager:JobManager.claim", "service.claim",
           observe=_claimed),
    Target("repro.service.manager:JobManager.complete", "service.complete",
           observe=_settled),
    Target("repro.service.manager:JobManager.fail", "service.fail",
           observe=_settled),
)

#: every end-to-end metric, in BENCHMARK.json order: (name, unit).
#: ``p50_s`` is the median latency of the workload's timed call: one
#: ``scan_chip`` call (flat; odst, with oracle verification), one
#: array-ECO cycle (sharded scan writing a manifest, then the rescan),
#: or one served job from when it was due until its result was fetched.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_s", "s"),
)

#: each workload's own end-to-end figures, printed on the line before
#: the result with their sample counts: windows/s of one ``scan_chip``
#: call (flat); the sharded scan writing the manifest and the rescan
#: (array-eco); the scan plus oracle verification (odst); and per rate,
#: the median and 90th-percentile job time from due to fetched
#: (served).  Failed or refused operations over those attempted is
#: every workload's.  They exist on one workload each, so the bounded
#: end-to-end set is :data:`END_TO_END`; the traced run prints these
#: first among the per-layer metrics (0 where a workload lacks one).
WORKLOAD_METRICS: Tuple[Tuple[str, str], ...] = (
    ("failed_share", "ratio"),
    ("windows_per_s", "windows/s"),
    ("chip_s", "s"),
    ("rescan_s", "s"),
    ("odst_s", "s"),
    ("job_p50_s.low", "s"),
    ("job_p90_s.low", "s"),
    ("job_p50_s.high", "s"),
    ("job_p90_s.high", "s"),
)

#: every per-layer metric, in BENCHMARK.json order: (name, unit)
PER_LAYER: Tuple[Tuple[str, str], ...] = WORKLOAD_METRICS + (
    ("geometry.rasterize_s", "s"),
    ("geometry.rasterize_calls", "count"),
    ("geometry.extract_clip_s", "s"),
    ("geometry.extract_clip_calls", "count"),
    ("geometry.fingerprint_s", "s"),
    ("features.dct_s", "s"),
    ("features.dct_windows", "count"),
    ("nn.infer.forward_s", "s"),
    ("nn.infer.batches", "count"),
    ("nn.infer.windows", "count"),
    ("nn.infer.windows_per_batch", "windows/batch"),
    ("shallow.predict_s", "s"),
    ("shallow.windows", "count"),
    ("runtime.cache.lookups", "count"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.cache.s", "s"),
    ("runtime.engine.scan_s", "s"),
    ("runtime.engine.self_s", "s"),
    ("runtime.engine.dedup_ratio", "ratio"),
    ("runtime.pool.chunks", "count"),
    ("runtime.pool.retries", "count"),
    ("runtime.shard.plan_s", "s"),
    ("runtime.shard.fingerprint_s", "s"),
    ("runtime.shard.merge_s", "s"),
    ("runtime.shard.manifest_save_s", "s"),
    ("runtime.shard.manifest_load_s", "s"),
    ("runtime.shard.scans", "count"),
    ("runtime.shard.replays", "count"),
    ("runtime.shard.replay_ratio", "ratio"),
    ("runtime.shard.rescored", "count"),
    ("runtime.shard.reused", "count"),
    ("runtime.shard.score_bit_mismatch", "count"),
    ("litho.label_s", "s"),
    ("litho.labels", "count"),
    ("litho.s_per_label", "s"),
    ("litho.confirmed_ratio", "ratio"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_p90_s", "s"),
    ("service.handler_s", "s"),
    ("service.decode_s", "s"),
    ("service.scan_s", "s"),
    ("service.self_s", "s"),
    ("service.requests_per_job", "count"),
    ("service.shed", "count"),
    ("loadgen.late_p90_s", "s"),
    ("setup.label_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.compile_s", "s"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _named(spans: Iterable[Span], *names: str) -> List[Span]:
    return [s for s in spans if s.name in names]


def _total(spans: Iterable[Span]) -> float:
    return sum(s.duration for s in spans)


def _attr(spans: Iterable[Span], key: str) -> float:
    return sum(s.attrs.get(key, 0.0) for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def claim_work(spans: Sequence[Span]) -> Dict[str, Tuple[float, float]]:
    """Per job: (admitted, claimed) from the server's submit/claim spans.

    A claim span opens before its job exists (the worker blocks on the
    queue); only the part after admission is claim work.
    """
    admitted = {
        s.trace: s.t1 for s in _named(spans, "service.submit") if s.trace
    }
    return {
        s.trace: (admitted[s.trace], s.t1)
        for s in _named(spans, "service.claim")
        if s.trace in admitted and not s.attrs.get("idle")
    }


def uncovered_share(spans: Sequence[Span]) -> float:
    """Share of call/job wall time that no layer span of its trace covers."""
    roots = _named(spans, CALL_SPAN, JOB_SPAN)
    by_trace: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.trace is not None and s.name not in (CALL_SPAN, JOB_SPAN):
            by_trace.setdefault(s.trace, []).append((s.t0, s.t1))
    wall = sum(r.duration for r in roots)
    covered = sum(
        union_length(clipped(by_trace.get(r.trace, ()), r.t0, r.t1))
        for r in roots
    )
    return _ratio(wall - covered, wall)


def per_layer(
    spans: Sequence[Span],
    n_calls: int,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced phase's spans.

    ``extra`` supplies the values measured outside the wrappers (set-up
    phases, check results, load-generator figures, overhead).
    """
    work = [s for s in spans if not s.attrs.get("idle")]
    claims = claim_work(work)
    selfs = self_times(work)
    per = 1.0 / max(n_calls, 1)

    engine = _named(work, "runtime.engine.scan")
    chip = _named(work, "runtime.shard.run")
    infer = _named(work, "nn.infer.forward")
    gets = _named(work, "runtime.cache.get")
    cache = gets + _named(work, "runtime.cache.put")
    labels = _named(work, "litho.label")
    service = [s for s in work if s.name.startswith("service.")]

    def service_self(s: Span) -> float:
        if s.name == "service.claim" and s.trace in claims:
            admitted, done = claims[s.trace]
            return done - max(s.t0, admitted)
        return selfs[s.sid]

    scans, replays = _attr(chip, "shard_scans"), _attr(chip, "shard_replays")
    # a fresh scan dedups in its own fingerprint table before asking the
    # score cache: a table hit is a cache lookup that hit
    dedup_hits = _attr(engine, "dedup_hits")
    waits = [done - admitted for admitted, done in claims.values()]
    out = {
        "geometry.rasterize_s": _total(_named(work, "geometry.rasterize")),
        "geometry.rasterize_calls": float(
            len(_named(work, "geometry.rasterize"))),
        "geometry.extract_clip_s": _total(
            _named(work, "geometry.extract_clip")),
        "geometry.extract_clip_calls": float(
            len(_named(work, "geometry.extract_clip"))),
        "geometry.fingerprint_s": _total(_named(
            work, "geometry.fingerprint", "geometry.region_fingerprint")),
        "features.dct_s": _total(_named(work, "features.dct")),
        "features.dct_windows": _attr(_named(work, "features.dct"),
                                      "windows"),
        "nn.infer.forward_s": _total(infer),
        "nn.infer.batches": float(len(infer)),
        "nn.infer.windows": _attr(infer, "windows"),
        "shallow.predict_s": _total(_named(work, "shallow.predict")),
        "shallow.windows": _attr(_named(work, "shallow.predict"), "windows"),
        "runtime.cache.lookups": dedup_hits + len(gets),
        "runtime.cache.s": _total(cache),
        "runtime.engine.scan_s": _total(engine),
        "runtime.engine.self_s": sum(selfs[s.sid] for s in engine),
        "runtime.pool.chunks": _attr(engine, "chunks"),
        "runtime.pool.retries": _attr(engine, "pool_retries"),
        "runtime.shard.plan_s": _total(_named(work, "runtime.shard.plan")),
        "runtime.shard.fingerprint_s": _total(
            _named(work, "geometry.region_fingerprint")),
        "runtime.shard.merge_s": _total(_named(work, "runtime.shard.merge")),
        "runtime.shard.manifest_save_s": _total(
            _named(work, "runtime.shard.manifest_save")),
        "runtime.shard.manifest_load_s": _total(
            _named(work, "runtime.shard.manifest_load")),
        "runtime.shard.scans": scans,
        "runtime.shard.replays": replays,
        "runtime.shard.rescored": _attr(chip, "rescan_shards_rescored"),
        "runtime.shard.reused": _attr(chip, "rescan_shards_reused"),
        "litho.label_s": _total(labels),
        "litho.labels": float(len(labels)),
        "service.handler_s": _total(_named(work, "service.handler")),
        "service.decode_s": _total(_named(work, "service.decode")),
        "service.scan_s": _total(engine) if service else 0.0,
        "service.self_s": sum(service_self(s) for s in service),
        "trace.spans": float(len(spans)),
    }
    out = {name: value * per for name, value in out.items()}
    out.update({
        "nn.infer.windows_per_batch": _ratio(_attr(infer, "windows"),
                                             len(infer)),
        "runtime.cache.hit_ratio": _ratio(dedup_hits + _attr(gets, "hit"),
                                          dedup_hits + len(gets)),
        "runtime.engine.dedup_ratio": 1.0 - _ratio(
            _attr(engine, "scored"), _attr(engine, "windows")
        ) if engine else 0.0,
        "runtime.shard.replay_ratio": _ratio(replays, scans + replays),
        "litho.s_per_label": _ratio(_total(labels), len(labels)),
        "litho.confirmed_ratio": _ratio(_attr(labels, "hotspot"),
                                        len(labels)),
        "service.queue_wait_p50_s": nearest_rank(waits, 50) if waits else 0.0,
        "service.queue_wait_p90_s": nearest_rank(waits, 90) if waits else 0.0,
        "trace.uncovered_share": uncovered_share(spans),
    })
    out.update(extra or {})
    return {name: float(out.get(name, 0.0)) for name, _unit in PER_LAYER}
