"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``gen-data``    generate and cache the benchmark suite
``list``        list registered detectors
``evaluate``    run detectors on benchmarks and print the contest table
``train``       train the CNN detector on a labeled clip file, save weights
``score``       score a clip file with a saved CNN model
``analyze``     litho-analyze a clip file and print per-clip verdicts
``scan``        sweep a saved CNN model over a GDSII layout layer
``scan-chip``   production full-chip scan: cache, cascade, shards, re-scan
``tune-cascade``  sweep prefilter cutoffs for zero-miss cascade skipping
``serve``       run the queued scan service (HTTP job API + worker fleet)
``submit``      submit a GDSII layer to a running scan service
``pattern``     print a clip's raster as ASCII art (debugging aid)
``lint``        per-file AST rules + project-wide semantic pass (CI gate)
``check``       run the detector/extractor conformance harness (CI gate)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _cmd_gen_data(args: argparse.Namespace) -> int:
    from .bench.workloads import cache_dir, get_suite

    suite = get_suite(scale=args.scale, seed=args.seed)
    for benchmark in suite:
        print(benchmark.summary())
    print(f"cached under {cache_dir()}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .core.registry import available

    for name in available():
        print(name)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .bench.harness import pivot_metric, run_matrix
    from .bench.tables import format_table
    from .bench.workloads import get_suite
    from .core.registry import create

    suite = get_suite(scale=args.scale, seed=args.seed)
    if args.benchmarks:
        wanted = set(args.benchmarks.split(","))
        suite = [b for b in suite if b.name in wanted]
    names = args.detectors.split(",")
    factories = {name: (lambda n=name: create(n)) for name in names}
    results = run_matrix(factories, suite, seed=args.seed)
    for metric in ("accuracy", "false_alarms", "odst_seconds"):
        rows = pivot_metric(results, metric=metric, fmt="{:.1f}")
        print(format_table(rows, title=metric))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .data.dataset import ClipDataset
    from .geometry.gdsio import load_clips
    from .nn import CNNDetector, CNNDetectorConfig

    clips, labels = load_clips(args.clips)
    if any(lbl is None for lbl in labels):
        print("training needs a fully labeled clip file", file=sys.stderr)
        return 2
    dataset = ClipDataset(name=str(args.clips), clips=clips, labels=np.asarray(labels))
    detector = CNNDetector(CNNDetectorConfig(epochs=args.epochs))
    report = detector.fit(dataset, rng=np.random.default_rng(args.seed))
    detector.save(args.out)
    print(
        f"trained on {dataset.summary()} in {report.train_seconds:.1f}s; "
        f"threshold={detector.threshold:.3f}; saved to {args.out}"
    )
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    from .geometry.gdsio import load_clips
    from .nn import CNNDetector

    detector = CNNDetector.load(args.model)
    clips, labels = load_clips(args.clips)
    scores = detector.predict_proba(clips)
    flagged = scores >= detector.threshold
    for clip, score, flag, label in zip(clips, scores, flagged, labels):
        known = "" if label is None else f" (label={label})"
        verdict = "HOTSPOT" if flag else "ok"
        print(f"{clip.tag or '-'}: {score:.3f} -> {verdict}{known}")
    print(f"-- {int(flagged.sum())}/{len(clips)} flagged")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .geometry.gdsio import load_clips
    from .litho.hotspot import HotspotOracle

    clips, labels = load_clips(args.clips)
    oracle = HotspotOracle()
    n_hot = 0
    for i, clip in enumerate(clips):
        analysis = oracle.analyze(clip)
        n_hot += analysis.is_hotspot
        verdict = "HOTSPOT" if analysis.is_hotspot else "ok"
        kinds = ",".join(analysis.defect_kinds) or "-"
        known = "" if labels[i] is None else f" (label={labels[i]})"
        print(f"{clip.tag or i}: {verdict} [{kinds}]{known}")
    print(f"-- {n_hot}/{len(clips)} hotspots")
    return 0


def _render_heat(grid: "np.ndarray", threshold: float) -> List[str]:
    """ASCII heat-map rows (top row first).

    Cells the scan never covered (``step_nm`` not evenly tiling the
    region leaves NaN holes in the grid) render as ``' '`` rather than
    being silently treated as cold.
    """
    rows = []
    for row in grid[::-1]:
        rows.append(
            "".join(
                " "
                if np.isnan(s)
                else "#"
                if s >= threshold
                else "+"
                if s >= 0.2
                else "."
                for s in row
            )
        )
    return rows


def _cmd_scan(args: argparse.Namespace) -> int:
    from .core.scan import scan_layer
    from .geometry.gdsii import read_gdsii
    from .nn import CNNDetector

    layout, _db_unit = read_gdsii(args.gds)
    if args.layer not in layout.layers:
        print(
            f"layer {args.layer!r} not in {sorted(layout.layers)}",
            file=sys.stderr,
        )
        return 2
    layer = layout.layer(args.layer)
    detector = CNNDetector.load(args.model)
    region = layer.bbox.expand(-args.margin)
    try:
        result = scan_layer(detector, layer, region)
    except ValueError:
        print(
            f"region {region.width}x{region.height} nm is smaller than one "
            f"768 nm clip window (margin {args.margin} nm); nothing to scan",
            file=sys.stderr,
        )
        return 2
    print(
        f"{len(result.centers)} windows, {result.n_flagged} flagged "
        f"({100 * result.flag_ratio:.0f}%)"
    )
    for row in _render_heat(result.heat_map(), detector.threshold):
        print(row)
    return 0


def _parse_overrides(pairs: List[str]) -> dict:
    """Parse repeated ``--set key=value`` options into typed kwargs."""
    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        value: object
        lowered = raw.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        elif lowered in ("none", "null"):
            value = None
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        overrides[key.replace("-", "_")] = value
    return overrides


def _cmd_scan_chip(args: argparse.Namespace) -> int:
    from .geometry.gdsii import read_gdsii
    from .runtime import CascadeDetector, EngineConfig, scan_chip

    if (args.model is None) == (args.detector is None):
        print("pass exactly one of --model or --detector", file=sys.stderr)
        return 2
    if args.cascade_tuning and not args.cascade:
        print("--cascade-tuning requires --cascade", file=sys.stderr)
        return 2
    layout, _db_unit = read_gdsii(args.gds)
    if args.layer not in layout.layers:
        print(
            f"layer {args.layer!r} not in {sorted(layout.layers)}",
            file=sys.stderr,
        )
        return 2
    layer = layout.layer(args.layer)

    try:
        overrides = _parse_overrides(args.set or [])
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    faults = None
    if args.inject_faults:
        from .runtime import FaultPolicy

        try:
            faults = FaultPolicy.parse(args.inject_faults)
        except ValueError as exc:
            print(f"bad --inject-faults spec: {exc}", file=sys.stderr)
            return 2

    # --- build (and where needed, fit) the detector stack -------------
    if args.model is not None:
        from .nn import CNNDetector

        detector = CNNDetector.load(args.model)
        needs_fit = False
    else:
        from .core.registry import create

        try:
            detector = create(args.detector, **overrides)
        except (KeyError, TypeError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        needs_fit = True

    if needs_fit or args.cascade:
        from .bench.workloads import get_suite

        rng = np.random.default_rng(args.seed)
        train = get_suite(scale=args.scale, seed=args.seed)[0].train
        if needs_fit:
            detector.fit(train, rng=rng)
            # fit() may recalibrate the threshold; an explicit --set wins
            if "threshold" in overrides:
                detector.threshold = float(overrides["threshold"])
        if args.cascade:
            from .core.registry import create

            matcher = create("pattern-fuzzy")
            matcher.fit(train, rng=rng)
            prefilter = create("logistic-density")
            prefilter.fit(train, rng=rng)
            detector = CascadeDetector(
                primary=detector, matcher=matcher, prefilter=prefilter
            )
            if args.cascade_tuning:
                from .runtime import CascadeTuning

                tuning = CascadeTuning.load(args.cascade_tuning)
                detector.apply_tuning(tuning)
                print(f"applied {tuning.summary()}", file=sys.stderr)

    oracle = None
    if args.verify:
        from .litho.hotspot import HotspotOracle

        oracle = HotspotOracle()

    try:
        config = EngineConfig.from_kwargs(
            workers=args.workers,
            cache_dir=args.cache_dir,
            chunk_clips=args.chunk,
            raster_plane=False if args.no_raster_plane else None,
            chunk_timeout_s=args.chunk_timeout,
            max_chunk_retries=args.max_retries,
            on_invalid_score=args.on_invalid_score,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_chunks=args.checkpoint_every,
            trace_dir=args.trace_dir,
            metrics=args.metrics_out,
            progress="stderr" if args.progress else None,
            infer_backend=args.infer_backend,
            shards=args.shards,
            shard_workers=args.shard_workers,
            halo_nm=args.halo_nm,
            snap_nm=args.snap_nm,
            instance_dedup=not args.no_instance_dedup,
            manifest=args.manifest_out,
            rescan_from=args.rescan_from,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    region = layer.bbox.expand(-args.margin)
    try:
        # one code path: monolithic (--shards 1), sharded, or
        # incremental (--rescan-from) all go through scan_chip
        report = scan_chip(
            layer,
            detector,
            config,
            region=region,
            window_nm=args.window,
            core_nm=args.core,
            step_nm=args.step,
            oracle=oracle,
            resume=args.resume,
            faults=faults,
        )
    except (OSError, ValueError) as exc:
        if "too small for the clip window" in str(exc):
            print(
                f"region {region.width}x{region.height} nm is smaller "
                f"than one {args.window} nm clip window (margin "
                f"{args.margin} nm); nothing to scan",
                file=sys.stderr,
            )
            return 2
        # checkpoint mismatch, bad cache/manifest dir, resume errors, ...
        print(str(exc), file=sys.stderr)
        return 2

    print(report.summary())
    if report.confirmed is not None and report.n_flagged:
        print(
            f"verified: {int(report.confirmed.sum())}/{report.n_flagged} "
            "flagged windows confirmed by lithography"
        )
    if args.map:
        for row in _render_heat(report.heat_map(), detector.threshold):
            print(row)
    if args.report_json:
        report_path = Path(args.report_json)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(report.to_json() + "\n")
        print(f"report written to {report_path}", file=sys.stderr)
    if args.stats:
        from .runtime import format_snapshot, metrics_snapshot

        print()
        print(format_snapshot(metrics_snapshot(report)), end="")
    return 0


def _cmd_tune_cascade(args: argparse.Namespace) -> int:
    from .bench.workloads import get_suite
    from .core.registry import create
    from .runtime import CascadeDetector, tune_cascade

    rng = np.random.default_rng(args.seed)
    benchmark = get_suite(scale=args.scale, seed=args.seed)[0]

    try:
        primary = create(args.detector)
        prefilter = create(args.prefilter)
    except (KeyError, TypeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cascade = CascadeDetector(primary=primary, prefilter=prefilter)
    cascade.fit(benchmark.train, rng=rng)

    # tune on the held-out split so the zero-miss guarantee is measured
    # on windows the prefilter never saw during fit
    tuning = tune_cascade(cascade, benchmark.test)
    print(tuning.summary())
    print(f"{'cutoff':>10}  {'skip_rate':>9}  {'missed_hot':>10}")
    for cutoff, skip_rate, missed in tuning.sweep:
        marker = " <- tuned" if cutoff == tuning.filter_cutoff else ""
        print(f"{cutoff:>10.6f}  {skip_rate:>9.1%}  {missed:>10d}{marker}")
    if args.out is not None:
        path = tuning.save(args.out)
        print(f"tuning written to {path}", file=sys.stderr)
    return 0


def _build_service_detector(args: argparse.Namespace):
    """The detector stack a service fleet scans with (scan-chip rules)."""
    if (args.model is None) == (args.detector is None):
        raise ValueError("pass exactly one of --model or --detector")
    if args.model is not None:
        from .nn import CNNDetector

        return CNNDetector.load(args.model)
    from .bench.workloads import get_suite
    from .core.registry import create

    detector = create(args.detector)
    rng = np.random.default_rng(args.seed)
    train = get_suite(scale=args.scale, seed=args.seed)[0].train
    detector.fit(train, rng=rng)
    return detector


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import (
        FileJobQueue,
        FileJobStore,
        FileResultStore,
        InMemoryJobQueue,
        InMemoryJobStore,
        InMemoryResultStore,
        JobManager,
        TokenBucketRateLimiter,
        WorkerFleet,
        serve,
    )

    try:
        detector = _build_service_detector(args)
    except (ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    checkpoint_root = None
    if args.state_dir is not None:
        state_dir = Path(args.state_dir)
        store = FileJobStore(state_dir)
        queue = FileJobQueue(state_dir)
        results = FileResultStore(state_dir)
        checkpoint_root = state_dir / "checkpoints"
    else:
        store = InMemoryJobStore()
        queue = InMemoryJobQueue()
        results = InMemoryResultStore()

    limiter = None
    if args.rate > 0:
        limiter = TokenBucketRateLimiter(args.rate, burst=args.burst)
    manager = JobManager(
        store,
        queue,
        results,
        rate_limiter=limiter,
        max_attempts=args.max_attempts,
        checkpoint_root=checkpoint_root,
        lease_duration_s=args.lease,
        max_queue_depth=args.max_queue_depth,
        default_deadline_s=args.deadline,
        default_attempt_deadline_s=args.attempt_deadline,
    )
    fleet = WorkerFleet(manager, detector, workers=args.workers)
    service = serve(manager, fleet=fleet, host=args.host, port=args.port)
    host, port = service.address
    print(
        f"scan service on http://{host}:{port} "
        f"({args.workers} worker(s), "
        f"state={'in-memory' if args.state_dir is None else args.state_dir})",
        file=sys.stderr,
    )

    import signal
    import threading

    def on_sigterm(signum, frame) -> None:
        # rolling-restart protocol: drain off the signal handler's
        # thread (joining workers inside a handler can deadlock)
        print("SIGTERM: draining", file=sys.stderr)
        threading.Thread(
            target=service.drain,
            kwargs={"timeout": args.drain_grace},
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        # serve until a drain completes (SIGTERM or DELETE /drain) or
        # the operator interrupts
        service.drained.wait()
        print("drained: in-flight work requeued, exiting", file=sys.stderr)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.stop()
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url, client_id=args.client)
    try:
        status = client.drain()
    except (ServiceError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"drain started ({status.get('status', 'draining')})")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .geometry.gdsii import read_gdsii
    from .service import (
        ServiceClient,
        ServiceError,
        WireError,
        encode_job_request,
    )

    layout, _db_unit = read_gdsii(args.gds)
    if args.layer not in layout.layers:
        print(
            f"layer {args.layer!r} not in {sorted(layout.layers)}",
            file=sys.stderr,
        )
        return 2
    layer = layout.layer(args.layer)
    region = layer.bbox.expand(-args.margin)
    try:
        engine = _parse_overrides(args.engine or [])
        request = encode_job_request(
            layer,
            region,
            window_nm=args.window,
            core_nm=args.core,
            step_nm=args.step,
            engine=engine,
        )
    except (ValueError, WireError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    client = ServiceClient(args.url, client_id=args.client)
    try:
        status = client.submit(request)
        job_id = str(status["job_id"])
        print(f"submitted job {job_id} ({status['state']})")
        if args.no_wait:
            return 0
        client.wait(job_id, timeout_s=args.timeout, poll_s=args.poll)
        document = client.result(job_id)
    except (ServiceError, TimeoutError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.out is not None:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(document + "\n")
        print(f"report written to {out_path}", file=sys.stderr)
    else:
        print(document)
    return 0


def _cmd_pattern(args: argparse.Namespace) -> int:
    from .geometry.gdsio import load_clips
    from .geometry.rasterize import rasterize_clip

    clips, _labels = load_clips(args.clips)
    if not 0 <= args.index < len(clips):
        print(f"index out of range (file has {len(clips)} clips)", file=sys.stderr)
        return 2
    clip = clips[args.index]
    raster = rasterize_clip(clip, pixel_nm=args.pixel, antialias=False)
    chars = np.where(raster >= 0.5, "#", ".")
    for row in chars[::-1]:  # print top row first
        print("".join(row))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        all_rules,
        all_semantic_rules,
        analyze_paths,
        format_findings,
        format_sarif,
    )

    if args.list_rules:
        for name, rule_cls in sorted(all_rules().items()):
            print(f"{name}: {rule_cls.description}")
        for name, rule_cls in sorted(all_semantic_rules().items()):
            print(f"{name} [semantic/{rule_cls.scope}]: {rule_cls.description}")
        return 0
    if not args.paths:
        print("lint needs at least one path (or --list-rules)", file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    cache_dir = None if args.no_cache else args.cache_dir
    try:
        result = analyze_paths(
            args.paths,
            select=select,
            semantic=not args.no_semantic,
            cache_dir=cache_dir,
            jobs=args.jobs,
        )
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    findings = result.findings
    if args.format == "sarif":
        output = format_sarif(findings)
    else:
        output = format_findings(findings, fmt=args.format)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(output + "\n", encoding="utf-8")
    elif output:
        print(output)
    if args.stats:
        print(
            json.dumps({"stats": result.stats.as_dict()}, indent=2),
            file=sys.stderr,
        )
    if args.format == "text" and findings and args.out is None:
        print(f"-- {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .contracts import (
        check_registered_detectors,
        check_registered_extractors,
    )

    detector_names = args.detectors.split(",") if args.detectors else None
    extractor_names = args.extractors.split(",") if args.extractors else None
    reports = {}
    if not args.extractors_only:
        reports.update(
            check_registered_detectors(names=detector_names, seed=args.seed)
        )
    if not args.detectors_only:
        reports.update(check_registered_extractors(names=extractor_names))
    failures = 0
    for name in sorted(reports):
        report = reports[name]
        failures += len(report.diagnostics)
        print(report.summary())
    total_checks = sum(r.checks_run for r in reports.values())
    print(
        f"-- {len(reports)} subjects, {total_checks} checks, "
        f"{failures} violation(s)"
    )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="lithography hotspot detection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and cache the benchmark suite")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("list", help="list registered detectors")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("evaluate", help="evaluate detectors on the suite")
    p.add_argument(
        "--detectors", default="pattern-fuzzy,svm-ccas,cnn-dct",
        help="comma-separated registry names",
    )
    p.add_argument("--benchmarks", default="", help="e.g. B1,B2 (default: all)")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("train", help="train the CNN on a labeled clip file")
    p.add_argument("clips", type=Path)
    p.add_argument("--out", type=Path, default=Path("cnn-model.npz"))
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("score", help="score a clip file with a saved model")
    p.add_argument("model", type=Path)
    p.add_argument("clips", type=Path)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("analyze", help="litho-analyze a clip file")
    p.add_argument("clips", type=Path)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("scan", help="scan a GDSII layer with a saved model")
    p.add_argument("model", type=Path)
    p.add_argument("gds", type=Path)
    p.add_argument("--layer", default="L1")
    p.add_argument("--margin", type=int, default=0, help="inset from the bbox (nm)")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser(
        "scan-chip",
        help="production full-chip scan (cache, cascade, worker pool)",
    )
    p.add_argument("gds", type=Path)
    p.add_argument("--model", type=Path, default=None, help="saved CNN (npz)")
    p.add_argument(
        "--detector",
        default=None,
        help="registry name; fitted on the cached benchmark suite",
    )
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="detector factory override (repeatable), e.g. threshold=0.6",
    )
    p.add_argument("--layer", default="L1")
    p.add_argument("--margin", type=int, default=0, help="inset from the bbox (nm)")
    p.add_argument("--window", type=int, default=768)
    p.add_argument("--core", type=int, default=256)
    p.add_argument("--step", type=int, default=None)
    p.add_argument("--workers", type=int, default=1, help="scoring processes")
    p.add_argument(
        "--shards", type=int, default=1,
        help="split the chip into this many halo-overlapped shards "
        "(1 = monolithic; the merged report is byte-identical either way)",
    )
    p.add_argument(
        "--shard-workers", type=int, default=1,
        help="shards scanned concurrently, each on its own engine",
    )
    p.add_argument(
        "--halo-nm", type=int, default=None,
        help="shard overlap margin in nm (default: the full window "
        "extent, which preserves monolithic scores at shard seams)",
    )
    p.add_argument(
        "--snap-nm", type=int, default=None,
        help="snap shard boundaries to this pitch (nm), e.g. the "
        "instance-array pitch, so repeated cells shard congruently",
    )
    p.add_argument(
        "--no-instance-dedup", action="store_true",
        help="score every shard even when its geometry is an exact "
        "translated copy of an already-scored shard",
    )
    p.add_argument(
        "--manifest-out", type=Path, default=None,
        help="write the fingerprint->score manifest here (default: "
        "chip-manifest.npz inside --checkpoint-dir, if any)",
    )
    p.add_argument(
        "--rescan-from", type=Path, default=None,
        help="incremental re-scan: replay shards whose fingerprint is "
        "unchanged since this manifest (or its directory) and re-score "
        "only the changed cone",
    )
    p.add_argument(
        "--cascade",
        action="store_true",
        help="wrap the detector in the pattern-match -> prefilter cascade",
    )
    p.add_argument(
        "--cascade-tuning",
        type=Path,
        default=None,
        help="apply a saved tune-cascade JSON to the cascade prefilter "
        "cutoff (requires --cascade)",
    )
    p.add_argument(
        "--infer-backend",
        choices=("layers", "fused", "fused-int8"),
        default=None,
        help="CNN inference backend: layers (reference), fused "
        "(conv+BN folding, batched GEMM), fused-int8 (quantized weights)",
    )
    p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persist the dedup score cache here across scans",
    )
    p.add_argument("--chunk", type=int, default=256, help="clips per chunk")
    p.add_argument(
        "--no-raster-plane",
        action="store_true",
        help="force the per-clip reference scan path (raster-plane "
        "batching is used automatically when the detector supports it)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="litho-verify flagged windows (slow)",
    )
    p.add_argument(
        "--chunk-timeout", type=float, default=300.0,
        help="seconds a worker may spend on one chunk before it is retried",
    )
    p.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per chunk before rebuilding the pool / degrading",
    )
    p.add_argument(
        "--on-invalid-score", choices=("repair", "raise"), default="repair",
        help="rescore NaN/out-of-range chunks in-process, or fail the scan",
    )
    p.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="directory for periodic atomic scan checkpoints",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=16,
        help="scored chunks between checkpoint saves",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted scan from --checkpoint-dir",
    )
    p.add_argument(
        "--inject-faults", default="",
        help="deterministic fault-injection spec, e.g. "
        "'seed=1,worker_crash@0,chunk_error=0.1' (testing/drills only)",
    )
    p.add_argument(
        "--trace-dir", type=Path, default=None,
        help="write the hierarchical JSONL span trace into this directory",
    )
    p.add_argument(
        "--metrics-out", type=Path, default=None,
        help="metrics snapshot base path; writes <base>.json and <base>.prom",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="print live progress heartbeats (windows/s, dedup, ETA) to stderr",
    )
    p.add_argument(
        "--report-json", type=Path, default=None,
        help="write the versioned ScanReport JSON artifact here",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the structured metrics snapshot (stable JSON)",
    )
    p.add_argument(
        "--map", action="store_true", help="print the ASCII hotspot map"
    )
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(fn=_cmd_scan_chip)

    p = sub.add_parser(
        "tune-cascade",
        help="sweep prefilter cutoffs for max CNN-skip at zero missed hotspots",
    )
    p.add_argument(
        "--detector",
        default="cnn-dct",
        help="registered primary detector name (default: cnn-dct)",
    )
    p.add_argument(
        "--prefilter",
        default="logistic-density",
        help="registered prefilter detector name (default: logistic-density)",
    )
    p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the tuning JSON here (consumed by scan-chip "
        "--cascade-tuning)",
    )
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(fn=_cmd_tune_cascade)

    p = sub.add_parser(
        "serve", help="run the queued scan service (HTTP API + worker fleet)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787, help="0 = ephemeral")
    p.add_argument("--workers", type=int, default=1, help="scan worker threads")
    p.add_argument("--model", type=Path, default=None, help="saved CNN (npz)")
    p.add_argument(
        "--detector",
        default=None,
        help="registry name; fitted on the cached benchmark suite",
    )
    p.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        help="durable service state (jobs/queue/results/checkpoints); "
        "default keeps everything in memory",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="claims per job (first run + checkpoint-resumed retries)",
    )
    p.add_argument(
        "--rate", type=float, default=0.0,
        help="submissions/second allowed per client (0 = unlimited)",
    )
    p.add_argument(
        "--burst", type=int, default=None,
        help="token-bucket burst size (default: max(1, rate))",
    )
    p.add_argument(
        "--lease", type=float, default=30.0,
        help="worker lease duration (s); expired leases are reaped and "
        "the job requeued (default: 30)",
    )
    p.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="shed submissions (503 + Retry-After) past this many "
        "pending jobs (default: unlimited)",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="default per-job wall-clock budget (s), queue wait included",
    )
    p.add_argument(
        "--attempt-deadline", type=float, default=None,
        help="default per-attempt wall-clock budget (s)",
    )
    p.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="seconds a SIGTERM drain waits for in-flight attempts to "
        "checkpoint and requeue (default: 30)",
    )
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "drain",
        help="gracefully drain a running scan service (DELETE /drain)",
    )
    p.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8787")
    p.add_argument("--client", default=None, help="X-Client id")
    p.set_defaults(fn=_cmd_drain)

    p = sub.add_parser(
        "submit", help="submit a GDSII layer to a running scan service"
    )
    p.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8787")
    p.add_argument("gds", type=Path)
    p.add_argument("--layer", default="L1")
    p.add_argument("--margin", type=int, default=0, help="inset from the bbox (nm)")
    p.add_argument("--window", type=int, default=768)
    p.add_argument("--core", type=int, default=256)
    p.add_argument("--step", type=int, default=None)
    p.add_argument(
        "--engine",
        action="append",
        metavar="KEY=VALUE",
        help="client-settable engine option (repeatable), e.g. workers=2",
    )
    p.add_argument(
        "--no-wait", action="store_true",
        help="submit and print the job id without polling for the result",
    )
    p.add_argument("--timeout", type=float, default=300.0, help="wait deadline (s)")
    p.add_argument("--poll", type=float, default=0.2, help="poll period (s)")
    p.add_argument(
        "--out", type=Path, default=None,
        help="write the ScanReport JSON here instead of stdout",
    )
    p.add_argument("--client", default=None, help="X-Client id for rate limiting")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("pattern", help="ASCII-render a clip")
    p.add_argument("clips", type=Path)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--pixel", type=int, default=16)
    p.set_defaults(fn=_cmd_pattern)

    p = sub.add_parser(
        "lint", help="project-specific AST lint pass (exit 1 on findings)"
    )
    p.add_argument("paths", nargs="*", help="files or directories to lint")
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="diagnostic output format",
    )
    p.add_argument(
        "--select", default="",
        help="comma-separated rule names to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    p.add_argument(
        "--out", type=Path, default=None,
        help="write the formatted findings to a file instead of stdout",
    )
    p.add_argument(
        "--no-semantic", action="store_true",
        help="per-file rules only (skip the project-wide semantic pass)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the incremental cache",
    )
    p.add_argument(
        "--cache-dir", type=Path, default=Path(".lint_cache"),
        help="incremental cache directory (default: .lint_cache)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for parsing cache misses (default: 1)",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print incremental-analysis statistics to stderr",
    )
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "check",
        help="detector/extractor conformance harness (exit 1 on violations)",
    )
    p.add_argument(
        "--detectors", default="",
        help="comma-separated registry names (default: all)",
    )
    p.add_argument(
        "--extractors", default="",
        help="comma-separated extractor names (default: all)",
    )
    p.add_argument(
        "--detectors-only", action="store_true",
        help="skip the extractor sweep",
    )
    p.add_argument(
        "--extractors-only", action="store_true",
        help="skip the detector sweep",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
