"""Run one benchmark workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` times the public calls with nothing wrapped and prints
the end-to-end metrics; ``--trace 1`` also repeats the timed pass with
every layer's entry points wrapped and prints the per-layer metrics.
The line before the result holds provenance, each metric with its
sample count, and the output checks.  Set-up (imports, labelling, fit,
compile, inputs, warm-up) is repeated :data:`SETUP_REPEATS` times;
``setup_s`` is the import time plus the median repeat.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# import the benchmark as a package and the program from this checkout
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

SETUP_REPEATS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_spans(spans, workload: str, seed: int) -> str:
    """Write the traced pass's spans, one JSON object a line, under the
    checkout's ignored ``.perfbench-tmp/``; the path written."""
    from dataclasses import asdict

    out = ROOT / ".perfbench-tmp" / f"spans-{workload}-{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
    return str(out.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"no program under {ROOT / 'src'}: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    from perfbench import inputs, ledger, served
    from perfbench.provenance import provenance
    from perfbench.spans import Patch, Recorder
    from perfbench.stats import median
    from perfbench.workloads import WORKLOADS

    import repro.api  # noqa: F401  (import cost belongs to set-up)

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED

    workload = None
    repeat_s, phases = [], []
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload]()
        fitted = inputs.fit_detectors(workload.detectors)
        cells = inputs.cell_library()
        workload.prepare(fitted.detectors, cells, args.seed, ROOT)
        workload.warm_up()
        repeat_s.append(time.perf_counter() - t0)
        phases.append(fitted.phase_s)
        if repeat < SETUP_REPEATS - 1:
            workload.close()
            # free the last set-up's cycles before the next one peaks,
            # so peak_rss_mb does not depend on when the collector ran
            del workload, fitted
            gc.collect()

    timed = workload.measure(args.seconds)
    traced = recorder = None
    if args.trace:
        recorder = Recorder()
        with Patch(recorder, ledger.SCAN_TARGETS):
            traced = workload.measure(args.seconds, recorder,
                                      n=len(timed.latencies))
    t0 = time.perf_counter()
    checks = workload.check()
    check_s = time.perf_counter() - t0
    closed = workload.close()

    passes = [p for p in (timed, traced) if p is not None]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "setup_s": import_s + median(repeat_s),
        "peak_rss_mb": served.peak_rss_mb() + closed.get("peak_rss_mb", 0.0),
        "p50_s": median(timed.latencies),
        "failed_share": timed.failed / timed.attempted,
        **timed.metrics,
    }
    samples = {
        "setup_s": len(repeat_s),
        "peak_rss_mb": 2 if "peak_rss_mb" in closed else 1,
        "p50_s": len(timed.latencies),
        "failed_share": timed.attempted,
        **timed.samples,
    }
    units = dict(ledger.END_TO_END + ledger.WORKLOAD_METRICS)
    spans_file = None
    if traced is not None:
        spans = recorder.spans() + closed.get("spans", [])
        spans_file = write_spans(spans, args.workload, args.seed)
        layer_values = ledger.per_layer(
            spans,
            len(traced.latencies),
            {
                **{name: values.get(name, 0.0)
                   for name, _unit in ledger.WORKLOAD_METRICS},
                **timed.layer_metrics,
                "setup.label_s": median([p["label"] for p in phases]),
                "setup.fit_s": median([p["fit"] for p in phases]),
                "setup.compile_s": median([p["compile"] for p in phases]),
                "runtime.shard.score_bit_mismatch": float(
                    checks.get("score_bit_mismatch", 0)),
                "trace.overhead_s": (median(traced.latencies)
                                     - median(timed.latencies)),
            },
        )
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit in ledger.PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in ledger.END_TO_END}

    print(json.dumps({
        "provenance": provenance(ROOT, args.workload, args.seed),
        "metrics": {
            name: {"value": value, "unit": units[name],
                   "samples": samples[name]}
            for name, value in values.items()
        },
        "setup": {"import_s": import_s, "repeat_s": repeat_s,
                  "phases_s": phases},
        "latencies_s": timed.latencies,
        "traced_latencies_s": traced.latencies if traced else None,
        "info": timed.info,
        "loadgen": timed.layer_metrics,
        "check_s": check_s,
        "spans_file": spans_file,
        "checks": checks,
    }, default=str))
    print(json.dumps({
        "correct": bool(checks["ok"]),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
