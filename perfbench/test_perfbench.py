"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from perfbench import ledger, served, spans, stats

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------
# percentiles
# --------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= stats.MIN_BEYOND


def test_tail_value_ceiling_and_small_sample_fallback():
    values = [float(i) for i in range(1, 1001)]
    assert stats.tail(values) == (99.0, 990.0)
    assert stats.tail(values, ceiling=90.0) == (90.0, 900.0)
    assert stats.tail(values[:99], ceiling=90.0) == (75.0, 75.0)
    assert stats.tail([3.0, 1.0, 2.0]) == (None, 3.0)


# --------------------------------------------------------------------------
# spans and self time
# --------------------------------------------------------------------------
def _span(sid, parent, t0, t1, thread=0, trace="t"):
    return spans.Span(sid, parent, trace, f"s{sid}", thread, t0, t1)


def test_self_time_counts_overlapping_children_once_across_threads():
    parent = _span(1, None, 0.0, 10.0, thread=1)
    children = [
        _span(2, 1, 1.0, 4.0, thread=2),
        _span(3, 1, 3.0, 6.0, thread=3),  # overlaps span 2
        _span(4, 1, 8.0, 12.0, thread=1),  # runs past the parent
        _span(5, 2, 1.5, 2.0, thread=2),  # grandchild: not the parent's
    ]
    selfs = spans.self_times([parent] + children)
    # children cover [1, 6] and [8, 10] of the parent's [0, 10]
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.5)
    assert selfs[5] == pytest.approx(0.5)


def test_recorder_nests_per_thread_and_links_explicit_parents():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer", trace="job-1")
    inner = rec.open("inner")
    rec.close(inner)
    done = []

    def worker():
        child = rec.open("worker", parent=outer.sid)
        rec.close(child)
        done.append(child)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    rec.close(outer)
    assert inner.parent == outer.sid and inner.trace == "job-1"
    assert done[0].parent == outer.sid and done[0].thread != outer.thread
    assert {s.name for s in rec.spans()} == {"outer", "inner", "worker"}
    selfs = spans.self_times(rec.spans())
    covered = inner.duration + done[0].duration
    assert selfs[outer.sid] == pytest.approx(outer.duration - covered)


def test_uncovered_share_of_calls():
    call = spans.Span(1, None, "c", ledger.CALL_SPAN, 0, 0.0, 10.0)
    layer = [_span(2, 1, 0.0, 4.0, trace="c"), _span(3, 1, 2.0, 6.0, trace="c"),
             _span(4, None, 5.0, 9.0, trace="other")]
    assert ledger.uncovered_share([call] + layer) == pytest.approx(0.4)


# --------------------------------------------------------------------------
# wrappers
# --------------------------------------------------------------------------
def _snapshot(targets):
    out = {}
    for target in targets:
        owner, attr = spans._resolve(target.path)
        out[target.path] = (owner, attr, vars(owner).get(attr, spans._ABSENT))
    return out


def test_install_and_restore_every_target_by_identity():
    targets = ledger.SERVER_TARGETS
    before = _snapshot(targets)
    rec = spans.Recorder()
    with spans.Patch(rec, targets):
        for path, (owner, attr, original) in before.items():
            assert vars(owner)[attr] is not original, path
    for path, (owner, attr, original) in before.items():
        assert vars(owner).get(attr, spans._ABSENT) is original, path


def test_wrappers_record_and_keep_method_kinds():
    class Base:
        def inherited(self, x):
            return x + 1

    class Thing(Base):
        @staticmethod
        def static(x):
            return x * 2

        @classmethod
        def klass(cls, x):
            return (cls.__name__, x)

    import sys
    import types

    module = types.ModuleType("perfbench_fake_module")
    module.Thing = Thing
    sys.modules[module.__name__] = module
    try:
        targets = [
            spans.Target(f"{module.__name__}:Thing.static", "t.static"),
            spans.Target(f"{module.__name__}:Thing.klass", "t.klass"),
            spans.Target(f"{module.__name__}:Thing.inherited", "t.inherited"),
        ]
        originals = {k: vars(Thing).get(k, spans._ABSENT)
                     for k in ("static", "klass", "inherited")}
        rec = spans.Recorder()
        with spans.Patch(rec, targets):
            assert Thing.static(3) == 6
            assert Thing().klass(4) == ("Thing", 4)
            assert Thing().inherited(1) == 2
        assert [s.name for s in rec.spans()] == [
            "t.static", "t.klass", "t.inherited"]
        assert all(s.t1 >= s.t0 for s in rec.spans())
        for name, original in originals.items():
            assert vars(Thing).get(name, spans._ABSENT) is original
        assert "inherited" not in vars(Thing)
    finally:
        del sys.modules[module.__name__]


def test_failed_install_restores_what_it_patched():
    before = _snapshot(ledger.SCAN_TARGETS[:2])
    bad = ledger.SCAN_TARGETS[:2] + (
        spans.Target("repro.runtime.engine:no_such_name", "x"),)
    with pytest.raises(AttributeError):
        spans.Patch(spans.Recorder(), bad).install()
    for path, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, path


# --------------------------------------------------------------------------
# open-loop load accounting
# --------------------------------------------------------------------------
def test_schedule_is_fixed_by_rate_not_by_service():
    plan = served.schedule(100.0, (("low", 10.0), ("high", 20.0)), 10)
    assert [p for p, _ in plan] == ["low"] * 10 + ["high"] * 10
    dues = [d for _, d in plan]
    assert dues[0] == 100.0 and dues[9] == pytest.approx(100.9)
    assert dues[10] == 101.0 and dues[-1] == pytest.approx(101.45)


def test_every_rate_gets_the_same_jobs_within_the_run_time():
    n = served.jobs_per_rate(10.0)
    plan = served.schedule(0.0, served.RATES, n)
    assert len(plan) == n * len(served.RATES)
    last_rate = served.RATES[-1][1]
    assert plan[-1][1] + 1.0 / last_rate == pytest.approx(10.0, abs=0.1)


def test_latency_runs_from_due_and_failures_count_to_give_up():
    ok = served.JobTiming(0, "low", due=1.0, cell=0, sent=1.5,
                          fetched=2.0, ok=True)
    refused = served.JobTiming(1, "low", due=1.1, cell=0, sent=1.6,
                               refused=True)
    assert served.latencies([ok, refused], gave_up=30.0) == [
        pytest.approx(1.0), pytest.approx(28.9)]
    assert ok.late == pytest.approx(0.5)


class _SlowService(BaseHTTPRequestHandler):
    """Accepts a job every ``submit_s`` and finishes it at once."""

    submit_s = 0.02
    counter = iter(range(10**6))

    def log_message(self, *args):
        pass

    def _send(self, body):
        data = body.encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.submit_s)
        self._send(json.dumps({"job_id": f"j{next(self.counter)}"}))

    def do_GET(self):
        if self.path.endswith("/result"):
            self._send("{}")
        else:
            self._send(json.dumps({"state": "succeeded"}))


def test_open_loop_generator_falls_behind_and_counts_it():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowService)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = "http://%s:%d" % server.server_address[:2]
        start = time.perf_counter() + 0.05
        plan = served.schedule(start, (("fast", 200.0),), 20)
        jobs = [served.JobTiming(i, p, d, 0) for i, (p, d) in enumerate(plan)]
        served.run_load(url, [{} for _ in jobs], jobs)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert all(j.ok for j in jobs)
    # due every 5 ms, accepted every >= 20 ms: the i-th job is sent
    # at least 15 ms * i late and its latency includes that wait
    for job in jobs:
        assert job.late >= 0.015 * job.index - 0.005
        assert job.fetched - job.due >= job.late
    assert served.late_p90(jobs) >= 0.015 * 15


# --------------------------------------------------------------------------
# the ledger and BENCHMARK.json agree
# --------------------------------------------------------------------------
def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        ledger.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        ledger.END_TO_END)


def test_per_layer_reports_every_metric_from_no_spans():
    metrics = ledger.per_layer([], 1)
    assert list(metrics) == [name for name, _unit in ledger.PER_LAYER]
    assert all(value == 0.0 for value in metrics.values())
