"""Hierarchical span tracing and progress heartbeats for scan runs.

The observability tentpole has three sinks; this module owns two of them:

* **span tracer** — a scan is a tree of spans (``scan`` → ``phase`` →
  ``chunk``).  Every span open/close is one JSON line in the scan's
  trace file, and a close record carries wall time, CPU time, and the
  *delta* of every telemetry counter that moved while the span was open
  — so a chunk span shows exactly how many cache hits, retries, or
  degradations it was responsible for.  Point **events** (checkpoint
  saves, pool retries, cache saves, fault firings) interleave with the
  spans in the same file.
* **progress reporter** — windows/s, dedup ratio, and ETA emitted every
  N chunks to stderr or a callback (:class:`ProgressEvent`).

Tracing off must cost nothing: :data:`NULL_TRACER` is a singleton whose
``span()`` returns one reusable no-op context manager and whose
``event()`` is an empty method — the per-call price is one attribute
lookup and a call, measured (and gated in CI) by
``benchmarks/test_trace_overhead.py``.  The engine threads a tracer
through :class:`~repro.runtime.pool.WorkerPool`,
:class:`~repro.runtime.checkpoint.Checkpointer`,
:class:`~repro.runtime.cache.ScoreCache`, and
:class:`~repro.runtime.cascade.CascadeDetector`; none of them ever
checks "is tracing on" — they emit unconditionally into whichever
tracer they were handed.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Union

from .telemetry import Telemetry

PathLike = Union[str, Path]

#: bump when the JSONL record layout changes incompatibly
TRACE_SCHEMA = 1

#: per-scan trace file name inside ``ObservabilityConfig.trace_dir``
TRACE_NAME = "scan-trace.jsonl"


# --------------------------------------------------------------------------
# null tracer (the always-on default; must be near-zero overhead)
# --------------------------------------------------------------------------
class _NullSpan:
    """Reusable no-op span: context manager + attribute setter."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer: the default when observability is off.

    Every method is a constant-time no-op; ``span()`` hands back one
    shared context manager so the disabled hot path allocates nothing.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, kind: str = "span", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


# --------------------------------------------------------------------------
# real tracer
# --------------------------------------------------------------------------
class _Span:
    """Live span handle: opened by :meth:`Tracer.span`, closed by ``with``."""

    __slots__ = (
        "_tracer",
        "name",
        "kind",
        "span_id",
        "parent_id",
        "_attrs",
        "_close_attrs",
        "_wall0",
        "_cpu0",
        "_counters0",
    )

    def __init__(self, tracer: "Tracer", name: str, kind: str, attrs) -> None:
        self._tracer = tracer
        self.name = name
        self.kind = kind
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._attrs = attrs
        self._close_attrs: Dict[str, object] = {}
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._counters0: Dict[str, int] = {}

    def set(self, **attrs) -> None:
        """Attach attributes that land on the span's *close* record."""
        self._close_attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._tracer._open_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close_span(self, error=exc_type is not None)
        return False


class Tracer:
    """JSONL span/event tracer bound to one scan.

    Records are one JSON object per line, ``sort_keys=True`` so the file
    is byte-stable given identical inputs:

    * ``{"ev": "trace_start", "schema": 1, ...}`` — first line,
    * ``{"ev": "span_open", "id": n, "parent": p, "name": ..., "kind":
      "scan"|"phase"|"chunk", "t": rel_s, ...attrs}``,
    * ``{"ev": "span_close", "id": n, "name": ..., "t": rel_s,
      "wall_s": ..., "cpu_s": ..., "counters": {delta}, ...attrs}``,
    * ``{"ev": "event", "name": ..., "t": rel_s, ...fields}``.

    Counter deltas come from the bound :class:`Telemetry`: a span open
    snapshots the counters, close records only the ones that moved.
    Writes flush per record — a killed scan leaves a readable prefix.
    """

    enabled = True

    def __init__(
        self,
        stream: TextIO,
        telemetry: Optional[Telemetry] = None,
        close_stream: bool = False,
    ) -> None:
        self._stream = stream
        self._close_stream = close_stream
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._t0 = time.perf_counter()
        self._next_id = 1
        self._stack: List[int] = []
        self._closed = False
        self._emit(
            {
                "ev": "trace_start",
                "schema": TRACE_SCHEMA,
                "t": 0.0,
            }
        )

    @classmethod
    def to_dir(
        cls, trace_dir: PathLike, telemetry: Optional[Telemetry] = None
    ) -> "Tracer":
        """Open the canonical per-scan trace file inside ``trace_dir``."""
        directory = Path(trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        stream = open(directory / TRACE_NAME, "w", encoding="utf-8")
        return cls(stream, telemetry=telemetry, close_stream=True)

    @staticmethod
    def path_in(trace_dir: PathLike) -> Path:
        """Where :meth:`to_dir` writes the trace for ``trace_dir``."""
        return Path(trace_dir) / TRACE_NAME

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, kind: str = "span", **attrs) -> _Span:
        """A context manager tracing one span under the current parent."""
        return _Span(self, name, kind, attrs)

    def event(self, name: str, **fields) -> None:
        """One point event, parented to the innermost open span."""
        record = {
            "ev": "event",
            "name": name,
            "t": self._now(),
        }
        if self._stack:
            record["parent"] = self._stack[-1]
        record.update(fields)
        self._emit(record)

    def close(self) -> None:
        """Flush and (when owned) close the underlying stream."""
        if self._closed:
            return
        self._emit({"ev": "trace_end", "t": self._now()})
        self._closed = True
        self._stream.flush()
        if self._close_stream:
            self._stream.close()

    # ------------------------------------------------------------------
    # span plumbing
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return round(time.perf_counter() - self._t0, 6)

    def _open_span(self, span: _Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span.span_id)
        span._wall0 = time.perf_counter()
        span._cpu0 = time.process_time()
        span._counters0 = dict(self.telemetry.counters)
        record = {
            "ev": "span_open",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "t": self._now(),
        }
        record.update(span._attrs)
        self._emit(record)

    def _close_span(self, span: _Span, error: bool = False) -> None:
        wall = time.perf_counter() - span._wall0
        cpu = time.process_time() - span._cpu0
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span.span_id)
        before = span._counters0
        delta = {
            name: count - before.get(name, 0)
            for name, count in self.telemetry.counters.items()
            if count != before.get(name, 0)
        }
        record = {
            "ev": "span_close",
            "id": span.span_id,
            "name": span.name,
            "kind": span.kind,
            "t": self._now(),
            "wall_s": round(wall, 6),
            "cpu_s": round(cpu, 6),
            "counters": delta,
        }
        if error:
            record["error"] = True
        record.update(span._close_attrs)
        self._emit(record)

    def _emit(self, record: Dict[str, object]) -> None:
        if self._closed:
            return
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()


def read_trace(path: PathLike) -> List[Dict[str, object]]:
    """Parse a JSONL trace file back into a list of record dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# --------------------------------------------------------------------------
# progress heartbeats
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat: where the scan is and how fast it is moving."""

    phase: str
    windows_done: int
    windows_total: int
    chunks_done: int
    scored: int
    elapsed_s: float
    windows_per_s: float
    dedup_ratio: float
    eta_s: Optional[float]

    @property
    def fraction(self) -> float:
        if not self.windows_total:
            return 0.0
        return self.windows_done / self.windows_total

    def format(self) -> str:
        eta = "?" if self.eta_s is None else f"{self.eta_s:.1f}s"
        return (
            f"scan {100 * self.fraction:5.1f}% "
            f"[{self.phase}] {self.windows_done}/{self.windows_total} windows, "
            f"{self.windows_per_s:,.0f} w/s, "
            f"{100 * self.dedup_ratio:.0f}% dedup, ETA {eta}"
        )


def _stderr_sink(event: ProgressEvent) -> None:
    print(event.format(), file=sys.stderr)


class ProgressReporter:
    """Emit :class:`ProgressEvent` heartbeats every N chunks.

    Reads everything it reports out of the scan's shared
    :class:`Telemetry` (the ``windows`` / ``scored`` / dedup counters
    the engine already maintains), so reporting adds no bookkeeping to
    the scan runner beyond one :meth:`tick` per chunk.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        windows_total: int,
        every_chunks: int = 8,
        sinks: Sequence[Callable[[ProgressEvent], None]] = (),
    ) -> None:
        if every_chunks < 1:
            raise ValueError("every_chunks must be >= 1")
        self.telemetry = telemetry
        self.windows_total = windows_total
        self.every_chunks = every_chunks
        self.sinks = list(sinks)
        self.events_emitted = 0
        self._chunks = 0
        self._t0 = time.perf_counter()

    @classmethod
    def from_config(
        cls,
        progress,
        telemetry: Telemetry,
        windows_total: int,
        every_chunks: int,
        extra_sink: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> Optional["ProgressReporter"]:
        """Resolve an ``ObservabilityConfig.progress`` spec to a reporter.

        Returns ``None`` when neither a configured sink nor an
        ``extra_sink`` (a :class:`ScanSession` hook) wants events.
        """
        sinks: List[Callable[[ProgressEvent], None]] = []
        if progress == "stderr":
            sinks.append(_stderr_sink)
        elif callable(progress):
            sinks.append(progress)
        if extra_sink is not None:
            sinks.append(extra_sink)
        if not sinks:
            return None
        return cls(
            telemetry, windows_total, every_chunks=every_chunks, sinks=sinks
        )

    def snapshot(self, phase: str) -> ProgressEvent:
        """The current progress, computed from the live telemetry."""
        done = self.telemetry.counter("windows")
        scored = self.telemetry.counter("scored")
        elapsed = time.perf_counter() - self._t0
        rate = done / elapsed if elapsed > 0 else 0.0
        dedup = 1.0 - scored / done if done else 0.0
        eta: Optional[float] = None
        if 0 < done and rate > 0 and self.windows_total >= done:
            eta = (self.windows_total - done) / rate
        return ProgressEvent(
            phase=phase,
            windows_done=done,
            windows_total=self.windows_total,
            chunks_done=self._chunks,
            scored=scored,
            elapsed_s=elapsed,
            windows_per_s=rate,
            dedup_ratio=dedup,
            eta_s=eta,
        )

    def tick(self, phase: str) -> None:
        """Count one processed chunk; emit on the heartbeat cadence."""
        self._chunks += 1
        if self._chunks % self.every_chunks == 0:
            self.emit(phase)

    def emit(self, phase: str) -> None:
        """Force one heartbeat now (the engine calls this at scan end)."""
        event = self.snapshot(phase)
        self.events_emitted += 1
        for sink in self.sinks:
            sink(event)


class ScanObservability:
    """Per-scan bundle of the three sinks the engine threads through.

    ``tracer`` is always usable (:data:`NULL_TRACER` when off) and
    ``tick``/``finish`` are safe to call unconditionally — the engine
    never branches on whether observability is configured.
    """

    def __init__(
        self,
        tracer=NULL_TRACER,
        progress: Optional[ProgressReporter] = None,
        metrics: Optional[PathLike] = None,
    ) -> None:
        self.tracer = tracer
        self.progress = progress
        self.metrics = metrics

    @classmethod
    def off(cls) -> "ScanObservability":
        return cls()

    @classmethod
    def for_scan(
        cls,
        config,
        telemetry: Telemetry,
        windows_total: int,
        extra_progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> "ScanObservability":
        """Build the bundle an ``ObservabilityConfig`` asks for."""
        tracer = (
            Tracer.to_dir(config.trace_dir, telemetry=telemetry)
            if config.trace_dir is not None
            else NULL_TRACER
        )
        progress = ProgressReporter.from_config(
            config.progress,
            telemetry,
            windows_total,
            every_chunks=config.progress_every_chunks,
            extra_sink=extra_progress,
        )
        return cls(tracer=tracer, progress=progress, metrics=config.metrics)

    def tick(self, phase: str) -> None:
        if self.progress is not None:
            self.progress.tick(phase)

    def finish(self, report) -> None:
        """Final heartbeat, metrics export, trace close — in that order."""
        if self.progress is not None:
            self.progress.emit("done")
        if self.metrics is not None:
            from .metrics import export_metrics

            json_path, prom_path = export_metrics(report, self.metrics)
            self.tracer.event(
                "metrics_export",
                json_path=str(json_path),
                prom_path=str(prom_path),
            )
        self.tracer.close()
