"""Lightweight scan-engine telemetry: counters, timers, histograms.

Zero-dependency instrumentation for the production scan path.  A
:class:`Telemetry` object is threaded through the engine and its stages;
each primitive is cheap enough to leave on unconditionally:

* **counters** — monotonically increasing event counts (windows seen,
  cache hits, clips scored per cascade stage),
* **timers** — accumulated wall time + call count per named section,
* **histograms** — streaming value distributions (chunk sizes, per-chunk
  latency) with a bounded, deterministic sample for percentile queries.

Everything renders to an aligned text report (``report()``) and to plain
dicts (``as_dict()``) so a :class:`~repro.runtime.engine.ScanReport` can
embed the numbers without dragging the objects along.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Timer:
    """Accumulated wall time over repeated enters of one named section."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, elapsed: float) -> None:
        self.seconds += elapsed
        self.calls += 1

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.seconds / self.calls if self.calls else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "seconds": self.seconds,
            "calls": self.calls,
            "mean_ms": self.mean_ms,
        }


@dataclass
class Histogram:
    """Streaming distribution with a bounded deterministic sample.

    All observations update ``count``/``total``/``min``/``max`` exactly;
    percentiles are estimated from a sample that keeps every ``_stride``-th
    observation, halving itself (and doubling the stride) whenever it
    outgrows ``max_sample``.  The subsampling is deterministic, so repeated
    runs report identical numbers.
    """

    max_sample: int = 512
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    _sample: List[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)

    def observe(self, value: float) -> None:
        value = float(value)
        if self.count % self._stride == 0:
            self._sample.append(value)
            if len(self._sample) > self.max_sample:
                self._sample = self._sample[::2]
                self._stride *= 2
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Sample-based percentile estimate, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be in [0, 100]")
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class Telemetry:
    """Named counters, timers, and histograms for one scan (mergeable)."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, Timer] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timers.setdefault(name, Timer()).add(
                time.perf_counter() - t0
            )

    def add_time(self, name: str, seconds: float) -> None:
        """Record an externally measured duration under ``name``."""
        self.timers.setdefault(name, Timer()).add(seconds)

    def observe(self, name: str, value: float) -> None:
        self.histograms.setdefault(name, Histogram()).observe(value)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def seconds(self, name: str) -> float:
        timer = self.timers.get(name)
        return timer.seconds if timer else 0.0

    def ratio(self, numerator: str, denominator: str) -> float:
        """counter(numerator) / counter(denominator), 0 when undefined."""
        den = self.counter(denominator)
        return self.counter(numerator) / den if den else 0.0

    def rate(self, name: str, timer_name: str) -> float:
        """counter(name) per second of timer(timer_name), 0 when undefined."""
        seconds = self.seconds(timer_name)
        return self.counter(name) / seconds if seconds > 0 else 0.0

    def merge(self, other: "Telemetry") -> None:
        """Fold another telemetry object into this one (for shard merges)."""
        for name, n in other.counters.items():
            self.count(name, n)
        for name, timer in other.timers.items():
            mine = self.timers.setdefault(name, Timer())
            mine.seconds += timer.seconds
            mine.calls += timer.calls
        for name, hist in other.histograms.items():
            mine_h = self.histograms.setdefault(
                name, Histogram(max_sample=hist.max_sample)
            )
            # exact moments merge exactly; the percentile sample re-observes
            for value in hist._sample:
                mine_h.observe(value)
            mine_h.count += hist.count - len(hist._sample)
            mine_h.total += hist.total - sum(hist._sample)
            mine_h.minimum = min(mine_h.minimum, hist.minimum)
            mine_h.maximum = max(mine_h.maximum, hist.maximum)

    # ------------------------------------------------------------------
    # serialization (exact, unlike the lossy as_dict renderings)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Dict]:
        """Lossless plain-dict state for ``ScanReport.to_json``.

        Unlike :meth:`as_dict` (a rendering: derived means, estimated
        percentiles) this carries the raw histogram sample and stride,
        so ``from_state(to_state())`` reproduces every query — including
        percentiles — exactly.
        """
        return {
            "counters": dict(self.counters),
            "timers": {
                k: {"seconds": t.seconds, "calls": t.calls}
                for k, t in self.timers.items()
            },
            "histograms": {
                k: {
                    "max_sample": h.max_sample,
                    "count": h.count,
                    "total": h.total,
                    "min": h.minimum if h.count else None,
                    "max": h.maximum if h.count else None,
                    "sample": list(h._sample),
                    "stride": h._stride,
                }
                for k, h in self.histograms.items()
            },
        }

    @classmethod
    def from_state(cls, state: Dict[str, Dict]) -> "Telemetry":
        """Rebuild a telemetry object saved by :meth:`to_state`."""
        tele = cls()
        tele.counters = {k: int(n) for k, n in state["counters"].items()}
        for name, t in state["timers"].items():
            timer = Timer(seconds=float(t["seconds"]), calls=int(t["calls"]))
            tele.timers[name] = timer
        for name, h in state["histograms"].items():
            hist = Histogram(max_sample=int(h["max_sample"]))
            hist.count = int(h["count"])
            hist.total = float(h["total"])
            hist.minimum = math.inf if h["min"] is None else float(h["min"])
            hist.maximum = -math.inf if h["max"] is None else float(h["max"])
            hist._sample = [float(v) for v in h["sample"]]
            hist._stride = int(h["stride"])
            tele.histograms[name] = hist
        return tele

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict]:
        return {
            "counters": dict(self.counters),
            "timers": {k: t.as_dict() for k, t in self.timers.items()},
            "histograms": {
                k: h.as_dict() for k, h in self.histograms.items()
            },
        }

    def report(self, title: str = "scan telemetry") -> str:
        """Aligned, human-readable text report."""
        lines = [title, "-" * len(title)]
        if self.counters:
            width = max(len(k) for k in self.counters)
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]:>12,}")
        if self.timers:
            width = max(len(k) for k in self.timers)
            lines.append("timers:")
            for name in sorted(self.timers):
                t = self.timers[name]
                lines.append(
                    f"  {name:<{width}}  {t.seconds:>9.3f}s"
                    f"  x{t.calls:<6} {t.mean_ms:>9.2f} ms/call"
                )
        if self.histograms:
            width = max(len(k) for k in self.histograms)
            lines.append("histograms:")
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"  {name:<{width}}  n={h.count:<8} mean={h.mean:<10.3f}"
                    f" p50={h.percentile(50):<10.3f} p95={h.percentile(95):<10.3f}"
                    f" max={h.maximum if h.count else 0.0:.3f}"
                )
        return "\n".join(lines)
