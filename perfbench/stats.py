"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Optional, Sequence, Tuple

#: percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a percentile is only reported when this many samples lie beyond it
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples,
    in exact arithmetic (``99.9 / 100 * 10000`` is not 9990 in floats)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``p``-th."""
    return n - rank(n, p)


def tail_percentile(n: int, ceiling: float = 100.0) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` up to ``ceiling`` with at
    least :data:`MIN_BEYOND` of ``n`` samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if p <= ceiling and samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values: Sequence[float], ceiling: float = 100.0
         ) -> Tuple[Optional[float], float]:
    """``(percentile, value)`` of the highest supported percentile up to
    ``ceiling``.

    With too few samples for any percentile the slowest sample stands
    in, reported with percentile None.
    """
    p = tail_percentile(len(values), ceiling)
    if p is None:
        return None, max(values)
    return p, nearest_rank(values, p)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
