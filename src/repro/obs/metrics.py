"""Fixed-bucket latency histograms.

:class:`~repro.serve.stats.ServeStats` keeps its wait/service latencies
in these: bucket
upper bounds (defaults sized for millisecond latencies) and p50/p95/p99
by nearest-rank walk with linear interpolation inside the bucket —
O(#buckets), no sample retention, safe to keep on the hot path.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable

__all__ = ["LATENCY_BUCKETS_MS", "Histogram"]

#: Default histogram bucket upper bounds for millisecond latencies:
#: ~50us floor up to 10s, roughly 1-2.5-5 per decade. Values above the
#: last bound land in the overflow bucket, whose upper edge for
#: interpolation is the largest value seen.
LATENCY_BUCKETS_MS = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    10000.0,
)


class Histogram:
    """Fixed-bucket histogram with nearest-rank percentiles.

    ``bounds`` are inclusive upper edges; observations above the last
    bound count in an implicit overflow bucket. Percentiles walk the
    cumulative counts to the target rank and interpolate linearly
    within the bucket (the overflow bucket interpolates toward the
    maximum value seen), so answers are exact to bucket resolution
    without retaining samples.
    """

    __slots__ = ("bounds", "counts", "count", "total", "max_seen")

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS_MS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max_seen:
            self.max_seen = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]), interpolated
        within the landing bucket."""
        if self.count == 0:
            return 0.0
        rank = min(max(math.ceil(p / 100.0 * self.count), 1), self.count)
        cum = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            cum += bucket_count
            if cum >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                if i < len(self.bounds):
                    hi = self.bounds[i]
                else:
                    hi = max(self.max_seen, lo)
                frac = (rank - (cum - bucket_count)) / bucket_count
                return lo + (hi - lo) * frac
        return self.max_seen  # pragma: no cover - cum always reaches rank

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max_seen,
        }
