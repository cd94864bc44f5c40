"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is *wiring*, not a second accounting system: gauges read
the existing counters (``ServeStats`` fields, ``GIRCache.stats()``,
``GIREngine.stats()``) through callbacks at collection time, so nothing
is double-counted and the registry can never drift from the source of
truth. The serve accounting identities are re-checked *through* the
registry (:func:`crosscheck_serve_identities`) — if the wiring ever
lied, the identities would break here even while
``ServeStats.accounting_ok()`` still passed on the raw fields.

Histograms use fixed bucket upper bounds (defaults sized for
millisecond latencies) and answer p50/p95/p99 by nearest-rank walk with
linear interpolation inside the bucket — O(#buckets), no sample
retention, safe to keep on the hot path.
"""

from __future__ import annotations

import bisect
import math
from functools import partial
from typing import Any, Callable, Iterable

__all__ = [
    "LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bind_serve_stats",
    "bind_cache_stats",
    "bind_engine_stats",
    "crosscheck_serve_identities",
]

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


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value; either set directly or backed by a callback
    reading an existing counter (the wiring form)."""

    __slots__ = ("name", "help", "_value", "_fn")

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", fn: Callable[[], Any] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value


class Histogram:
    """Fixed-bucket histogram with nearest-rank percentiles.

    ``bounds`` are inclusive upper edges; observations above the last
    bound count in an implicit overflow bucket. Percentiles walk the
    cumulative counts to the target rank and interpolate linearly
    within the bucket (the overflow bucket interpolates toward the
    maximum value seen), so answers are exact to bucket resolution
    without retaining samples.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "total", "max_seen")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = LATENCY_BUCKETS_MS,
    ) -> None:
        self.name = name
        self.help = help
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


class MetricsRegistry:
    """Named instruments, collected in registration order."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}

    def _get_or_create(self, name: str, factory: Callable[[], Any], kind: str) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, partial(Counter, name, help), "counter")

    def gauge(
        self, name: str, help: str = "", fn: Callable[[], Any] | None = None
    ) -> Gauge:
        return self._get_or_create(name, partial(Gauge, name, help, fn), "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = LATENCY_BUCKETS_MS,
    ) -> Histogram:
        return self._get_or_create(
            name, partial(Histogram, name, help, buckets), "histogram"
        )

    def register(self, metric: Any) -> Any:
        """Adopt a pre-built instrument (e.g. the ``ServeStats`` latency
        histograms) under its own name."""
        existing = self._metrics.get(metric.name)
        if existing is not None and existing is not metric:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def get(self, name: str) -> Any:
        return self._metrics[name]

    def value(self, name: str) -> Any:
        """Current scalar value (counter/gauge) or summary dict
        (histogram) of a metric."""
        metric = self._metrics[name]
        if metric.kind == "histogram":
            return metric.to_dict()
        return metric.value

    def collect(self) -> list[Any]:
        return list(self._metrics.values())

    def names(self) -> list[str]:
        return list(self._metrics)


def _attr_reader(obj: Any, attr: str) -> Any:
    return getattr(obj, attr)


def _stats_reader(obj: Any, key: str) -> Any:
    return obj.stats()[key]


#: ServeStats counter fields exposed as callback gauges (names match
#: the ``ServeStats`` dataclass fields; the gauges read them live).
SERVE_COUNTER_FIELDS = (
    "arrivals",
    "admitted",
    "rejected",
    "shed",
    "reads_served",
    "writes_applied",
    "errors",
    "engine_batch_calls",
    "engine_requests",
    "coalesce_attached",
    "coalesced_served",
    "fences",
    "queue_depth_peak",
    "inflight_batches_peak",
)

#: The PR 7 serve accounting identities, expressed over registry metric
#: names: each label asserts sum(lhs) == sum(rhs).
SERVE_IDENTITIES = (
    ("admission", ("arrivals",), ("admitted", "rejected", "shed")),
    ("completion", ("admitted",), ("reads_served", "writes_applied", "errors")),
    ("provenance", ("reads_served",), ("engine_requests", "coalesced_served")),
)


def bind_serve_stats(
    registry: MetricsRegistry, stats: Any, prefix: str = "serve"
) -> None:
    """Wire a live ``ServeStats`` into the registry: every counter field
    becomes a callback gauge reading the dataclass field, and the
    wait/service histograms are adopted as-is."""
    for field_name in SERVE_COUNTER_FIELDS:
        registry.gauge(
            f"{prefix}_{field_name}",
            help=f"ServeStats.{field_name} (live)",
            fn=partial(_attr_reader, stats, field_name),
        )
    registry.register(stats.wait_ms)
    registry.register(stats.service_ms)


#: GIRCache.stats() keys exposed as callback gauges.
CACHE_STAT_KEYS = (
    "full_hits",
    "misses",
    "invalidation_evictions",
    "capacity_evictions",
    "entries",
)


def bind_cache_stats(
    registry: MetricsRegistry, cache: Any, prefix: str = "cache"
) -> None:
    """Wire a live ``GIRCache`` into the registry via ``stats()``."""
    for key in CACHE_STAT_KEYS:
        registry.gauge(
            f"{prefix}_{key}",
            help=f"GIRCache.stats()[{key!r}] (live)",
            fn=partial(_stats_reader, cache, key),
        )


#: GIREngine.stats() keys exposed as callback gauges (the engine-level
#: counters; its merged-in cache keys come via :func:`bind_cache_stats`).
ENGINE_STAT_KEYS = (
    "requests_served",
    "updates_applied",
    "update_evictions",
    "prescreen_screened",
    "prescreen_lps",
    "live_records",
)


def bind_engine_stats(
    registry: MetricsRegistry, engine: Any, prefix: str = "engine"
) -> None:
    """Wire a live ``GIREngine`` into the registry via ``stats()``."""
    for key in ENGINE_STAT_KEYS:
        registry.gauge(
            f"{prefix}_{key}",
            help=f"GIREngine.stats()[{key!r}] (live)",
            fn=partial(_stats_reader, engine, key),
        )


def crosscheck_serve_identities(
    registry: MetricsRegistry, prefix: str = "serve"
) -> dict:
    """Re-evaluate the PR 7 serve accounting identities from
    registry-read values (integer comparisons)."""
    out: dict[str, Any] = {}
    ok = True
    for label, lhs, rhs in SERVE_IDENTITIES:
        left = sum(int(registry.value(f"{prefix}_{name}")) for name in lhs)
        right = sum(int(registry.value(f"{prefix}_{name}")) for name in rhs)
        holds = left == right
        out[label] = holds
        ok = ok and holds
    out["ok"] = ok
    return out

