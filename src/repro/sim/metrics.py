"""Metric collection primitives.

Protocols and experiment harnesses record their observable behaviour through
these collectors rather than ad-hoc dictionaries, so every experiment report
in ``repro.analysis.reporting`` can be generated uniformly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def increment(self, amount: float = 1.0) -> float:
        """Increase the counter by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot be incremented by {amount}")
        self._value += amount
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A value that can move up and down (e.g. pairs currently in memory)."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0
        self._max_seen = -math.inf
        self._min_seen = math.inf

    @property
    def value(self) -> float:
        return self._value

    @property
    def max_seen(self) -> float:
        return self._max_seen

    @property
    def min_seen(self) -> float:
        return self._min_seen

    def set(self, value: float) -> None:
        self._value = float(value)
        self._max_seen = max(self._max_seen, self._value)
        self._min_seen = min(self._min_seen, self._value)

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def reset(self) -> None:
        self._value = 0.0
        self._max_seen = -math.inf
        self._min_seen = math.inf


class Histogram:
    """A simple streaming histogram retaining all observations.

    The simulations here are small enough (at most millions of observations)
    that retaining raw samples is fine and keeps quantile computation exact.
    """

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        self._samples.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        return tuple(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return sum(self._samples) / len(self._samples)

    def total(self) -> float:
        return sum(self._samples)

    def minimum(self) -> float:
        return min(self._samples) if self._samples else float("nan")

    def maximum(self) -> float:
        return max(self._samples) if self._samples else float("nan")

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (0 <= q <= 1) using linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high:
            return ordered[low]
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    #: Quantiles every report quotes (p50/p95/p99); see :meth:`percentiles`.
    REPORT_QUANTILES: Tuple[float, ...] = (0.50, 0.95, 0.99)

    def percentiles(self, quantiles: Optional[Iterable[float]] = None) -> Dict[str, float]:
        """The named report quantiles, e.g. ``{"p50": ..., "p95": ..., "p99": ...}``.

        ``quantiles`` overrides the default :data:`REPORT_QUANTILES`; keys
        are rendered as ``p<percent>`` with trailing zeros trimmed
        (``0.999`` becomes ``p99.9``).
        """
        chosen = self.REPORT_QUANTILES if quantiles is None else tuple(quantiles)
        labelled: Dict[str, float] = {}
        for q in chosen:
            label = f"{q * 100:g}"
            labelled[f"p{label}"] = self.quantile(q)
        return labelled

    def reset(self) -> None:
        self._samples.clear()


class MetricRegistry:
    """A namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name, description)
        return self._counters[name]

    def gauge(self, name: str, description: str = "") -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, description)
        return self._gauges[name]

    def histogram(self, name: str, description: str = "") -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, description)
        return self._histograms[name]

    def counters(self) -> Dict[str, float]:
        return {name: counter.value for name, counter in self._counters.items()}

    def gauges(self) -> Dict[str, float]:
        return {name: gauge.value for name, gauge in self._gauges.items()}

    def iter_counters(self) -> List[Counter]:
        """The registered counters, sorted by name (for expositions)."""
        return [self._counters[name] for name in sorted(self._counters)]

    def iter_gauges(self) -> List[Gauge]:
        """The registered gauges, sorted by name (for expositions)."""
        return [self._gauges[name] for name in sorted(self._gauges)]

    def iter_histograms(self) -> List[Histogram]:
        """The registered histograms, sorted by name (for expositions)."""
        return [self._histograms[name] for name in sorted(self._histograms)]

    def snapshot(self) -> Dict[str, float]:
        """Flatten all scalar metrics into one dictionary (for reports)."""
        snapshot: Dict[str, float] = {}
        snapshot.update({f"counter.{name}": value for name, value in self.counters().items()})
        snapshot.update({f"gauge.{name}": value for name, value in self.gauges().items()})
        for name, histogram in self._histograms.items():
            snapshot[f"histogram.{name}.count"] = float(histogram.count)
            snapshot[f"histogram.{name}.mean"] = histogram.mean()
            for label, value in histogram.percentiles().items():
                snapshot[f"histogram.{name}.{label}"] = value
        return snapshot

    def reset(self) -> None:
        for collection in (self._counters, self._gauges, self._histograms):
            for metric in collection.values():
                metric.reset()
