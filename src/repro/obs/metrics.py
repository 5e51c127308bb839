"""Scalar metric collectors: counters, gauges and their registry.

The telemetry hub (:mod:`repro.obs.telemetry`) exports a registry's
metrics as JSONL ``metric`` records, and the serve daemon renders its own
registry as Prometheus-style text (:mod:`repro.obs.exposition`).  This
module imports nothing heavier than the standard library, so ``repro
serve`` reads it before any numpy is loaded.
"""

from __future__ import annotations

from typing import Dict, List


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


class Gauge:
    """A value that can move up and down (e.g. the serve queue depth)."""

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def reset(self) -> None:
        self._value = 0.0


class MetricRegistry:
    """A namespace of counters and gauges."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name, description)
        return self._counters[name]

    def gauge(self, name: str, description: str = "") -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, description)
        return self._gauges[name]

    def iter_counters(self) -> List[Counter]:
        """The registered counters, sorted by name (for expositions)."""
        return [self._counters[name] for name in sorted(self._counters)]

    def iter_gauges(self) -> List[Gauge]:
        """The registered gauges, sorted by name (for expositions)."""
        return [self._gauges[name] for name in sorted(self._gauges)]

    def reset(self) -> None:
        for collection in (self._counters, self._gauges):
            for metric in collection.values():
                metric.reset()
