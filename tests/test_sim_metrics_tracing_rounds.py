"""Tests for repro.sim.metrics and repro.sim.tracing."""

from __future__ import annotations

import math

import pytest

from repro.sim.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.sim.tracing import TraceRecorder


class TestCounter:
    def test_increment(self):
        counter = Counter("swaps")
        counter.increment()
        counter.increment(2)
        assert counter.value == 3

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("swaps").increment(-1)

    def test_reset(self):
        counter = Counter("swaps")
        counter.increment(5)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("pairs")
        gauge.set(4)
        gauge.add(-1)
        assert gauge.value == 3

    def test_extrema_tracking(self):
        gauge = Gauge("pairs")
        gauge.set(2)
        gauge.set(7)
        gauge.set(1)
        assert gauge.max_seen == 7
        assert gauge.min_seen == 1


class TestHistogram:
    def test_mean_and_total(self):
        histogram = Histogram("wait")
        histogram.observe_many([1.0, 2.0, 3.0])
        assert histogram.mean() == pytest.approx(2.0)
        assert histogram.total() == pytest.approx(6.0)
        assert histogram.count == 3

    def test_quantiles(self):
        histogram = Histogram("wait")
        histogram.observe_many(range(11))
        assert histogram.quantile(0.0) == 0
        assert histogram.quantile(0.5) == 5
        assert histogram.quantile(1.0) == 10

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("wait").quantile(1.5)

    def test_empty_histogram_mean_is_nan(self):
        assert math.isnan(Histogram("wait").mean())

    def test_min_max(self):
        histogram = Histogram("wait")
        histogram.observe_many([5.0, 1.0, 3.0])
        assert histogram.minimum() == 1.0
        assert histogram.maximum() == 5.0

    def test_percentiles_default_labels(self):
        histogram = Histogram("latency")
        histogram.observe_many(range(101))  # 0..100: pX == X exactly
        percentiles = histogram.percentiles()
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p50"] == pytest.approx(50.0)
        assert percentiles["p95"] == pytest.approx(95.0)
        assert percentiles["p99"] == pytest.approx(99.0)

    def test_percentiles_custom_quantiles(self):
        histogram = Histogram("latency")
        histogram.observe_many(range(1001))
        percentiles = histogram.percentiles((0.25, 0.999))
        assert percentiles["p25"] == pytest.approx(250.0)
        assert percentiles["p99.9"] == pytest.approx(999.0)

    def test_percentiles_empty_are_nan(self):
        percentiles = Histogram("latency").percentiles()
        assert all(math.isnan(value) for value in percentiles.values())

    def test_single_sample_percentiles(self):
        histogram = Histogram("latency")
        histogram.observe(7.0)
        assert histogram.percentiles() == {"p50": 7.0, "p95": 7.0, "p99": 7.0}


class TestMetricRegistry:
    def test_same_name_returns_same_metric(self):
        registry = MetricRegistry()
        assert registry.counter("swaps") is registry.counter("swaps")

    def test_snapshot_contains_all_scalars(self):
        registry = MetricRegistry()
        registry.counter("swaps").increment(2)
        registry.gauge("pairs").set(5)
        registry.histogram("wait").observe(3.0)
        snapshot = registry.snapshot()
        assert snapshot["counter.swaps"] == 2
        assert snapshot["gauge.pairs"] == 5
        assert snapshot["histogram.wait.count"] == 1
        assert snapshot["histogram.wait.p50"] == pytest.approx(3.0)
        assert snapshot["histogram.wait.p99"] == pytest.approx(3.0)

    def test_reset_clears_everything(self):
        registry = MetricRegistry()
        registry.counter("swaps").increment(2)
        registry.histogram("wait").observe(3.0)
        registry.reset()
        assert registry.counter("swaps").value == 0
        assert registry.histogram("wait").count == 0


class TestTraceRecorder:
    def test_records_and_filters(self):
        trace = TraceRecorder()
        trace.record(0.0, "swap", {"repeater": 1})
        trace.record(1.0, "consume", {"pair": (0, 2)})
        assert trace.count() == 2
        assert trace.count("swap") == 1
        assert trace.kinds() == {"swap": 1, "consume": 1}

    def test_disabled_recorder_records_nothing(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0.0, "swap")
        assert len(trace) == 0

    def test_capacity_drops_oldest(self):
        trace = TraceRecorder(capacity=2)
        for index in range(5):
            trace.record(float(index), "swap", {"index": index})
        assert len(trace) == 2
        assert trace.dropped == 3
        assert trace.events("swap")[0].payload["index"] == 3

    def test_jsonl_roundtrip_shape(self):
        trace = TraceRecorder()
        trace.record(0.5, "swap", {"repeater": 2})
        line = trace.to_jsonl()
        assert '"kind": "swap"' in line
        assert '"repeater": 2' in line

    def test_filter_predicate(self):
        trace = TraceRecorder()
        trace.record(0.0, "swap", {"repeater": 1})
        trace.record(1.0, "swap", {"repeater": 2})
        matches = trace.filter(lambda event: event.payload["repeater"] == 2)
        assert len(matches) == 1

