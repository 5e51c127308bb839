"""The ``median_time`` fixture every speedup gate in this suite times with."""

from __future__ import annotations

import time

import pytest


class TestMedianOfK:
    def test_median_is_robust_to_one_outlier(self, median_time):
        calls = iter([0.0] * 10)

        def call():
            next(calls)

        assert median_time(call, repeats=3, warmup=2) >= 0.0
        with pytest.raises(StopIteration):
            median_time(call, repeats=5, warmup=2)  # consumed warmup + timed calls

    def test_returns_the_median_of_the_timed_calls(self, median_time, monkeypatch):
        # Three timed calls of 5 s, 1 s and 100 s: the median ignores the outlier.
        clock = iter([0.0, 5.0, 10.0, 11.0, 20.0, 120.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
        assert median_time(lambda: None, repeats=3, warmup=0) == 5.0

    def test_validates_arguments(self, median_time):
        with pytest.raises(ValueError):
            median_time(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            median_time(lambda: None, warmup=-1)
