"""Shared configuration for the benchmark suite.

Every benchmark prints the table/figure it regenerates to stdout (run pytest
with ``-s`` to see them inline; the reports are also echoed into the
captured output).  ``REPRO_FULL=1`` switches the sweeps from the quick CI
defaults to the full paper-scale parameter grids.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, List

import pytest


def median_of_k(call: Callable[[], object], repeats: int = 5, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``repeats`` calls, after ``warmup`` calls.

    Single-sample timing is the root of benchmark flakiness: the first call
    pays import/allocation warmup, and any call can absorb a scheduler
    hiccup.  The median is robust to one-sided noise in either direction,
    unlike best-of (which can flatter) or mean (which one outlier ruins).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        call()
    timings: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        timings.append(time.perf_counter() - start)
    return median(timings)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure: benchmark that regenerates one of the paper's figures"
    )


@pytest.fixture
def quick_requests() -> int:
    """Request-sequence length used by the quick benchmark sweeps."""
    return 40


@pytest.fixture
def median_time():
    """Warmup-then-median wall timing (seconds per call).

    The speedup assertions in this suite used to time best-of-N cold calls,
    which let a one-off allocator or cache hiccup on either side flip a
    ratio across its threshold.  Discarding ``warmup`` untimed calls and
    reporting the median of ``repeats`` timed ones is robust against both
    first-call effects and single outliers (:func:`median_of_k`).
    """
    return median_of_k
