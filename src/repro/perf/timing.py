"""Warmup + median-of-k wall-clock timing.

Single-sample timing is the root of benchmark flakiness: the first call
pays import/allocation warmup, and any call can absorb a scheduler hiccup.
Every speedup assertion in ``benchmarks/`` therefore times the same way:
run ``warmup`` throwaway iterations first, then report the *median* of
``repeats`` timed calls — robust to one-sided noise in either direction,
unlike best-of (which can flatter) or mean (which one outlier ruins).
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, List


def median_of_k(call: Callable[[], object], repeats: int = 5, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``repeats`` calls, after ``warmup`` calls."""
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
