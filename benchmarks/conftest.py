"""Shared configuration for the benchmark suite.

Every benchmark prints the table/figure it regenerates to stdout (run pytest
with ``-s`` to see them inline; the reports are also echoed into the
captured output).  ``REPRO_FULL=1`` switches the sweeps from the quick CI
defaults to the full paper-scale parameter grids.
"""

from __future__ import annotations

import pytest

from repro.perf.timing import median_of_k


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
    first-call effects and single outliers
    (:func:`repro.perf.timing.median_of_k`).
    """

    def _time(call, repeats: int = 5, warmup: int = 1) -> float:
        return median_of_k(call, repeats=repeats, warmup=warmup)

    return _time
