"""Benchmark: vectorized arrival sampling vs the scalar reference loop.

The workload subsystem samples arrival processes with one vectorized NumPy
call per trace; the scalar reference twins (``tests/arrivals_oracle.py``)
draw round by round.  Because a
seeded :class:`numpy.random.Generator` consumes its bit stream identically
either way, the two are bit-identical -- so the speedup measured here is
pure overhead removal, not a different distribution.

Acceptance criterion: at a 10^5-request scale the vectorized samplers are
at least **10x** faster than the scalar loops.  The timing compares the
homogeneous Poisson path (the default of every timed workload); the
modulated and Pareto-batch paths are asserted bit-identical alongside.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.workloads.arrivals import (
    counts_to_rounds,
    diurnal_rates,
    modulated_poisson_counts,
    pareto_batch_sizes,
    poisson_counts,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from arrivals_oracle import (  # noqa: E402
    modulated_poisson_counts_scalar,
    pareto_batch_sizes_scalar,
    poisson_counts_scalar,
)

#: 10^5 expected requests: rate 1 over a 100k-round horizon.
RATE = 1.0
HORIZON = 100_000


def test_vectorized_poisson_sampling_10x_at_1e5_requests(median_time):
    """Acceptance criterion: >= 10x over the scalar loop, bit-identical."""
    vectorized = poisson_counts(RATE, HORIZON, np.random.default_rng(42))
    scalar = poisson_counts_scalar(RATE, HORIZON, np.random.default_rng(42))
    assert np.array_equal(vectorized, scalar)
    assert int(vectorized.sum()) >= 90_000  # the 1e5-request scale is real

    fast = median_time(lambda: poisson_counts(RATE, HORIZON, np.random.default_rng(42)), repeats=3)
    slow = median_time(
        lambda: poisson_counts_scalar(RATE, HORIZON, np.random.default_rng(42)), repeats=3
    )
    speedup = slow / fast
    print(
        f"\npoisson arrivals at {HORIZON} rounds: scalar {slow * 1e3:.1f} ms, "
        f"vectorized {fast * 1e3:.3f} ms ({speedup:.0f}x)"
    )
    assert speedup >= 10, f"vectorized sampling only {speedup:.1f}x faster"


def test_modulated_and_batch_paths_bit_identical():
    """The diurnal and heavy-tailed paths share the guarantee the timing
    test relies on: vectorized == scalar, draw for draw."""
    rates = diurnal_rates(RATE, 20_000, period=200, amplitude=0.9)
    assert np.array_equal(
        modulated_poisson_counts(rates, np.random.default_rng(7)),
        modulated_poisson_counts_scalar(rates, np.random.default_rng(7)),
    )
    assert np.array_equal(
        pareto_batch_sizes(1.2, 20_000, np.random.default_rng(9)),
        pareto_batch_sizes_scalar(1.2, 20_000, np.random.default_rng(9)),
    )


def test_counts_to_rounds_scales(median_time):
    """Flattening 10^5 arrivals is a single np.repeat, not a Python loop."""
    counts = poisson_counts(RATE, HORIZON, np.random.default_rng(1))
    elapsed = median_time(lambda: counts_to_rounds(counts), repeats=3)
    rounds = counts_to_rounds(counts)
    assert len(rounds) == int(counts.sum())
    assert elapsed < 0.05, f"counts_to_rounds took {elapsed:.3f}s at 1e5 scale"
