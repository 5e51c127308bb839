"""Benchmark gate for the serve-prefix scan.

On a 200,000-code mostly-servable stream, the blockwise NumPy scan behind
:func:`repro.perf.kernels.servable_prefix` must be at least **3x** faster
than the per-request loop in ``tests/serve_prefix_oracle.py``
(median-of-k, after warmup).  The gate re-checks bit-identity on the exact
arrays being timed, so a speedup can never be bought with a semantic drift.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.perf.kernels import servable_prefix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from serve_prefix_oracle import serve_prefix_oracle  # noqa: E402

#: The speedup floor over the oracle loop.
SPEEDUP_FLOOR = 3.0

#: Length of the timed request stream.
N_CODES = 200_000


def test_servable_prefix_beats_oracle_3x(median_time):
    rng = np.random.default_rng(6)
    # A mostly-servable stream (the regime the doubling window feeds the
    # scan): budgets straddle the ~N_CODES/35 expected per-pair load.
    codes = rng.integers(0, 35, N_CODES).astype(np.int64)
    budgets = rng.integers(N_CODES // 40, N_CODES // 25, 35).astype(np.int64)

    assert servable_prefix(codes, budgets) == serve_prefix_oracle(codes, budgets)

    oracle_seconds = median_time(lambda: serve_prefix_oracle(codes, budgets), repeats=5)
    scan_seconds = median_time(lambda: servable_prefix(codes, budgets), repeats=5)
    speedup = oracle_seconds / scan_seconds
    print(
        f"\nservable_prefix: oracle {oracle_seconds * 1e3:.2f} ms, "
        f"scan {scan_seconds * 1e3:.3f} ms ({speedup:.0f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, f"servable_prefix only {speedup:.1f}x faster"
