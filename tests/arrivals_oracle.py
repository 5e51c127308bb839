"""Scalar reference twins of the vectorised arrival samplers.

Each function draws round by round what its twin in
:mod:`repro.workloads.arrivals` draws in one NumPy call.  A seeded
:class:`numpy.random.Generator` consumes its bit stream identically either
way, so the pairs are *bit-identical* for the same generator: the unit
tests assert it, and ``benchmarks/test_bench_workloads.py`` times the
vectorised samplers against these loops (>= 10x at 10^5 requests).
"""

from __future__ import annotations

import numpy as np


def poisson_counts_scalar(rate: float, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Scalar reference for ``poisson_counts`` (one draw per round)."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return np.array([rng.poisson(rate) for _ in range(horizon)], dtype=np.int64)


def modulated_poisson_counts_scalar(rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Scalar reference for ``modulated_poisson_counts``."""
    return np.array([rng.poisson(rate) for rate in np.asarray(rates, dtype=float)], dtype=np.int64)


def pareto_batch_sizes_scalar(
    alpha: float,
    n: int,
    rng: np.random.Generator,
    cap: int = 16,
) -> np.ndarray:
    """Scalar reference for ``pareto_batch_sizes``."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    sizes = np.array([1 + int(np.floor(rng.pareto(alpha))) for _ in range(n)], dtype=np.int64)
    return np.minimum(sizes, cap)
