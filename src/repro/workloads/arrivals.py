"""Arrival-process sampling: Poisson, bursty MMPP, diurnal, heavy-tailed.

All samplers are vectorized over the round horizon with NumPy.  Because a
:class:`numpy.random.Generator` consumes its bit stream identically whether
a distribution is sampled in one vectorized call or in a sequence of scalar
calls, each is *bit-identical* to a round-by-round loop for the same seeded
generator.  The loops live in ``tests/arrivals_oracle.py``: the unit tests
assert the identity and ``benchmarks/test_bench_workloads.py`` measures the
speedup (>= 10x at 10^5 requests) without a correctness caveat.

Counts are per-round arrival counts; :func:`counts_to_rounds` flattens them
into one arrival-round entry per request, the shape the workload builders
consume.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def poisson_counts(rate: float, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Per-round arrival counts of a homogeneous Poisson process (vectorized)."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return rng.poisson(rate, size=horizon)


def diurnal_rates(
    rate: float, horizon: int, period: int = 100, amplitude: float = 0.8
) -> np.ndarray:
    """Sinusoidally modulated per-round rates (the diurnal day/night cycle).

    ``rate`` is the mean; round ``r`` gets
    ``rate * (1 + amplitude * sin(2 pi r / period))``, floored at zero so an
    amplitude above 1 yields dead-of-night silence instead of negative rates.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if amplitude < 0:
        raise ValueError(f"amplitude must be non-negative, got {amplitude}")
    rounds = np.arange(horizon, dtype=float)
    return np.maximum(rate * (1.0 + amplitude * np.sin(2.0 * np.pi * rounds / period)), 0.0)


def modulated_poisson_counts(rates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-round counts of an inhomogeneous Poisson process (vectorized)."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise ValueError("rates must be a non-empty 1-D array")
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    return rng.poisson(rates)


def mmpp_rates(
    rate_low: float,
    rate_high: float,
    horizon: int,
    rng: np.random.Generator,
    mean_calm: float = 40.0,
    mean_burst: float = 10.0,
) -> np.ndarray:
    """Per-round rates of a two-state Markov-modulated Poisson process.

    The modulating chain alternates calm (``rate_low``) and burst
    (``rate_high``) states with geometrically distributed sojourns of the
    given means; sojourn lengths come from the generator, so the rate path
    is a pure function of the seed.
    """
    if not 0 < rate_low <= rate_high:
        raise ValueError(
            f"need 0 < rate_low <= rate_high, got {rate_low} and {rate_high}"
        )
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if mean_calm < 1 or mean_burst < 1:
        raise ValueError("mean sojourns must be at least one round")
    rates = np.empty(horizon, dtype=float)
    filled = 0
    burst = False
    while filled < horizon:
        mean = mean_burst if burst else mean_calm
        sojourn = int(rng.geometric(1.0 / mean))
        span = min(sojourn, horizon - filled)
        rates[filled : filled + span] = rate_high if burst else rate_low
        filled += span
        burst = not burst
    return rates


def pareto_batch_sizes(
    alpha: float,
    n: int,
    rng: np.random.Generator,
    cap: int = 16,
) -> np.ndarray:
    """Heavy-tailed (Pareto) request-batch sizes, vectorized.

    Each size is ``1 + floor(Pareto(alpha))`` clipped at ``cap`` -- most
    batches are singletons, a heavy tail of them are elephants.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    sizes = 1 + np.floor(rng.pareto(alpha, size=n)).astype(np.int64)
    return np.minimum(sizes, cap)


def counts_to_rounds(counts: np.ndarray, batch_sizes: Optional[np.ndarray] = None) -> np.ndarray:
    """Flatten per-round counts into one arrival-round entry per request.

    With ``batch_sizes`` (one per counted arrival), every arrival expands
    into a batch of requests sharing its round -- the heavy-tailed batch
    layer composes with any arrival process this way.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("arrival counts must be non-negative")
    rounds = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    if batch_sizes is None:
        return rounds
    batch_sizes = np.asarray(batch_sizes, dtype=np.int64)
    if batch_sizes.shape != rounds.shape:
        raise ValueError(
            f"need one batch size per arrival: {batch_sizes.shape} vs {rounds.shape}"
        )
    return np.repeat(rounds, batch_sizes)
