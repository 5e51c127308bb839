"""Summary statistics for repeated trials.

Every experiment in :mod:`repro.experiments` runs several seeded trials per
configuration; these helpers reduce the per-trial measurements to the means
and confidence intervals the reports print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean, spread and range of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def as_row(self) -> Tuple[float, float, float]:
        """The (mean, ci_low, ci_high) triple used by the report tables."""
        return (self.mean, self.ci_low, self.ci_high)


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Mean and Student-t confidence interval of ``values``.

    Single-observation samples return a degenerate interval equal to the
    observation (there is no spread information to widen it with).
    """
    if len(values) == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(list(values), dtype=float)
    mean = float(np.mean(data))
    if len(data) == 1:
        return mean, mean, mean
    # scipy is imported on use, off the start-up path (tests/test_startup.py).
    from scipy import stats

    sem = float(stats.sem(data))
    if sem == 0.0:
        return mean, mean, mean
    margin = sem * float(stats.t.ppf((1.0 + confidence) / 2.0, len(data) - 1))
    return mean, mean - margin, mean + margin


def bootstrap_confidence_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float, float]:
    """Percentile-bootstrap confidence interval of the mean (distribution-free)."""
    if len(values) == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples <= 0:
        raise ValueError(f"n_resamples must be positive, got {n_resamples}")
    data = np.asarray(list(values), dtype=float)
    mean = float(np.mean(data))
    if len(data) == 1:
        return mean, mean, mean
    generator = rng if rng is not None else np.random.default_rng(0)
    resample_means = np.empty(n_resamples)
    for index in range(n_resamples):
        sample = generator.choice(data, size=len(data), replace=True)
        resample_means[index] = np.mean(sample)
    lower = float(np.quantile(resample_means, (1.0 - confidence) / 2.0))
    upper = float(np.quantile(resample_means, 1.0 - (1.0 - confidence) / 2.0))
    return mean, lower, upper


def summarize(values: Sequence[float], confidence: float = 0.95) -> SummaryStatistics:
    """Full :class:`SummaryStatistics` for a sample."""
    if len(values) == 0:
        raise ValueError("cannot summarise an empty sample")
    data = np.asarray(list(values), dtype=float)
    mean, low, high = mean_confidence_interval(values, confidence)
    return SummaryStatistics(
        count=len(data),
        mean=mean,
        std=float(np.std(data, ddof=1)) if len(data) > 1 else 0.0,
        minimum=float(np.min(data)),
        maximum=float(np.max(data)),
        ci_low=low,
        ci_high=high,
    )


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used to aggregate overhead ratios across topologies)."""
    if len(values) == 0:
        raise ValueError("cannot take the geometric mean of an empty sample")
    data = np.asarray(list(values), dtype=float)
    if np.any(data <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(data))))
