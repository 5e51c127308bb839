"""Memory decoherence models.

The paper's LP extension (§3.2) folds decoherence into a loss factor
``L_{x,y}``: the fraction of fully distilled pairs that survive long enough
to be used.  Per-pair survival and fidelity decay models are provided too.

The paper's headline evaluation assumes long-lived memories (its motivating
trend), which corresponds to :class:`NoDecoherence`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.quantum.fidelity import decohered_fidelity


def survival_probability(elapsed: float, lifetime: float) -> float:
    """Probability an exponentially-decaying pair survives ``elapsed`` time."""
    if elapsed < 0:
        raise ValueError(f"elapsed must be non-negative, got {elapsed}")
    if lifetime <= 0:
        raise ValueError(f"lifetime must be positive, got {lifetime}")
    return math.exp(-elapsed / lifetime)


class DecoherenceModel(abc.ABC):
    """Interface every decoherence model implements."""

    @abc.abstractmethod
    def fidelity_after(self, initial_fidelity: float, elapsed: float) -> float:
        """Fidelity of a stored pair after ``elapsed`` time."""

    @abc.abstractmethod
    def sample_lifetime(self, rng: np.random.Generator) -> float:
        """Sample the time until the pair is considered lost."""

    @abc.abstractmethod
    def loss_factor(self, mean_storage_time: float) -> float:
        """The LP loss factor ``L``: expected survival over a mean storage time."""


class NoDecoherence(DecoherenceModel):
    """Ideal long-lived memory: pairs never decay (the paper's base model)."""

    def fidelity_after(self, initial_fidelity: float, elapsed: float) -> float:
        if elapsed < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed}")
        return initial_fidelity

    def sample_lifetime(self, rng: np.random.Generator) -> float:
        return math.inf

    def loss_factor(self, mean_storage_time: float) -> float:
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover
        return "NoDecoherence()"


@dataclass
class ExponentialDecoherence(DecoherenceModel):
    """Exponential (depolarising) memory decay with coherence time ``T``.

    Attributes
    ----------
    coherence_time:
        The ``1/e`` time constant of the depolarising decay.
    cutoff_fidelity:
        Pairs whose fidelity falls below this value are considered lost (the
        sampled lifetime is the time to reach the cutoff).
    """

    coherence_time: float
    cutoff_fidelity: float = 0.5

    def __post_init__(self) -> None:
        if self.coherence_time <= 0:
            raise ValueError(f"coherence_time must be positive, got {self.coherence_time}")
        if not 0.25 <= self.cutoff_fidelity < 1.0:
            raise ValueError(
                f"cutoff_fidelity must be within [0.25, 1), got {self.cutoff_fidelity}"
            )

    def fidelity_after(self, initial_fidelity: float, elapsed: float) -> float:
        return decohered_fidelity(initial_fidelity, elapsed, self.coherence_time)

    def time_to_cutoff(self, initial_fidelity: float) -> float:
        """Deterministic time for a pair to decay to the cutoff fidelity."""
        if initial_fidelity <= self.cutoff_fidelity:
            return 0.0
        numerator = initial_fidelity - 0.25
        denominator = self.cutoff_fidelity - 0.25
        return self.coherence_time * math.log(numerator / denominator)

    def sample_lifetime(self, rng: np.random.Generator) -> float:
        """Sample an exponential lifetime with mean ``coherence_time``."""
        return float(rng.exponential(self.coherence_time))

    def loss_factor(self, mean_storage_time: float) -> float:
        """Expected survival fraction for pairs stored ``mean_storage_time`` on average.

        Assuming exponentially distributed storage times with the given mean
        and exponential decay with the coherence time, the survival fraction
        is ``T / (T + mean_storage_time)``.
        """
        if mean_storage_time < 0:
            raise ValueError(f"mean_storage_time must be non-negative, got {mean_storage_time}")
        return self.coherence_time / (self.coherence_time + mean_storage_time)


@dataclass
class CutoffPolicy:
    """A transport-layer "cleansing" policy (paper, §6): drop pairs older than a cutoff.

    Attributes
    ----------
    max_age:
        Pairs older than this are discarded; ``None`` disables the policy.
    """

    max_age: Optional[float] = None

    def should_discard(self, age: float) -> bool:
        """Whether a pair of the given storage ``age`` should be discarded."""
        if age < 0:
            raise ValueError(f"age must be non-negative, got {age}")
        if self.max_age is None:
            return False
        return age > self.max_age
