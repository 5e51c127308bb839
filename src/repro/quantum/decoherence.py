"""Memory decoherence models.

The paper's LP extension (§3.2) folds decoherence into a loss factor
``L_{x,y}``: the fraction of fully distilled pairs that survive long enough
to be used.  Per-pair fidelity decay is provided too.

The paper's headline evaluation assumes long-lived memories (its motivating
trend), which corresponds to :class:`NoDecoherence`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.quantum.fidelity import decohered_fidelity


class DecoherenceModel(abc.ABC):
    """Interface every decoherence model implements."""

    @abc.abstractmethod
    def fidelity_after(self, initial_fidelity: float, elapsed: float) -> float:
        """Fidelity of a stored pair after ``elapsed`` time."""

    @abc.abstractmethod
    def loss_factor(self, mean_storage_time: float) -> float:
        """The LP loss factor ``L``: expected survival over a mean storage time."""


class NoDecoherence(DecoherenceModel):
    """Ideal long-lived memory: pairs never decay (the paper's base model)."""

    def fidelity_after(self, initial_fidelity: float, elapsed: float) -> float:
        if elapsed < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed}")
        return initial_fidelity

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
    """

    coherence_time: float

    def __post_init__(self) -> None:
        if self.coherence_time <= 0:
            raise ValueError(f"coherence_time must be positive, got {self.coherence_time}")

    def fidelity_after(self, initial_fidelity: float, elapsed: float) -> float:
        return decohered_fidelity(initial_fidelity, elapsed, self.coherence_time)

    def loss_factor(self, mean_storage_time: float) -> float:
        """Expected survival fraction for pairs stored ``mean_storage_time`` on average.

        Assuming exponentially distributed storage times with the given mean
        and exponential decay with the coherence time, the survival fraction
        is ``T / (T + mean_storage_time)``.
        """
        if mean_storage_time < 0:
            raise ValueError(f"mean_storage_time must be non-negative, got {mean_storage_time}")
        return self.coherence_time / (self.coherence_time + mean_storage_time)
