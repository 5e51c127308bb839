"""Werner-state fidelity algebra.

The network layer models every Bell pair as a *Werner state*: the mixture of
the ideal Bell state ``|Phi+>`` (with weight ``F``, the fidelity) and white
noise.  Werner states are closed under the operations the network performs
(entanglement swapping, depolarising memory decay, twirled purification), so
tracking the single scalar ``F`` per pair is exact within this model.  In
terms of the Werner parameter ``w = (4F - 1)/3`` a swap multiplies ``w``.
The test suite checks the swap and teleportation rules against explicit
4x4 density matrices (``tests/quantum_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

#: Below this fidelity a Werner pair carries no distillable entanglement
#: (the BBPSSW/DEJMPS protocols only improve fidelity above 1/2).
WERNER_MINIMUM_USEFUL_FIDELITY = 0.5


@dataclass(frozen=True)
class WernerState:
    """A Werner state parameterised by its fidelity with ``|Phi+>``.

    ``rho(F) = F |Phi+><Phi+| + (1 - F)/3 (I - |Phi+><Phi+|)``
    """

    fidelity: float

    def __post_init__(self) -> None:
        _validate_fidelity(self.fidelity)

    def werner_parameter(self) -> float:
        """The Werner parameter ``w`` in ``rho = w |Phi+><Phi+| + (1-w) I/4``."""
        return (4.0 * self.fidelity - 1.0) / 3.0

    def is_distillable(self) -> bool:
        """Whether recurrence purification can improve this pair (``F > 1/2``)."""
        return self.fidelity > WERNER_MINIMUM_USEFUL_FIDELITY

    def swap_with(self, other: "WernerState") -> "WernerState":
        """The Werner state resulting from swapping this pair with ``other``."""
        return WernerState(swap_fidelity(self.fidelity, other.fidelity))

    def after_depolarizing(self, decay: float) -> "WernerState":
        """The Werner state after a depolarising channel with survival weight ``decay``."""
        return WernerState(depolarize(self.fidelity, decay))


def swap_fidelity(fidelity_a: float, fidelity_b: float) -> float:
    """Fidelity of the pair produced by swapping two Werner pairs.

    With perfect local operations, swapping Werner pairs of fidelities
    ``F_a`` and ``F_b`` yields a Werner pair of fidelity

    ``F = F_a F_b + (1 - F_a)(1 - F_b) / 3``

    which follows from composing the two depolarising channels the Werner
    pairs are equivalent to.  The formula is symmetric, has fixed point 1,
    and degrades towards 1/4 (a completely mixed pair) as either input
    degrades.
    """
    _validate_fidelity(fidelity_a)
    _validate_fidelity(fidelity_b)
    return fidelity_a * fidelity_b + (1.0 - fidelity_a) * (1.0 - fidelity_b) / 3.0


def chained_swap_fidelity(fidelities: Iterable[float]) -> float:
    """Fidelity after swapping a chain of Werner pairs end to end.

    The order of swaps does not affect the final fidelity in the Werner
    model (the update rule is associative and commutative), mirroring the
    paper's observation that swap order along a path is arbitrary.
    """
    result = None
    for fidelity in fidelities:
        _validate_fidelity(fidelity)
        result = fidelity if result is None else swap_fidelity(result, fidelity)
    if result is None:
        raise ValueError("chained_swap_fidelity requires at least one pair")
    return result


def depolarize(fidelity: float, survival: float) -> float:
    """Apply a depolarising (white-noise) channel to a Werner pair.

    ``survival`` is the probability the pair is unaffected; with probability
    ``1 - survival`` it is replaced by the maximally mixed state, whose
    fidelity with the ideal Bell state is 1/4:

    ``F' = survival * F + (1 - survival) / 4``
    """
    _validate_fidelity(fidelity)
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival must be within [0, 1], got {survival}")
    return survival * fidelity + (1.0 - survival) * 0.25


def decohered_fidelity(initial_fidelity: float, elapsed: float, coherence_time: float) -> float:
    """Fidelity of a stored Werner pair after ``elapsed`` time in memory.

    Uses the standard exponential depolarising-memory model:
    ``F(t) = 1/4 + (F0 - 1/4) exp(-t / T)`` with coherence time ``T``.
    """
    _validate_fidelity(initial_fidelity)
    if elapsed < 0:
        raise ValueError(f"elapsed time must be non-negative, got {elapsed}")
    if coherence_time <= 0:
        raise ValueError(f"coherence_time must be positive, got {coherence_time}")
    survival = math.exp(-elapsed / coherence_time)
    return depolarize(initial_fidelity, survival)


def teleportation_fidelity(pair_fidelity: float) -> float:
    """Average teleportation fidelity achieved with a Werner resource pair.

    Teleporting an arbitrary (uniformly random) pure qubit state through a
    Werner channel of fidelity ``F`` achieves average output fidelity

    ``F_tel = (2 F + 1) / 3``

    which equals 1 for a perfect pair and 1/2 (no better than guessing) for
    a completely dephased pair at ``F = 1/4``.
    """
    _validate_fidelity(pair_fidelity)
    return (2.0 * pair_fidelity + 1.0) / 3.0


def fidelity_after_hops(link_fidelity: float, hops: int) -> float:
    """Fidelity of an end-to-end pair built by swapping ``hops`` identical links."""
    if hops <= 0:
        raise ValueError(f"hops must be positive, got {hops}")
    return chained_swap_fidelity([link_fidelity] * hops)


def _validate_fidelity(fidelity: float) -> None:
    if not 0.25 - 1e-12 <= fidelity <= 1.0 + 1e-12:
        raise ValueError(f"fidelity must be within [0.25, 1], got {fidelity}")
