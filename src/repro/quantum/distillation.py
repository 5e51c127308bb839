"""Entanglement distillation (purification).

Section 3.2 of the paper folds distillation into a single per-pair overhead
``D_{x,y}``: the expected number of raw Bell pairs consumed to produce one
pair of sufficient fidelity.  This module provides

* the standard BBPSSW and DEJMPS recurrence formulas in closed form (the
  tests check one round of each against the bilateral-CNOT circuit on
  explicit density matrices, and their fixed points),
* :func:`rounds_to_target_fidelity` / :func:`expected_pairs_for_target`,
  which derive the overhead ``D`` from physical parameters, and
* :func:`distillation_overhead`, which translates "link fidelity F, target
  fidelity F*" into the ``D`` knob the balancing protocol and the LP consume
  (``examples/capacity_planning.py`` derives its ``D`` values this way).
"""

from __future__ import annotations

import enum
import math
from typing import Tuple

from repro.quantum.fidelity import WERNER_MINIMUM_USEFUL_FIDELITY, _validate_fidelity


class DistillationProtocol(enum.Enum):
    """Which recurrence purification protocol to model."""

    BBPSSW = "bbpssw"
    DEJMPS = "dejmps"


# ---------------------------------------------------------------------- #
# BBPSSW (Bennett et al. 1996) on Werner states
# ---------------------------------------------------------------------- #
def bbpssw_success_probability(fidelity: float) -> float:
    """Probability that one BBPSSW round on two Werner-``F`` pairs succeeds.

    ``p = F^2 + 2 F (1-F)/3 + 5 ((1-F)/3)^2``
    """
    _validate_fidelity(fidelity)
    noise = (1.0 - fidelity) / 3.0
    return fidelity**2 + 2.0 * fidelity * noise + 5.0 * noise**2


def bbpssw_output_fidelity(fidelity: float) -> float:
    """Fidelity of the surviving pair after a successful BBPSSW round.

    ``F' = (F^2 + ((1-F)/3)^2) / p``

    Strictly increases fidelity for ``F > 1/2`` and has fixed points at
    ``F = 1/2`` and ``F = 1``.
    """
    _validate_fidelity(fidelity)
    noise = (1.0 - fidelity) / 3.0
    return (fidelity**2 + noise**2) / bbpssw_success_probability(fidelity)


# ---------------------------------------------------------------------- #
# DEJMPS (Deutsch et al. 1996) on Bell-diagonal states
# ---------------------------------------------------------------------- #
def dejmps_round(coefficients: Tuple[float, float, float, float]) -> Tuple[Tuple[float, float, float, float], float]:
    """One DEJMPS round on two identical Bell-diagonal states.

    Parameters
    ----------
    coefficients:
        ``(A, B, C, D)`` weights of the four Bell states
        ``(Phi+, Psi+, Psi-, Phi-)``; must be non-negative and sum to 1.

    Returns
    -------
    tuple
        ``((A', B', C', D'), success_probability)`` where

        * ``N  = (A + D)^2 + (B + C)^2`` (the success probability),
        * ``A' = (A^2 + D^2) / N``, ``B' = (2 A D) / N``,
        * ``C' = (B^2 + C^2) / N``, ``D' = (2 B C) / N``.
    """
    a, b, c, d = coefficients
    for weight in coefficients:
        if weight < -1e-12:
            raise ValueError(f"Bell-diagonal coefficients must be non-negative, got {coefficients}")
    total = a + b + c + d
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"Bell-diagonal coefficients must sum to 1, got {total}")
    success = (a + d) ** 2 + (b + c) ** 2
    if success <= 0:
        raise ValueError("DEJMPS round has zero success probability")
    a_new = (a**2 + d**2) / success
    b_new = (2.0 * a * d) / success
    c_new = (b**2 + c**2) / success
    d_new = (2.0 * b * c) / success
    return (a_new, b_new, c_new, d_new), success


def werner_coefficients(fidelity: float) -> Tuple[float, float, float, float]:
    """Bell-diagonal coefficients ``(F, (1-F)/3, (1-F)/3, (1-F)/3)`` of a Werner state."""
    _validate_fidelity(fidelity)
    noise = (1.0 - fidelity) / 3.0
    return (fidelity, noise, noise, noise)


# ---------------------------------------------------------------------- #
# Overhead models -> the paper's D parameter
# ---------------------------------------------------------------------- #
def rounds_to_target_fidelity(
    initial_fidelity: float,
    target_fidelity: float,
    protocol: DistillationProtocol = DistillationProtocol.BBPSSW,
    max_rounds: int = 64,
) -> int:
    """Number of nested purification rounds needed to reach ``target_fidelity``.

    Raises
    ------
    ValueError
        If the initial fidelity is at or below the distillability threshold
        (1/2) while the target exceeds it, or if ``max_rounds`` rounds are
        not enough (the target may exceed the protocol's fixed point).
    """
    _validate_fidelity(initial_fidelity)
    _validate_fidelity(target_fidelity)
    if initial_fidelity >= target_fidelity:
        return 0
    if initial_fidelity <= WERNER_MINIMUM_USEFUL_FIDELITY:
        raise ValueError(
            f"initial fidelity {initial_fidelity} is not distillable (needs F > 1/2)"
        )
    fidelity = initial_fidelity
    coefficients = werner_coefficients(initial_fidelity)
    for round_index in range(1, max_rounds + 1):
        if protocol is DistillationProtocol.BBPSSW:
            fidelity = bbpssw_output_fidelity(fidelity)
        else:
            coefficients, _ = dejmps_round(coefficients)
            fidelity = coefficients[0]
        if fidelity >= target_fidelity:
            return round_index
    raise ValueError(
        f"could not reach target fidelity {target_fidelity} from {initial_fidelity} "
        f"within {max_rounds} rounds"
    )


def expected_pairs_for_target(
    initial_fidelity: float,
    target_fidelity: float,
    protocol: DistillationProtocol = DistillationProtocol.BBPSSW,
    max_rounds: int = 64,
) -> float:
    """Expected number of raw pairs consumed per pair at ``target_fidelity``.

    Nested (recurrence) purification: producing one level-``k`` pair requires
    two level-``k-1`` pairs and succeeds with probability ``p_k``, so the
    expected raw-pair cost satisfies ``cost_k = 2 cost_{k-1} / p_k``.
    """
    rounds = rounds_to_target_fidelity(initial_fidelity, target_fidelity, protocol, max_rounds)
    cost = 1.0
    fidelity = initial_fidelity
    coefficients = werner_coefficients(initial_fidelity)
    for _ in range(rounds):
        if protocol is DistillationProtocol.BBPSSW:
            success = bbpssw_success_probability(fidelity)
            fidelity = bbpssw_output_fidelity(fidelity)
        else:
            coefficients, success = dejmps_round(coefficients)
            fidelity = coefficients[0]
        cost = 2.0 * cost / success
    return cost


def distillation_overhead(
    link_fidelity: float,
    target_fidelity: float,
    protocol: DistillationProtocol = DistillationProtocol.BBPSSW,
) -> float:
    """The paper's ``D`` parameter derived from physical fidelities.

    ``D = 1`` when the link already meets the target; otherwise the expected
    raw-pair cost of nested purification.  The paper treats ``D`` as an
    integer knob swept from 1 upward (Figure 4); this function is the bridge
    from physics to that knob.
    """
    if link_fidelity >= target_fidelity:
        return 1.0
    return expected_pairs_for_target(link_fidelity, target_fidelity, protocol)
