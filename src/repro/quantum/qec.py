"""Quantum error correction (QEC) overhead model.

Section 3.2 of the paper: "QEC can be added simply by assuming that QEC is
applied to generated Bell pairs ... If the overhead of the QEC (i.e., the
number of physical qubits per logical qubit) is R, we can simply thin the
generation rate ``g(x, y)`` to be ``g(x, y) / R``."

The count-level code applies the thinning itself, from a plain
``qec_overhead``: the LP divides every generation capability by ``R``
(simulated trials run at the paper's unthinned rates).  This module
describes a code by its ``R`` and provides a small surface-code footprint
model that examples use to pick plausible values of it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QECCode:
    """A quantum error-correcting code characterised by its encoding rate.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"surface-d5"``).
    physical_per_logical:
        The paper's ``R``: physical qubits consumed per logical qubit.
    logical_error_rate:
        Residual logical error rate per use (informational; the LP only
        needs ``R``).
    """

    name: str
    physical_per_logical: float
    logical_error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.physical_per_logical < 1.0:
            raise ValueError(
                f"physical_per_logical must be >= 1, got {self.physical_per_logical}"
            )
        if not 0.0 <= self.logical_error_rate <= 1.0:
            raise ValueError(
                f"logical_error_rate must be within [0, 1], got {self.logical_error_rate}"
            )

    @property
    def rate(self) -> float:
        """The code rate ``1 / R``."""
        return 1.0 / self.physical_per_logical


def surface_code_overhead(
    physical_error_rate: float,
    target_logical_error_rate: float,
    threshold: float = 0.01,
    prefactor: float = 0.1,
) -> QECCode:
    """Estimate the surface-code distance and footprint for a target logical error rate.

    Uses the standard empirical scaling
    ``p_L ~= prefactor * (p / p_th)^((d + 1) / 2)`` and a ``2 d^2`` physical
    qubit footprint (data plus syndrome qubits).  The numbers are only meant
    to give examples realistic values of the paper's ``R`` knob.

    Raises
    ------
    ValueError
        If the physical error rate is at or above threshold (the code cannot
        suppress errors) or the target is not below the physical rate.
    """
    if not 0.0 < physical_error_rate < 1.0:
        raise ValueError(f"physical_error_rate must be in (0, 1), got {physical_error_rate}")
    if not 0.0 < target_logical_error_rate < 1.0:
        raise ValueError(
            f"target_logical_error_rate must be in (0, 1), got {target_logical_error_rate}"
        )
    if physical_error_rate >= threshold:
        raise ValueError(
            f"physical error rate {physical_error_rate} is not below the threshold {threshold}"
        )
    ratio = physical_error_rate / threshold
    # Solve prefactor * ratio^((d+1)/2) <= target for the smallest odd d >= 3.
    distance = 3
    while True:
        logical = prefactor * ratio ** ((distance + 1) / 2.0)
        if logical <= target_logical_error_rate:
            break
        distance += 2
        if distance > 101:
            raise ValueError("required code distance exceeds 101; target unreachable")
    footprint = 2.0 * distance**2
    return QECCode(
        name=f"surface-d{distance}",
        physical_per_logical=footprint,
        logical_error_rate=prefactor * ratio ** ((distance + 1) / 2.0),
    )
