"""Circuit-level teleportation.

Teleportation is the application the Quantum Internet exists to serve
(Figure 1 of the paper): a Bell pair shared between origin and destination
plus two classical bits move an arbitrary qubit state between them.  The
network layer only needs to know that a teleportation *consumes* one
``[origin, destination]`` Bell pair; this module runs the circuit on
density matrices to validate the fidelity formula
``F_tel = (2 F_pair + 1) / 3``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.quantum.fidelity import WernerState
from repro.quantum.gates import CNOT, HADAMARD, IDENTITY, PAULI_X, PAULI_Z
from repro.quantum.states import DensityMatrix, fidelity as state_fidelity


def teleportation_circuit_fidelity(
    payload_state: np.ndarray,
    resource_fidelity: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Run the full teleportation circuit on density matrices and return output fidelity.

    Qubit layout: 0 = payload at the origin, 1 = origin half of the resource
    pair, 2 = destination half.  The resource pair is a Werner state of the
    requested fidelity.  The function performs the origin-side Bell
    measurement, applies the conditioned Pauli correction at the
    destination, and returns the fidelity of the destination qubit with the
    original payload.

    Averaged over random payloads, this converges to
    ``(2 * resource_fidelity + 1) / 3`` -- the check performed in the tests.
    """
    payload = DensityMatrix.from_statevector(payload_state)
    resource = WernerState(resource_fidelity).to_density_matrix()
    joint = payload.tensor(resource)

    # Origin-side Bell measurement on (payload, origin half) = qubits (0, 1).
    joint = joint.apply_unitary(CNOT, [0, 1])
    joint = joint.apply_unitary(HADAMARD, [0])
    generator = rng if rng is not None else np.random.default_rng()
    bit_a, _, joint = joint.measure(0, rng=generator)
    bit_b, _, joint = joint.measure(1, rng=generator)

    # Destination-side Pauli correction: X^{bit_b} then Z^{bit_a}.
    correction = IDENTITY
    if bit_b == 1:
        correction = PAULI_X @ correction
    if bit_a == 1:
        correction = PAULI_Z @ correction
    joint = joint.apply_unitary(correction, [2])

    received = joint.partial_trace([2])
    return state_fidelity(received, DensityMatrix.from_statevector(payload_state))
