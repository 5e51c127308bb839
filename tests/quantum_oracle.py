"""Density-matrix oracle for the Werner closed forms in ``repro.quantum``.

Builds ``rho(F) = F |Phi+><Phi+| + (1 - F)/3 (I - |Phi+><Phi+|)`` as an
explicit 4x4 matrix and runs the two circuits the closed forms summarise:
a swap (a Bell measurement on the two middle qubits) and teleportation of
a qubit through the pair.  Exact: no sampling.
"""

from __future__ import annotations

import numpy as np

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
_BELL = np.outer(PHI_PLUS, PHI_PLUS)
_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
#: The six Pauli eigenstates: a 2-design, so their mean fidelity is the
#: average over every pure input state.
_PAULI_EIGENSTATES = [
    np.array(vector) / np.linalg.norm(vector)
    for vector in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])
]


def werner(fidelity: float) -> np.ndarray:
    """``rho(F)`` on two qubits."""
    return fidelity * _BELL + (1.0 - fidelity) / 3.0 * (np.eye(4) - _BELL)


def bell_fidelity(rho: np.ndarray) -> float:
    """``<Phi+| rho |Phi+>``."""
    return float(np.real(PHI_PLUS @ rho @ PHI_PLUS))


def swapped(fidelity_a: float, fidelity_b: float) -> np.ndarray:
    """Qubits 0 and 3 of ``rho(F_a) x rho(F_b)`` after projecting 1 and 2 onto Phi+."""
    joint = np.kron(werner(fidelity_a), werner(fidelity_b)).reshape((2,) * 8)
    phi = PHI_PLUS.reshape(2, 2)
    kept = np.einsum("bc,abcdefgh,fg->adeh", phi, joint, phi).reshape(4, 4)
    return kept / np.trace(kept)


def teleported_fidelity(fidelity: float) -> float:
    """Mean fidelity of teleporting each Pauli eigenstate through ``rho(F)``.

    Qubit 0 holds the input, qubits 1 and 2 the pair; every Bell outcome
    ``(I x P)|Phi+>`` on qubits 0 and 1 is followed by the correction ``P``
    on qubit 2, and the outcomes are summed with their probabilities.
    """
    total = 0.0
    for state in _PAULI_EIGENSTATES:
        joint = np.kron(np.outer(state, state.conj()), werner(fidelity)).reshape((2,) * 6)
        output = np.zeros((2, 2), dtype=complex)
        for pauli in _PAULIS:
            bell = (np.kron(np.eye(2), pauli) @ PHI_PLUS).reshape(2, 2)
            kept = np.einsum("ab,abcdef,de->cf", bell.conj(), joint, bell)
            output += pauli @ kept @ pauli.conj().T
        total += float(np.real(state.conj() @ output @ state))
    return total / len(_PAULI_EIGENSTATES)
