"""A small density-matrix simulator.

The network-level simulations never manipulate density matrices -- they use
the Werner-state fidelity algebra in :mod:`repro.quantum.fidelity`.  This
module exists so the algebra can be *derived and verified* rather than
asserted: the test suite builds Bell pairs, applies depolarising noise,
performs entanglement swaps, teleportation and purification on actual
density matrices and checks that the closed-form formulas used by the
network layer agree.

Only a handful of qubits are ever simulated at once (at most four for the
purification circuit), so a dense ``2^n x 2^n`` complex matrix is perfectly
adequate.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.gates import CNOT, HADAMARD, IDENTITY, PAULI_X, PAULI_Z


class DensityMatrix:
    """An ``n``-qubit mixed state represented by its density matrix.

    Qubits are indexed ``0 .. n-1`` with qubit 0 the most significant bit of
    the computational-basis index (the usual big-endian kron ordering).
    """

    def __init__(self, matrix: np.ndarray, validate: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {matrix.shape}")
        dimension = matrix.shape[0]
        n_qubits = int(round(np.log2(dimension)))
        if 2**n_qubits != dimension:
            raise ValueError(f"dimension {dimension} is not a power of two")
        if validate:
            if not np.allclose(matrix, matrix.conj().T, atol=1e-9):
                raise ValueError("density matrix must be Hermitian")
            trace = np.trace(matrix).real
            if not np.isclose(trace, 1.0, atol=1e-8):
                raise ValueError(f"density matrix must have unit trace, got {trace}")
        self._matrix = matrix
        self._n_qubits = n_qubits

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_statevector(cls, vector: Sequence[complex]) -> "DensityMatrix":
        """Build a pure state ``|psi><psi|`` from a state vector."""
        vector = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(vector)
        if norm == 0:
            raise ValueError("state vector must be non-zero")
        vector = vector / norm
        return cls(np.outer(vector, vector.conj()))

    @classmethod
    def computational_basis(cls, n_qubits: int, index: int = 0) -> "DensityMatrix":
        """Build the pure computational-basis state ``|index>`` on ``n_qubits``."""
        if n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        dimension = 2**n_qubits
        if not 0 <= index < dimension:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        vector = np.zeros(dimension, dtype=complex)
        vector[index] = 1.0
        return cls.from_statevector(vector)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        """The maximally mixed state ``I / 2^n``."""
        dimension = 2**n_qubits
        return cls(np.eye(dimension, dtype=complex) / dimension)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def matrix(self) -> np.ndarray:
        """The underlying complex matrix (a copy is *not* made)."""
        return self._matrix

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    def purity(self) -> float:
        """``Tr(rho^2)``; 1 for pure states, ``1/2^n`` for the maximally mixed state."""
        return float(np.trace(self._matrix @ self._matrix).real)

    def probabilities(self) -> np.ndarray:
        """The computational-basis measurement probabilities (the diagonal)."""
        return np.clip(np.diag(self._matrix).real, 0.0, 1.0)

    # ------------------------------------------------------------------ #
    # Composition and evolution
    # ------------------------------------------------------------------ #
    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Return the joint state ``self (x) other``."""
        return DensityMatrix(np.kron(self._matrix, other._matrix), validate=False)

    def _expand_operator(self, operator: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
        """Expand ``operator`` acting on ``qubits`` to the full Hilbert space.

        The operator is given in the ordering of ``qubits`` (first listed
        qubit is the most significant bit of the operator's index space).
        """
        operator = np.asarray(operator, dtype=complex)
        k = len(qubits)
        if operator.shape != (2**k, 2**k):
            raise ValueError(
                f"operator shape {operator.shape} does not act on {k} qubits"
            )
        if len(set(qubits)) != k:
            raise ValueError(f"duplicate qubits in {qubits}")
        for qubit in qubits:
            if not 0 <= qubit < self._n_qubits:
                raise ValueError(f"qubit index {qubit} out of range")
        n = self._n_qubits
        full = np.zeros((2**n, 2**n), dtype=complex)
        others = [q for q in range(n) if q not in qubits]
        # Iterate over all basis states, mapping (qubits-part, others-part).
        for row_local in range(2**k):
            for col_local in range(2**k):
                amplitude = operator[row_local, col_local]
                if amplitude == 0:
                    continue
                for rest in range(2 ** len(others)):
                    row_bits = [0] * n
                    col_bits = [0] * n
                    for position, qubit in enumerate(qubits):
                        row_bits[qubit] = (row_local >> (k - 1 - position)) & 1
                        col_bits[qubit] = (col_local >> (k - 1 - position)) & 1
                    for position, qubit in enumerate(others):
                        bit = (rest >> (len(others) - 1 - position)) & 1
                        row_bits[qubit] = bit
                        col_bits[qubit] = bit
                    row_index = int("".join(str(b) for b in row_bits), 2) if n else 0
                    col_index = int("".join(str(b) for b in col_bits), 2) if n else 0
                    full[row_index, col_index] += amplitude
        return full

    def apply_unitary(self, unitary: np.ndarray, qubits: Sequence[int]) -> "DensityMatrix":
        """Return the state after applying ``unitary`` to ``qubits``."""
        full = self._expand_operator(unitary, qubits)
        return DensityMatrix(full @ self._matrix @ full.conj().T, validate=False)

    def apply_kraus(self, kraus_operators: Iterable[np.ndarray], qubits: Sequence[int]) -> "DensityMatrix":
        """Apply a quantum channel given by Kraus operators on ``qubits``."""
        result = np.zeros_like(self._matrix)
        for kraus in kraus_operators:
            full = self._expand_operator(kraus, qubits)
            result += full @ self._matrix @ full.conj().T
        return DensityMatrix(result, validate=False)

    def depolarize(self, qubit: int, probability: float) -> "DensityMatrix":
        """Apply a single-qubit depolarising channel with error probability ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be within [0, 1], got {probability}")
        from repro.quantum.gates import PAULI_X, PAULI_Y, PAULI_Z  # local import avoids cycle noise

        kraus = [
            np.sqrt(1 - probability) * IDENTITY,
            np.sqrt(probability / 3) * PAULI_X,
            np.sqrt(probability / 3) * PAULI_Y,
            np.sqrt(probability / 3) * PAULI_Z,
        ]
        return self.apply_kraus(kraus, [qubit])

    # ------------------------------------------------------------------ #
    # Measurement and reduction
    # ------------------------------------------------------------------ #
    def measure(
        self, qubit: int, rng: Optional[np.random.Generator] = None, outcome: Optional[int] = None
    ) -> Tuple[int, float, "DensityMatrix"]:
        """Measure ``qubit`` in the computational basis.

        Parameters
        ----------
        qubit:
            Which qubit to measure.
        rng:
            Random generator used to sample the outcome.  Ignored when
            ``outcome`` is provided.
        outcome:
            Force a specific outcome (0 or 1); used for post-selection in the
            purification analysis.

        Returns
        -------
        tuple
            ``(outcome, probability, post_measurement_state)`` where the
            post-measurement state still contains the measured qubit
            (collapsed); use :meth:`partial_trace` to drop it.
        """
        projector_0 = np.array([[1, 0], [0, 0]], dtype=complex)
        projector_1 = np.array([[0, 0], [0, 1]], dtype=complex)
        p0_full = self._expand_operator(projector_0, [qubit])
        p1_full = self._expand_operator(projector_1, [qubit])
        prob_0 = float(np.trace(p0_full @ self._matrix).real)
        prob_0 = min(max(prob_0, 0.0), 1.0)
        prob_1 = 1.0 - prob_0
        if outcome is None:
            generator = rng if rng is not None else np.random.default_rng()
            outcome = int(generator.random() >= prob_0)
        if outcome not in (0, 1):
            raise ValueError(f"measurement outcome must be 0 or 1, got {outcome}")
        probability = prob_0 if outcome == 0 else prob_1
        projector = p0_full if outcome == 0 else p1_full
        if probability <= 1e-15:
            raise ValueError(f"cannot post-select on a zero-probability outcome {outcome}")
        post = projector @ self._matrix @ projector / probability
        return outcome, probability, DensityMatrix(post, validate=False)

    def partial_trace(self, keep: Sequence[int]) -> "DensityMatrix":
        """Trace out every qubit not listed in ``keep``."""
        keep = list(keep)
        for qubit in keep:
            if not 0 <= qubit < self._n_qubits:
                raise ValueError(f"qubit index {qubit} out of range")
        if len(set(keep)) != len(keep):
            raise ValueError("duplicate qubits in keep list")
        n = self._n_qubits
        drop = [q for q in range(n) if q not in keep]
        reshaped = self._matrix.reshape([2] * (2 * n))
        # Axes: row qubits are 0..n-1, column qubits are n..2n-1.
        for count, qubit in enumerate(sorted(drop)):
            axis_row = qubit - count
            axis_col = axis_row + (n - count)
            reshaped = np.trace(reshaped, axis1=axis_row, axis2=axis_col)
        k = len(keep)
        result = reshaped.reshape(2**k, 2**k)
        # Reorder the kept qubits to the order requested by the caller.
        current_order = sorted(keep)
        if current_order != keep:
            permutation = [current_order.index(q) for q in keep]
            result_tensor = result.reshape([2] * (2 * k))
            axes = permutation + [p + k for p in permutation]
            result_tensor = np.transpose(result_tensor, axes)
            result = result_tensor.reshape(2**k, 2**k)
        return DensityMatrix(result, validate=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(n_qubits={self._n_qubits}, purity={self.purity():.4f})"


# ---------------------------------------------------------------------- #
# Bell states and fidelity
# ---------------------------------------------------------------------- #
_BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_state(which: str = "phi+") -> DensityMatrix:
    """Return one of the four Bell states as a two-qubit :class:`DensityMatrix`."""
    key = which.lower()
    if key not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell state {which!r}; choose from {sorted(_BELL_VECTORS)}")
    return DensityMatrix.from_statevector(_BELL_VECTORS[key])


def bell_state_vector(which: str = "phi+") -> np.ndarray:
    """Return the state vector of one of the four Bell states."""
    key = which.lower()
    if key not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell state {which!r}; choose from {sorted(_BELL_VECTORS)}")
    return _BELL_VECTORS[key].copy()


def fidelity(state: DensityMatrix, target: DensityMatrix) -> float:
    """Fidelity of ``state`` with respect to a *pure* ``target`` state.

    For a pure target ``|psi>``, ``F = <psi| rho |psi>``, which is the form
    used throughout the paper (fidelity with respect to the ideal Bell
    state).  ``target`` must therefore be (numerically) pure.
    """
    if state.n_qubits != target.n_qubits:
        raise ValueError("states must have the same number of qubits")
    if target.purity() < 1.0 - 1e-6:
        raise ValueError("fidelity() requires a pure target state")
    return float(np.trace(target.matrix @ state.matrix).real)


def create_bell_pair_circuit() -> DensityMatrix:
    """Create ``|Phi+>`` the way hardware does: ``CNOT . (H (x) I) |00>``."""
    state = DensityMatrix.computational_basis(2, 0)
    state = state.apply_unitary(HADAMARD, [0])
    state = state.apply_unitary(CNOT, [0, 1])
    return state


def bell_measurement(
    state: DensityMatrix,
    qubit_a: int,
    qubit_b: int,
    rng: Optional[np.random.Generator] = None,
    outcomes: Optional[Tuple[int, int]] = None,
) -> Tuple[Tuple[int, int], DensityMatrix]:
    """Perform a Bell-state measurement on ``(qubit_a, qubit_b)``.

    The measurement is realised as the standard circuit: CNOT with
    ``qubit_a`` as control, Hadamard on ``qubit_a``, then computational-basis
    measurement of both qubits.  Returns the two classical bits and the
    post-measurement state (measured qubits still present but collapsed).
    """
    working = state.apply_unitary(CNOT, [qubit_a, qubit_b])
    working = working.apply_unitary(HADAMARD, [qubit_a])
    forced_a = outcomes[0] if outcomes is not None else None
    forced_b = outcomes[1] if outcomes is not None else None
    bit_a, _, working = working.measure(qubit_a, rng=rng, outcome=forced_a)
    bit_b, _, working = working.measure(qubit_b, rng=rng, outcome=forced_b)
    return (bit_a, bit_b), working


def pauli_correction(bit_a: int, bit_b: int) -> np.ndarray:
    """The Pauli correction ``Z^{bit_a} X^{bit_b}`` applied after a Bell measurement."""
    correction = IDENTITY
    if bit_b == 1:
        correction = PAULI_X @ correction
    if bit_a == 1:
        correction = PAULI_Z @ correction
    return correction
