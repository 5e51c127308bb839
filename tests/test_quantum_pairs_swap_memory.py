"""Tests for the circuit-level teleportation check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quantum.fidelity import teleportation_fidelity
from repro.quantum.teleportation import teleportation_circuit_fidelity


class TestTeleportation:
    def test_circuit_perfect_resource_is_exact(self, rng):
        for payload in ([1, 0], [0, 1], np.array([1, 1j]) / np.sqrt(2)):
            assert teleportation_circuit_fidelity(payload, 1.0, rng=rng) == pytest.approx(1.0)

    def test_circuit_matches_average_formula(self):
        rng = np.random.default_rng(3)
        payload = np.array([1.0, 1.0]) / np.sqrt(2)
        values = [teleportation_circuit_fidelity(payload, 0.85, rng=rng) for _ in range(120)]
        assert float(np.mean(values)) == pytest.approx(teleportation_fidelity(0.85), abs=0.03)
