"""Tests for distillation, QEC overhead and decoherence models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quantum.decoherence import ExponentialDecoherence, NoDecoherence
from repro.quantum.distillation import (
    DistillationProtocol,
    bbpssw_output_fidelity,
    bbpssw_success_probability,
    dejmps_round,
    distillation_overhead,
    expected_pairs_for_target,
    rounds_to_target_fidelity,
    werner_coefficients,
)
from repro.quantum.fidelity import decohered_fidelity
from repro.quantum.qec import QECCode, surface_code_overhead

from quantum_oracle import PHI_PLUS

PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
#: The Bell basis in ``dejmps_round``'s coefficient order.
BELL_BASIS = (PHI_PLUS, PSI_PLUS, PSI_MINUS, PHI_MINUS)


def bell_diagonal(coefficients):
    return sum(weight * np.outer(state, state) for weight, state in zip(coefficients, BELL_BASIS))


def bilateral_cnot_round(rho):
    """One recurrence round on two copies of ``rho``, as a circuit.

    Qubits are ordered ``A1 B1 A2 B2``: both parties apply a CNOT from their
    half of pair 1 onto their half of pair 2, measure pair 2 in the Z basis,
    and keep pair 1 when the outcomes agree.  Returns the success
    probability and the normalised kept pair.
    """
    cnots = np.zeros((16, 16))
    for index in range(16):
        a1, b1, a2, b2 = (index >> 3) & 1, (index >> 2) & 1, (index >> 1) & 1, index & 1
        cnots[(a1 << 3) | (b1 << 2) | ((a2 ^ a1) << 1) | (b2 ^ b1), index] = 1.0
    joint = (cnots @ np.kron(rho, rho) @ cnots.T).reshape(4, 4, 4, 4)
    kept = joint[:, 0, :, 0] + joint[:, 3, :, 3]
    success = float(np.trace(kept))
    return success, kept / success


def weight(rho, state):
    return float(state @ rho @ state)


class TestBBPSSW:
    def test_improves_distillable_fidelity(self):
        for fidelity in (0.6, 0.75, 0.9):
            assert bbpssw_output_fidelity(fidelity) > fidelity

    def test_fixed_points(self):
        assert bbpssw_output_fidelity(1.0) == pytest.approx(1.0)
        assert bbpssw_output_fidelity(0.5) == pytest.approx(0.5)

    def test_success_probability_in_range(self):
        for fidelity in (0.5, 0.7, 0.95, 1.0):
            assert 0.0 < bbpssw_success_probability(fidelity) <= 1.0

    def test_perfect_input_always_succeeds(self):
        assert bbpssw_success_probability(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("fidelity", (0.5, 0.6, 0.75, 0.9, 0.99, 1.0))
    def test_matches_bilateral_cnot_circuit(self, fidelity):
        success, kept = bilateral_cnot_round(bell_diagonal(werner_coefficients(fidelity)))
        assert success == pytest.approx(bbpssw_success_probability(fidelity), abs=1e-9)
        assert weight(kept, PHI_PLUS) == pytest.approx(bbpssw_output_fidelity(fidelity), abs=1e-9)


class TestDEJMPS:
    def test_success_probability_returned(self):
        coefficients = werner_coefficients(0.8)
        _, success = dejmps_round(coefficients)
        assert 0.0 < success <= 1.0

    def test_output_normalised(self):
        output, _ = dejmps_round(werner_coefficients(0.8))
        assert sum(output) == pytest.approx(1.0)

    def test_improves_werner_fidelity(self):
        output, _ = dejmps_round(werner_coefficients(0.8))
        assert output[0] > 0.8

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            dejmps_round((0.5, 0.5, 0.5, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dejmps_round((1.2, -0.2, 0.0, 0.0))

    @pytest.mark.parametrize(
        "coefficients",
        ((0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3), (0.7, 0.1, 0.15, 0.05), (0.6, 0.3, 0.05, 0.05), (0.5, 0.0, 0.2, 0.3), (1.0, 0.0, 0.0, 0.0)),
    )
    def test_matches_bilateral_cnot_circuit(self, coefficients):
        # The returned weights are the circuit's (Phi+, Phi-, Psi+, Psi-),
        # relabelled by DEJMPS's local rotation for the next round.
        success, kept = bilateral_cnot_round(bell_diagonal(coefficients))
        output, probability = dejmps_round(coefficients)
        assert probability == pytest.approx(success, abs=1e-9)
        circuit = [weight(kept, state) for state in (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS)]
        assert output == pytest.approx(circuit, abs=1e-9)

    @pytest.mark.parametrize("fidelity", (0.55, 0.7, 0.8, 0.95, 1.0))
    def test_first_round_on_a_werner_pair_is_bbpssw(self, fidelity):
        output, success = dejmps_round(werner_coefficients(fidelity))
        assert success == pytest.approx(bbpssw_success_probability(fidelity), abs=1e-12)
        assert output[0] == pytest.approx(bbpssw_output_fidelity(fidelity), abs=1e-12)


class TestOverheadDerivation:
    def test_no_rounds_needed_when_target_met(self):
        assert rounds_to_target_fidelity(0.95, 0.9) == 0
        assert expected_pairs_for_target(0.95, 0.9) == pytest.approx(1.0)

    def test_rounds_increase_with_target(self):
        low = rounds_to_target_fidelity(0.8, 0.9)
        high = rounds_to_target_fidelity(0.8, 0.99)
        assert high >= low >= 1

    def test_undistillable_input_rejected(self):
        with pytest.raises(ValueError):
            rounds_to_target_fidelity(0.5, 0.9)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            rounds_to_target_fidelity(0.55, 0.999999, max_rounds=2)

    def test_expected_pairs_at_least_doubling(self):
        cost = expected_pairs_for_target(0.8, 0.95)
        rounds = rounds_to_target_fidelity(0.8, 0.95)
        assert cost >= 2**rounds

    def test_dejmps_cheaper_or_equal_to_bbpssw(self):
        bbpssw = expected_pairs_for_target(0.8, 0.95, DistillationProtocol.BBPSSW)
        dejmps = expected_pairs_for_target(0.8, 0.95, DistillationProtocol.DEJMPS)
        assert dejmps <= bbpssw + 1e-9

    @pytest.mark.parametrize("link, target", ((0.6, 0.9), (0.7, 0.99), (0.9, 0.999), (0.52, 0.8)))
    def test_dejmps_never_costs_more_than_bbpssw(self, link, target):
        bbpssw = expected_pairs_for_target(link, target, DistillationProtocol.BBPSSW)
        dejmps = expected_pairs_for_target(link, target, DistillationProtocol.DEJMPS)
        assert dejmps <= bbpssw + 1e-9

    def test_expected_pairs_follows_the_nested_recurrence(self):
        # cost_k = 2 cost_{k-1} / p_k, round by round.
        rounds = rounds_to_target_fidelity(0.75, 0.95)
        cost, fidelity = 1.0, 0.75
        for _ in range(rounds):
            cost = 2.0 * cost / bbpssw_success_probability(fidelity)
            fidelity = bbpssw_output_fidelity(fidelity)
        assert fidelity >= 0.95
        assert expected_pairs_for_target(0.75, 0.95) == pytest.approx(cost, rel=1e-12)

    def test_distillation_overhead_is_one_when_already_good(self):
        assert distillation_overhead(0.96, 0.95) == pytest.approx(1.0)

    def test_distillation_overhead_grows_as_fidelity_drops(self):
        assert distillation_overhead(0.85, 0.95) > distillation_overhead(0.92, 0.95)


class TestQEC:
    def test_code_validation(self):
        with pytest.raises(ValueError):
            QECCode(name="bad", physical_per_logical=0.5)
        with pytest.raises(ValueError):
            QECCode(name="bad", physical_per_logical=10, logical_error_rate=2.0)

    def test_rate(self):
        assert QECCode(name="x", physical_per_logical=4.0).rate == pytest.approx(0.25)

    def test_surface_code_distance_grows_with_target(self):
        lenient = surface_code_overhead(0.001, 1e-6)
        strict = surface_code_overhead(0.001, 1e-12)
        assert strict.physical_per_logical > lenient.physical_per_logical
        assert strict.logical_error_rate <= 1e-12

    def test_surface_code_rejects_above_threshold(self):
        with pytest.raises(ValueError):
            surface_code_overhead(0.02, 1e-9, threshold=0.01)


class TestDecoherence:
    def test_no_decoherence_model(self):
        model = NoDecoherence()
        assert model.fidelity_after(0.9, 1e9) == pytest.approx(0.9)
        assert model.loss_factor(1e9) == 1.0

    def test_exponential_fidelity_decay(self):
        model = ExponentialDecoherence(coherence_time=10.0)
        assert model.fidelity_after(0.9, 0.0) == pytest.approx(0.9)
        assert model.fidelity_after(0.9, 10.0) < 0.9

    def test_exponential_loss_factor(self):
        model = ExponentialDecoherence(coherence_time=10.0)
        assert model.loss_factor(0.0) == pytest.approx(1.0)
        assert model.loss_factor(10.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            model.loss_factor(-1.0)

    def test_exponential_model_is_the_depolarising_memory(self):
        model = ExponentialDecoherence(coherence_time=4.0)
        for elapsed in (0.0, 1.0, 4.0, 40.0):
            assert model.fidelity_after(0.9, elapsed) == decohered_fidelity(0.9, elapsed, 4.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExponentialDecoherence(coherence_time=0.0)
