"""Tests for distillation, QEC overhead and decoherence models."""

from __future__ import annotations

import pytest

from repro.quantum.decoherence import ExponentialDecoherence, NoDecoherence
from repro.quantum.distillation import (
    DistillationProtocol,
    bbpssw_output_fidelity,
    bbpssw_success_probability,
    build_schedule,
    dejmps_round,
    distillation_overhead,
    expected_pairs_for_target,
    rounds_to_target_fidelity,
    werner_coefficients,
)
from repro.quantum.qec import QECCode, apply_qec_thinning, effective_generation_rate, surface_code_overhead


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

    def test_distillation_overhead_is_one_when_already_good(self):
        assert distillation_overhead(0.96, 0.95) == pytest.approx(1.0)

    def test_distillation_overhead_grows_as_fidelity_drops(self):
        assert distillation_overhead(0.85, 0.95) > distillation_overhead(0.92, 0.95)

    def test_build_schedule_consistency(self):
        schedule = build_schedule(0.8, 0.95)
        assert schedule.rounds == rounds_to_target_fidelity(0.8, 0.95)
        assert schedule.fidelities[0] == pytest.approx(0.8)
        assert schedule.fidelities[-1] >= 0.95
        assert schedule.expected_raw_pairs == pytest.approx(expected_pairs_for_target(0.8, 0.95))
        assert len(schedule.success_probabilities) == schedule.rounds


class TestQEC:
    def test_code_validation(self):
        with pytest.raises(ValueError):
            QECCode(name="bad", physical_per_logical=0.5)
        with pytest.raises(ValueError):
            QECCode(name="bad", physical_per_logical=10, logical_error_rate=2.0)

    def test_rate(self):
        assert QECCode(name="x", physical_per_logical=4.0).rate == pytest.approx(0.25)

    def test_thinning(self):
        code = QECCode(name="x", physical_per_logical=2.0)
        thinned = apply_qec_thinning({(0, 1): 1.0, (1, 2): 3.0}, code)
        assert thinned == {(0, 1): 0.5, (1, 2): 1.5}

    def test_effective_generation_rate(self):
        code = QECCode(name="x", physical_per_logical=4.0)
        assert effective_generation_rate(8.0, code) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            effective_generation_rate(-1.0, code)

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

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExponentialDecoherence(coherence_time=0.0)
