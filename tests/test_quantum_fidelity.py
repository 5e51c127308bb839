"""Tests for the Werner-state fidelity algebra, checked against density matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quantum.fidelity import (
    WERNER_MINIMUM_USEFUL_FIDELITY,
    WernerState,
    chained_swap_fidelity,
    decohered_fidelity,
    depolarize,
    fidelity_after_hops,
    swap_fidelity,
    teleportation_fidelity,
)

from quantum_oracle import bell_fidelity, swapped, teleported_fidelity, werner

#: Spans the Werner range, from the completely mixed pair to the perfect one.
GRID = (0.25, 0.3, 0.5, 0.75, 0.9, 0.99, 1.0)


class TestWernerState:
    def test_fidelity_bounds(self):
        with pytest.raises(ValueError):
            WernerState(0.1)
        with pytest.raises(ValueError):
            WernerState(1.1)

    def test_swap_result_at_the_lower_bound_is_a_werner_state(self):
        # swap_fidelity(0.332, 0.25) rounds to 0.24999999999999994: the state
        # takes the same 1e-12 tolerance as the closed forms.
        assert WernerState(0.332).swap_with(WernerState(0.25)).fidelity == pytest.approx(0.25)
        with pytest.raises(ValueError):
            WernerState(0.25 - 1e-9)

    def test_werner_parameter(self):
        assert WernerState(1.0).werner_parameter() == pytest.approx(1.0)
        assert WernerState(0.25).werner_parameter() == pytest.approx(0.0)

    def test_distillable_threshold(self):
        assert WernerState(0.51).is_distillable()
        assert not WernerState(0.5).is_distillable()
        assert WERNER_MINIMUM_USEFUL_FIDELITY == 0.5

    def test_swap_with(self):
        assert WernerState(0.9).swap_with(WernerState(0.8)).fidelity == pytest.approx(
            swap_fidelity(0.9, 0.8)
        )

    def test_after_depolarizing(self):
        assert WernerState(0.9).after_depolarizing(0.5).fidelity == pytest.approx(
            depolarize(0.9, 0.5)
        )


#: Every entry point that takes a fidelity, so one bound rule covers them all.
FIDELITY_ENTRY_POINTS = {
    "WernerState": WernerState,
    "swap_fidelity": lambda value: swap_fidelity(value, 1.0),
    "chained_swap_fidelity": lambda value: chained_swap_fidelity([value]),
    "depolarize": lambda value: depolarize(value, 0.5),
    "decohered_fidelity": lambda value: decohered_fidelity(value, 1.0, 10.0),
    "teleportation_fidelity": teleportation_fidelity,
    "fidelity_after_hops": lambda value: fidelity_after_hops(value, 2),
}


@pytest.mark.parametrize("entry_point", FIDELITY_ENTRY_POINTS)
def test_one_bound_rule_for_every_fidelity(entry_point):
    call = FIDELITY_ENTRY_POINTS[entry_point]
    for value in (0.25 - 1e-13, 0.25, 1.0, 1.0 + 1e-13):
        call(value)
    for value in (0.25 - 1e-9, 1.0 + 1e-9, 0.0, 2.0):
        with pytest.raises(ValueError):
            call(value)


class TestSwapFidelity:
    def test_perfect_inputs_stay_perfect(self):
        assert swap_fidelity(1.0, 1.0) == pytest.approx(1.0)

    def test_symmetric(self):
        assert swap_fidelity(0.9, 0.7) == pytest.approx(swap_fidelity(0.7, 0.9))

    def test_degrades_below_either_input(self):
        assert swap_fidelity(0.9, 0.9) < 0.9

    def test_werner_parameter_multiplies(self):
        for f_a in GRID:
            for f_b in GRID:
                product = WernerState(f_a).werner_parameter() * WernerState(f_b).werner_parameter()
                swapped_state = WernerState(f_a).swap_with(WernerState(f_b))
                assert swapped_state.werner_parameter() == pytest.approx(product, abs=1e-12)

    @pytest.mark.parametrize("f_a", GRID)
    def test_matches_density_matrix_swap(self, f_a):
        # A Bell measurement of the two middle qubits leaves the end qubits
        # in the Werner state the closed form names.
        for f_b in GRID:
            produced = swapped(f_a, f_b)
            assert bell_fidelity(produced) == pytest.approx(swap_fidelity(f_a, f_b), abs=1e-9)
            assert np.allclose(produced, werner(swap_fidelity(f_a, f_b)), atol=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            swap_fidelity(0.1, 0.9)

    def test_completely_mixed_fixed_point(self):
        assert swap_fidelity(0.25, 0.25) == pytest.approx(0.25)


class TestChainedSwap:
    def test_single_pair_passthrough(self):
        assert chained_swap_fidelity([0.9]) == pytest.approx(0.9)

    def test_order_independent(self):
        values = [0.95, 0.85, 0.9, 0.99]
        forward = chained_swap_fidelity(values)
        backward = chained_swap_fidelity(list(reversed(values)))
        assert forward == pytest.approx(backward)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chained_swap_fidelity([])

    def test_fidelity_after_hops_decreasing(self):
        values = [fidelity_after_hops(0.95, hops) for hops in range(1, 8)]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))

    def test_fidelity_after_hops_invalid(self):
        with pytest.raises(ValueError):
            fidelity_after_hops(0.95, 0)

    @pytest.mark.parametrize("hops", range(1, 6))
    def test_matches_repeated_density_matrix_swaps(self, hops):
        # Swap one more 0.9 link onto the running pair, hops - 1 times.
        rho = werner(0.9)
        for _ in range(hops - 1):
            rho = swapped(bell_fidelity(rho), 0.9)
        assert np.allclose(rho, werner(fidelity_after_hops(0.9, hops)), atol=1e-9)

    @pytest.mark.parametrize("hops", range(1, 7))
    def test_werner_parameter_is_a_power_of_the_links(self, hops):
        w_link = WernerState(0.93).werner_parameter()
        end_to_end = WernerState(fidelity_after_hops(0.93, hops))
        assert end_to_end.werner_parameter() == pytest.approx(w_link**hops, abs=1e-12)


class TestDepolarizeAndDecoherence:
    def test_no_decay_identity(self):
        assert depolarize(0.8, 1.0) == pytest.approx(0.8)

    def test_full_decay_to_quarter(self):
        assert depolarize(0.8, 0.0) == pytest.approx(0.25)

    def test_survival_out_of_range(self):
        with pytest.raises(ValueError):
            depolarize(0.8, 1.5)

    def test_decohered_fidelity_monotone_in_time(self):
        values = [decohered_fidelity(0.95, t, coherence_time=10.0) for t in (0, 1, 5, 20)]
        assert values[0] == pytest.approx(0.95)
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))

    def test_decohered_fidelity_limits(self):
        assert decohered_fidelity(0.95, 1e6, coherence_time=1.0) == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("value", GRID)
    def test_matches_density_matrix_depolarizing(self, value):
        # White noise with weight 1 - s: s rho(F) + (1 - s) I/4.
        for survival in (0.0, 0.3, 0.8, 1.0):
            noisy = survival * werner(value) + (1.0 - survival) * np.eye(4) / 4.0
            assert np.allclose(noisy, werner(depolarize(value, survival)), atol=1e-12)

    def test_decohered_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decohered_fidelity(0.95, -1.0, 10.0)
        with pytest.raises(ValueError):
            decohered_fidelity(0.95, 1.0, 0.0)


class TestTeleportationFidelity:
    def test_perfect_pair(self):
        assert teleportation_fidelity(1.0) == pytest.approx(1.0)

    def test_useless_pair(self):
        assert teleportation_fidelity(0.25) == pytest.approx(0.5)

    def test_monotone(self):
        assert teleportation_fidelity(0.9) > teleportation_fidelity(0.7)

    @pytest.mark.parametrize("pair_fidelity", GRID)
    def test_matches_density_matrix_teleportation(self, pair_fidelity):
        assert teleported_fidelity(pair_fidelity) == pytest.approx(
            teleportation_fidelity(pair_fidelity), abs=1e-9
        )


class TestOracle:
    @pytest.mark.parametrize("value", GRID)
    def test_werner_matrix_has_its_fidelity(self, value):
        rho = werner(value)
        assert np.trace(rho) == pytest.approx(1.0)
        assert bell_fidelity(rho) == pytest.approx(value, abs=1e-12)

    def test_oracle_sees_a_wrong_closed_form(self):
        # The positive control: the oracle tells the true rules from
        # plausible wrong ones.
        assert abs(bell_fidelity(swapped(0.9, 0.8)) - 0.9 * 0.8) > 1e-3
        assert abs(teleported_fidelity(0.9) - (0.9 + 1.0) / 2.0) > 1e-3
