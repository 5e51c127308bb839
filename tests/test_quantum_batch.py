"""Vectorized-vs-scalar equivalence tests for repro.quantum.batch."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum.batch import (
    bbpssw_output_fidelity_batch,
    bbpssw_success_probability_batch,
    chained_swap_fidelity_batch,
    decohered_fidelity_batch,
    depolarize_batch,
    distillation_outcomes_batch,
    swap_fidelity_batch,
    swap_outcomes_batch,
    teleportation_fidelity_batch,
)
from repro.quantum.distillation import bbpssw_output_fidelity, bbpssw_success_probability
from repro.quantum.fidelity import (
    chained_swap_fidelity,
    decohered_fidelity,
    depolarize,
    swap_fidelity,
    teleportation_fidelity,
)

fidelities = st.floats(min_value=0.25, max_value=1.0, allow_nan=False)
survivals = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

#: Acceptance criterion: batch and scalar paths agree within 1e-9.
TOLERANCE = 1e-9


class TestElementwiseEquivalence:
    """Property tests: each batch op matches its scalar original element-wise."""

    @settings(max_examples=200)
    @given(st.lists(st.tuples(fidelities, fidelities), min_size=1, max_size=64))
    def test_swap_fidelity(self, pairs):
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        scalar = np.array([swap_fidelity(x, y) for x, y in pairs])
        assert np.allclose(swap_fidelity_batch(a, b), scalar, rtol=0, atol=TOLERANCE)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(fidelities, survivals), min_size=1, max_size=64))
    def test_depolarize(self, pairs):
        f = np.array([p[0] for p in pairs])
        s = np.array([p[1] for p in pairs])
        scalar = np.array([depolarize(x, y) for x, y in pairs])
        assert np.allclose(depolarize_batch(f, s), scalar, rtol=0, atol=TOLERANCE)

    @settings(max_examples=100)
    @given(
        st.lists(fidelities, min_size=1, max_size=32),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    def test_decohered_fidelity(self, values, elapsed, coherence_time):
        f = np.array(values)
        scalar = np.array([decohered_fidelity(x, elapsed, coherence_time) for x in values])
        batch = decohered_fidelity_batch(f, elapsed, coherence_time)
        assert np.allclose(batch, scalar, rtol=0, atol=TOLERANCE)

    @settings(max_examples=100)
    @given(st.lists(st.lists(fidelities, min_size=1, max_size=8), min_size=1, max_size=16))
    def test_chained_swap(self, chains):
        hops = min(len(chain) for chain in chains)
        matrix = np.array([chain[:hops] for chain in chains])
        scalar = np.array([chained_swap_fidelity(chain[:hops]) for chain in chains])
        assert np.allclose(
            chained_swap_fidelity_batch(matrix), scalar, rtol=0, atol=TOLERANCE
        )

    @settings(max_examples=200)
    @given(st.lists(fidelities, min_size=1, max_size=64))
    def test_teleportation_fidelity(self, values):
        scalar = np.array([teleportation_fidelity(x) for x in values])
        assert np.allclose(
            teleportation_fidelity_batch(np.array(values)), scalar, rtol=0, atol=TOLERANCE
        )

    @settings(max_examples=200)
    @given(st.lists(fidelities, min_size=1, max_size=64))
    def test_bbpssw_formulas(self, values):
        f = np.array(values)
        success_scalar = np.array([bbpssw_success_probability(x) for x in values])
        output_scalar = np.array([bbpssw_output_fidelity(x) for x in values])
        assert np.allclose(
            bbpssw_success_probability_batch(f), success_scalar, rtol=0, atol=TOLERANCE
        )
        assert np.allclose(
            bbpssw_output_fidelity_batch(f), output_scalar, rtol=0, atol=TOLERANCE
        )


class TestValidation:
    def test_rejects_out_of_range_fidelity(self):
        with pytest.raises(ValueError):
            swap_fidelity_batch(np.array([0.1]), np.array([0.9]))
        with pytest.raises(ValueError):
            depolarize_batch(np.array([1.5]), 1.0)

    def test_rejects_bad_survival(self):
        with pytest.raises(ValueError):
            depolarize_batch(np.array([0.9]), np.array([1.5]))

    def test_rejects_negative_elapsed_and_bad_coherence(self):
        with pytest.raises(ValueError):
            decohered_fidelity_batch(np.array([0.9]), -1.0, 10.0)
        with pytest.raises(ValueError):
            decohered_fidelity_batch(np.array([0.9]), 1.0, 0.0)

    def test_chained_swap_requires_pairs(self):
        with pytest.raises(ValueError):
            chained_swap_fidelity_batch(np.empty((3, 0)))

    def test_swap_outcomes_rejects_bad_physics(self):
        with pytest.raises(ValueError):
            swap_outcomes_batch(np.array([0.9]), np.array([0.9]), measurement_efficiency=0.0)
        with pytest.raises(ValueError):
            swap_outcomes_batch(np.array([0.9]), np.array([0.9]), gate_fidelity=1.5)


class TestProbabilisticOutcomes:
    def test_deterministic_swaps_always_succeed(self):
        success, produced = swap_outcomes_batch(
            np.full(100, 0.95), np.full(100, 0.9), measurement_efficiency=1.0
        )
        assert success.all()
        assert np.allclose(produced, swap_fidelity(0.95, 0.9), atol=TOLERANCE)

    def test_lossy_swap_success_rate_matches_efficiency(self):
        rng = np.random.default_rng(3)
        success, _ = swap_outcomes_batch(
            np.full(20_000, 0.95), np.full(20_000, 0.95), rng=rng, measurement_efficiency=0.5
        )
        assert success.mean() == pytest.approx(0.5, abs=0.02)

    def test_distillation_success_rate_matches_formula(self):
        rng = np.random.default_rng(4)
        fidelity = np.full(20_000, 0.8)
        success, output = distillation_outcomes_batch(fidelity, rng)
        assert success.mean() == pytest.approx(bbpssw_success_probability(0.8), abs=0.02)
        assert np.allclose(output, bbpssw_output_fidelity(0.8), atol=TOLERANCE)
