"""Tests for demand models, deterministic generation and routing."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.network.demand import (
    ConsumerPairShortfallWarning,
    ConsumptionRequest,
    DemandMatrix,
    RequestSequence,
    select_consumer_groups,
    select_consumer_pairs,
    uniform_demand,
)
from repro.network.generation import DeterministicGeneration


class TestSelectConsumerPairs:
    def test_count_and_uniqueness(self, small_cycle, rng):
        pairs = select_consumer_pairs(small_cycle, 5, rng)
        assert len(pairs) == 5
        assert len(set(pairs)) == 5

    def test_all_pairs_when_too_many_requested(self, small_cycle, rng):
        with pytest.warns(ConsumerPairShortfallWarning) as caught:
            pairs = select_consumer_pairs(small_cycle, 1000, rng)
        assert len(pairs) == 15
        warning = caught[0].message
        assert warning.requested == 1000
        assert warning.available == 15

    def test_exact_candidate_count_does_not_warn(self, small_cycle, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConsumerPairShortfallWarning)
            pairs = select_consumer_pairs(small_cycle, 15, rng)
        assert len(pairs) == 15

    def test_shortfall_recorded_in_trial_metadata(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_trial

        config = ExperimentConfig(
            topology="cycle", n_nodes=5, n_requests=6, n_consumer_pairs=35, seed=1
        )
        with pytest.warns(ConsumerPairShortfallWarning):
            outcome = run_trial(config)
        assert outcome.effective_consumer_pairs == 10  # C(5, 2)
        assert len(outcome.workload_warnings) == 1
        assert "10" in outcome.workload_warnings[0]

    def test_full_draw_records_effective_pairs_without_warnings(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_trial

        config = ExperimentConfig(
            topology="cycle", n_nodes=9, n_requests=6, n_consumer_pairs=5, seed=1
        )
        outcome = run_trial(config)
        assert outcome.effective_consumer_pairs == 5
        assert outcome.workload_warnings == ()

    def test_exclude_generation_edges(self, small_cycle, rng):
        pairs = select_consumer_pairs(small_cycle, 5, rng, exclude_generation_edges=True)
        assert all(not small_cycle.has_edge(*pair) for pair in pairs)

    def test_deterministic_for_seed(self, small_cycle):
        a = select_consumer_pairs(small_cycle, 5, np.random.default_rng(9))
        b = select_consumer_pairs(small_cycle, 5, np.random.default_rng(9))
        assert a == b

    def test_rejects_non_positive(self, small_cycle, rng):
        with pytest.raises(ValueError):
            select_consumer_pairs(small_cycle, 0, rng)


class TestSelectConsumerGroups:
    def test_count_uniqueness_and_size(self, small_cycle, rng):
        groups = select_consumer_groups(small_cycle, 5, rng, group_size=3)
        assert len(groups) == 5
        assert len(set(groups)) == 5
        assert all(len(group) == 3 for group in groups)
        assert all(len(set(group)) == 3 for group in groups)

    def test_size2_delegates_to_pair_draw(self, small_cycle):
        pairs = select_consumer_pairs(small_cycle, 5, np.random.default_rng(9))
        groups = select_consumer_groups(small_cycle, 5, np.random.default_rng(9), group_size=2)
        assert groups == pairs

    def test_shortfall_warning_carries_group_size_and_topology(self, small_cycle, rng):
        with pytest.warns(ConsumerPairShortfallWarning) as caught:
            groups = select_consumer_groups(small_cycle, 1000, rng, group_size=3)
        assert len(groups) == 20  # C(6, 3)
        warning = caught[0].message
        assert warning.requested == 1000
        assert warning.available == 20
        assert warning.group_size == 3
        assert warning.topology_name == small_cycle.name
        assert "size 3" in str(warning)
        assert small_cycle.name in str(warning)

    def test_exact_candidate_count_does_not_warn(self, small_cycle, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConsumerPairShortfallWarning)
            groups = select_consumer_groups(small_cycle, 20, rng, group_size=3)
        assert len(groups) == 20

    def test_deterministic_for_seed(self, small_cycle):
        a = select_consumer_groups(small_cycle, 5, np.random.default_rng(9), group_size=3)
        b = select_consumer_groups(small_cycle, 5, np.random.default_rng(9), group_size=3)
        assert a == b

    def test_group_shortfall_recorded_in_trial_metadata(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_trial

        config = ExperimentConfig(
            topology="cycle",
            n_nodes=5,
            n_requests=6,
            n_consumer_pairs=35,
            seed=1,
            workload="multicast:rate=2",
            max_rounds=5000,
        )
        with pytest.warns(ConsumerPairShortfallWarning):
            outcome = run_trial(config)
        assert outcome.effective_consumer_pairs == 10  # C(5, 2)
        assert outcome.effective_consumer_groups == 10  # C(5, 3)
        assert any("size 3" in warning for warning in outcome.workload_warnings)

    def test_pair_only_trials_leave_group_count_unset(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_trial

        config = ExperimentConfig(
            topology="cycle", n_nodes=9, n_requests=6, n_consumer_pairs=5, seed=1
        )
        outcome = run_trial(config)
        assert outcome.effective_consumer_groups is None


class TestRequestSequence:
    def test_generation_length_and_membership(self, small_cycle, rng):
        pairs = select_consumer_pairs(small_cycle, 4, rng)
        sequence = RequestSequence.generate(pairs, 20, rng)
        assert len(sequence) == 20
        assert all(request.pair in pairs for request in sequence.requests())

    def test_head_of_line_semantics(self, small_cycle, rng):
        pairs = select_consumer_pairs(small_cycle, 3, rng)
        sequence = RequestSequence.generate(pairs, 3, rng)
        head = sequence.head()
        assert head is not None and head.index == 0
        sequence.note_head_issued(2)
        sequence.mark_head_satisfied(5)
        assert head.issued_round == 2
        assert head.satisfied_round == 5
        assert head.waiting_rounds == 3
        assert sequence.head().index == 1

    def test_mark_satisfied_when_empty_raises(self):
        sequence = RequestSequence.round_robin([(0, 1)], 1)
        sequence.mark_head_satisfied(0)
        assert sequence.all_satisfied
        with pytest.raises(IndexError):
            sequence.mark_head_satisfied(1)

    def test_round_robin_order(self):
        sequence = RequestSequence.round_robin([(0, 1), (2, 3)], 4)
        assert [request.pair for request in sequence.requests()] == [
            (0, 1), (2, 3), (0, 1), (2, 3),
        ]

    def test_weighted_generation(self, rng):
        pairs = [(0, 1), (2, 3)]
        sequence = RequestSequence.generate(pairs, 200, rng, weights=[1.0, 0.0])
        assert all(request.pair == (0, 1) for request in sequence.requests())

    def test_weight_validation(self, rng):
        with pytest.raises(ValueError):
            RequestSequence.generate([(0, 1)], 5, rng, weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            RequestSequence.generate([(0, 1)], 5, rng, weights=[0.0])

    def test_consumption_counts(self):
        sequence = RequestSequence.round_robin([(0, 1), (2, 3)], 4)
        sequence.mark_head_satisfied(0)
        sequence.mark_head_satisfied(0)
        assert sequence.consumption_counts() == {(0, 1): 1, (2, 3): 1}
        assert sequence.satisfied_count == 2
        assert sequence.pending_count == 2

    def test_empty_inputs_rejected(self, rng):
        with pytest.raises(ValueError):
            RequestSequence.generate([], 5, rng)
        with pytest.raises(ValueError):
            RequestSequence.generate([(0, 1)], 0, rng)


class TestRequestSequenceHeadOfLineEdgeCases:
    """Head-of-line blocking at the boundaries of the request stream."""

    def test_empty_sequence_is_immediately_done(self):
        sequence = RequestSequence([])
        assert sequence.head() is None
        assert sequence.all_satisfied
        assert sequence.satisfied_count == 0
        assert sequence.pending_count == 0
        assert sequence.pending_requests() == []
        assert sequence.consumption_counts() == {}
        with pytest.raises(IndexError):
            sequence.mark_head_satisfied(0)

    def test_single_pair_head_cycles_through_every_request(self):
        sequence = RequestSequence.round_robin([(0, 1)], 3)
        served = []
        while not sequence.all_satisfied:
            head = sequence.head()
            sequence.note_head_issued(head.index)
            served.append(sequence.mark_head_satisfied(head.index + 1).index)
        assert served == [0, 1, 2]
        assert sequence.consumption_counts() == {(0, 1): 3}
        assert all(request.waiting_rounds == 1 for request in sequence.satisfied_requests())

    def test_all_requests_to_one_pair_block_behind_the_head(self):
        # Every request targets the same pair: until the head is served no
        # later request may advance, and pending_requests() keeps them in
        # strict index order.
        sequence = RequestSequence([ConsumptionRequest(index=i, pair=(2, 5)) for i in range(4)])
        assert [request.index for request in sequence.pending_requests()] == [0, 1, 2, 3]
        assert sequence.head().index == 0
        sequence.mark_head_satisfied(0)
        assert sequence.head().index == 1
        assert [request.index for request in sequence.pending_requests()] == [1, 2, 3]
        assert sequence.satisfied_count == 1
        assert not sequence.all_satisfied

    def test_note_head_issued_on_exhausted_sequence_is_a_noop(self):
        sequence = RequestSequence.round_robin([(0, 1)], 1)
        sequence.mark_head_satisfied(0)
        sequence.note_head_issued(5)  # must not raise nor resurrect the head
        assert sequence.head() is None

    def test_head_of_line_survives_node_churn_ledger_invalidation(self):
        """The ordered stream must stay consistent when a node-churn scenario
        wipes ledger state mid-run: satisfied indices stay a prefix, and the
        satisfied rounds are non-decreasing along the sequence order."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_trial

        config = ExperimentConfig(
            topology="cycle",
            n_nodes=9,
            n_requests=12,
            n_consumer_pairs=5,
            seed=3,
            scenario="node-churn:start=2,period=6,downtime=3,count=2",
            max_rounds=5000,
        )
        outcome = run_trial(config)
        assert outcome.requests_satisfied == outcome.requests_total
        # Re-run with direct access to the sequence to check the per-request
        # satisfaction order.
        from repro.experiments.runner import (
            build_protocol,
            build_topology,
            build_workload_requests,
        )
        from repro.runtime.seeding import RandomStreams

        streams = RandomStreams(config.seed)
        topology = build_topology(config, streams)
        workload = build_workload_requests(config, topology, streams)
        protocol = build_protocol(config, topology, workload.requests, streams)
        protocol.run()
        satisfied = workload.requests.satisfied_requests()
        assert [request.index for request in satisfied] == list(range(len(satisfied)))
        rounds = [request.satisfied_round for request in satisfied]
        assert rounds == sorted(rounds)


class TestDemandMatrix:
    def test_symmetric_rate_lookup(self):
        demand = DemandMatrix()
        demand.set_rate(0, 3, 0.5)
        assert demand.rate(3, 0) == 0.5
        assert demand.rate(0, 0) == 0.0
        assert demand.rates == {(0, 3): 0.5}

    def test_zero_rate_removes_pair(self):
        demand = DemandMatrix()
        demand.set_rate(0, 1, 0.5)
        demand.set_rate(0, 1, 0.0)
        assert demand.pairs() == []

    def test_rejects_invalid(self):
        demand = DemandMatrix()
        with pytest.raises(ValueError):
            demand.set_rate(1, 1, 0.5)
        with pytest.raises(ValueError):
            demand.set_rate(0, 1, -0.5)

    def test_uniform_demand_validation(self):
        with pytest.raises(ValueError):
            uniform_demand([(0, 1)], rate=0.0)


class TestDeterministicGeneration:
    def test_deterministic_unit_rates(self, small_cycle):
        process = DeterministicGeneration(small_cycle)
        edges, counts = process.draw()
        assert dict(zip(edges, counts.tolist())) == {edge: 1 for edge in small_cycle.edges()}

    def test_deterministic_fractional_rates_accumulate(self):
        from repro.network.topology import Topology

        topology = Topology("t")
        topology.add_edge(0, 1, 0.5)
        process = DeterministicGeneration(topology)
        produced = [process.draw()[1].sum() for _ in range(10)]
        assert sum(produced) == 5

