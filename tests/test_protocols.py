"""Tests for the protocol runners (path-oblivious and planned baselines)."""

from __future__ import annotations

import pytest

from repro.analysis.overhead import swap_overhead_from_result
from repro.core.maxmin.knowledge import GossipKnowledge
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.topologies import cycle_topology, line_topology
from repro.network.topology import group_key
from repro.protocols import (
    ConnectionOrientedProtocol,
    ConnectionlessProtocol,
    OnDemandProtocol,
    PathObliviousProtocol,
)
from repro.protocols.base import ProtocolResult
from repro.sim.rng import RandomStreams


def simple_workload(topology, pairs, n_requests=6):
    return RequestSequence.round_robin(pairs, n_requests)


class TestPathObliviousProtocol:
    def test_satisfies_all_requests_on_cycle(self, streams):
        topology = cycle_topology(8)
        requests = simple_workload(topology, [(0, 4), (1, 5)], n_requests=8)
        protocol = PathObliviousProtocol(topology, requests, overheads=1.0, streams=streams)
        result = protocol.run()
        assert result.all_requests_satisfied
        assert result.swaps_performed > 0
        assert result.pairs_generated > 0
        assert result.protocol == "path-oblivious"

    def test_adjacent_requests_need_no_swaps_to_satisfy(self, streams):
        topology = cycle_topology(6)
        requests = simple_workload(topology, [(0, 1)], n_requests=3)
        protocol = PathObliviousProtocol(
            topology, requests, overheads=1.0, streams=streams, max_rounds=50
        )
        result = protocol.run()
        assert result.all_requests_satisfied
        # Requests are served straight from generation; any swaps performed
        # are pure balancing and the overhead metric treats them as waste.
        assert result.requests_satisfied == 3

    def test_overhead_at_least_one(self, streams):
        topology = cycle_topology(10)
        requests = simple_workload(topology, [(0, 5), (2, 7)], n_requests=10)
        protocol = PathObliviousProtocol(topology, requests, overheads=1.0, streams=streams)
        result = protocol.run()
        breakdown = swap_overhead_from_result(topology, result, distillation=1.0)
        assert breakdown.overhead >= 1.0

    def test_distillation_increases_work(self, streams):
        topology = cycle_topology(8)

        def run(distillation):
            requests = simple_workload(topology, [(0, 4)], n_requests=4)
            protocol = PathObliviousProtocol(
                topology, requests, overheads=distillation, streams=RandomStreams(1)
            )
            return protocol.run()

        cheap = run(1.0)
        costly = run(2.0)
        assert costly.swaps_performed > cheap.swaps_performed
        assert costly.rounds >= cheap.rounds

    def test_max_rounds_stops_unsatisfiable_run(self, streams):
        topology = cycle_topology(8)
        requests = simple_workload(topology, [(0, 4)], n_requests=500)
        protocol = PathObliviousProtocol(
            topology, requests, overheads=1.0, streams=streams, max_rounds=5
        )
        result = protocol.run()
        assert result.rounds == 5
        assert not result.all_requests_satisfied

    def test_consumptions_per_round_cap(self, streams):
        topology = cycle_topology(6)
        requests = simple_workload(topology, [(0, 1)], n_requests=6)
        protocol = PathObliviousProtocol(
            topology,
            requests,
            streams=streams,
            consumptions_per_round=1,
            max_rounds=50,
        )
        result = protocol.run()
        assert result.all_requests_satisfied
        assert result.rounds >= 6

    def test_hybrid_fallback_reduces_waiting(self):
        topology = cycle_topology(10)

        def run(hybrid):
            requests = simple_workload(topology, [(0, 5)], n_requests=5)
            protocol = PathObliviousProtocol(
                topology,
                requests,
                streams=RandomStreams(3),
                use_hybrid_fallback=hybrid,
            )
            return protocol.run()

        plain = run(False)
        hybrid = run(True)
        assert hybrid.rounds <= plain.rounds
        assert hybrid.all_requests_satisfied

    def test_gossip_knowledge_still_makes_progress(self):
        topology = cycle_topology(8)
        requests = simple_workload(topology, [(0, 4)], n_requests=3)
        protocol = PathObliviousProtocol(topology, requests, streams=RandomStreams(4))
        protocol.balancer.knowledge = GossipKnowledge(protocol.ledger, fanout=3)
        result = protocol.run()
        assert result.all_requests_satisfied

    def test_foreign_knowledge_ledger_rejected(self, streams):
        topology = cycle_topology(6)
        requests = simple_workload(topology, [(0, 3)], n_requests=2)
        foreign = GossipKnowledge(PairCountLedger(topology.nodes), fanout=2)
        with pytest.raises(ValueError):
            PathObliviousProtocol(topology, requests, streams=streams, knowledge=foreign)

    def test_classical_overhead_reported(self, streams):
        topology = cycle_topology(6)
        requests = simple_workload(topology, [(0, 3)], n_requests=2)
        protocol = PathObliviousProtocol(topology, requests, streams=streams)
        result = protocol.run()
        assert result.classical_overhead["messages"] > 0


class TestConsumptionLoop:
    """The one ordered serving loop every protocol runs each round."""

    @staticmethod
    def _protocol(pairs, counts, **kwargs):
        topology = cycle_topology(6)
        requests = RequestSequence(
            [ConsumptionRequest(index, pair) for index, pair in enumerate(pairs)]
        )
        protocol = PathObliviousProtocol(topology, requests, streams=RandomStreams(0), **kwargs)
        for (a, b), value in counts.items():
            protocol.ledger.add(a, b, value)
        return protocol

    def test_serving_stops_at_the_first_unaffordable_request(self):
        protocol = self._protocol([(0, 1), (0, 3), (0, 1)], {(0, 1): 5})
        assert protocol._consumption_phase(4) is None
        first, blocked, behind = protocol.requests.requests()
        assert (first.issued_round, first.satisfied_round) == (4, 4)
        # The head (0, 3) holds no pairs: it is issued but not served, and
        # the affordable (0, 1) request behind it waits.
        assert (blocked.issued_round, blocked.satisfied_round) == (4, None)
        assert (behind.issued_round, behind.satisfied_round) == (None, None)
        assert protocol.ledger.count(0, 1) == 4

    def test_a_group_is_charged_all_of_its_sessions_or_none(self):
        group = group_key(0, 1, 2)
        protocol = self._protocol([group], {(0, 1): 1})
        assert protocol._consumption_phase(0) is None
        assert protocol.ledger.count(0, 1) == 1  # nothing charged
        assert protocol.fusions_performed() == 0
        protocol.ledger.add(0, 2, 1)
        assert protocol._consumption_phase(1) is True
        assert protocol.ledger.count(0, 1) == protocol.ledger.count(0, 2) == 0
        assert protocol.fusions_performed() == 1
        (request,) = protocol.requests.requests()
        assert (request.issued_round, request.satisfied_round) == (0, 1)

    def test_each_request_is_issued_in_the_round_its_predecessor_is_served(self):
        requests = RequestSequence.round_robin([(0, 4), (1, 5), (2, 6)], 12)
        result = PathObliviousProtocol(
            cycle_topology(8),
            requests,
            overheads=2.0,
            streams=RandomStreams(7),
            balancer_engine="incremental",
        ).run()
        served = result.satisfied_requests
        assert [request.index for request in served] == list(range(12))
        assert served[0].issued_round == 0
        for previous, request in zip(served, served[1:]):
            assert request.issued_round == previous.satisfied_round
        assert [request.satisfied_round for request in served] == [
            50, 50, 50, 61, 63, 63, 75, 75, 87, 87, 87, 99
        ]
        assert (result.rounds, result.pairs_consumed, result.swaps_performed) == (100, 24, 229)


class TestPlannedProtocols:
    @pytest.mark.parametrize(
        "protocol_class", [ConnectionOrientedProtocol, ConnectionlessProtocol, OnDemandProtocol]
    )
    def test_satisfies_all_requests(self, protocol_class):
        topology = cycle_topology(8)
        requests = simple_workload(topology, [(0, 4), (2, 6)], n_requests=8)
        protocol = protocol_class(topology, requests, overheads=1.0, streams=RandomStreams(2))
        result = protocol.run()
        assert result.all_requests_satisfied
        assert isinstance(result, ProtocolResult)

    def test_connection_oriented_achieves_minimum_swaps(self):
        topology = cycle_topology(8)
        requests = simple_workload(topology, [(0, 4), (2, 6)], n_requests=8)
        protocol = ConnectionOrientedProtocol(topology, requests, streams=RandomStreams(2))
        result = protocol.run()
        breakdown = swap_overhead_from_result(topology, result, distillation=1.0)
        assert breakdown.overhead == pytest.approx(1.0)

    def test_connection_oriented_with_distillation(self):
        topology = line_topology(5)
        requests = simple_workload(topology, [(0, 4)], n_requests=2)
        protocol = ConnectionOrientedProtocol(topology, requests, overheads=2.0, streams=RandomStreams(2))
        result = protocol.run()
        assert result.all_requests_satisfied
        breakdown = swap_overhead_from_result(topology, result, distillation=2.0)
        assert breakdown.overhead == pytest.approx(1.0)

    def test_on_demand_generates_less(self):
        topology = cycle_topology(8)
        always_on = ConnectionOrientedProtocol(
            topology, simple_workload(topology, [(0, 4)], 4), streams=RandomStreams(5)
        ).run()
        reactive = OnDemandProtocol(
            topology, simple_workload(topology, [(0, 4)], 4), streams=RandomStreams(5)
        ).run()
        assert reactive.pairs_generated < always_on.pairs_generated
        assert reactive.pairs_remaining <= always_on.pairs_remaining

    def test_connectionless_window_validation(self):
        topology = cycle_topology(6)
        with pytest.raises(ValueError):
            ConnectionlessProtocol(
                topology, simple_workload(topology, [(0, 3)], 2), window=0
            )

    def test_connectionless_can_complete_out_of_order(self):
        topology = cycle_topology(8)
        # Second consumer pair is adjacent, so it can complete while the head
        # (a long pair) is still waiting.
        requests = RequestSequence.round_robin([(0, 4), (5, 6)], 4)
        protocol = ConnectionlessProtocol(topology, requests, streams=RandomStreams(6), window=4)
        result = protocol.run()
        assert result.all_requests_satisfied

    @pytest.mark.parametrize(
        "protocol_class, k",
        [(ConnectionOrientedProtocol, 1), (ConnectionlessProtocol, 0), (OnDemandProtocol, 2)],
    )
    def test_classical_overhead_is_k_messages_per_hop_plus_swaps(self, protocol_class, k):
        """Three requests of 4 hops and three of 1 hop: 15 hops and, at D=2,
        3 x 10 nested swaps; messages 45, 30 and 60."""
        topology = cycle_topology(8)
        requests = RequestSequence.round_robin([(0, 4), (2, 3)], 6)
        result = protocol_class(topology, requests, overheads=2.0, streams=RandomStreams(2)).run()
        assert result.requests_satisfied == 6
        assert result.swaps_performed == 30
        messages = k * 15 + 30
        assert result.classical_overhead == {"messages": messages, "entries": messages}

    def test_swaps_by_node_totals(self):
        topology = cycle_topology(8)
        requests = simple_workload(topology, [(0, 4)], n_requests=4)
        protocol = ConnectionOrientedProtocol(topology, requests, streams=RandomStreams(2))
        result = protocol.run()
        assert sum(result.swaps_by_node.values()) == result.swaps_performed

    @pytest.mark.parametrize("protocol", ["planned-connection-oriented", "planned-on-demand"])
    def test_pair_cut_off_by_link_churn_waits_for_the_repair(self, protocol):
        """Churn cuts consumer pairs 0-13 and 0-7 off the generation graph for
        a while; the head request waits (the miss is not cached) instead of
        ending the trial with ``no generation-graph path``."""
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_trial

        outcome = run_trial(
            ExperimentConfig(
                protocol=protocol,
                topology="grid",
                n_nodes=16,
                n_requests=30,
                seed=3,
                distillation=2,
                max_rounds=2000,
                scenario="link-churn:start=3,period=8,downtime=50,count=4,drop_pairs=true",
            )
        )
        assert outcome.requests_total == 30
        assert outcome.requests_satisfied == 30


class TestProtocolResult:
    def test_mean_waiting_and_swaps_per_request(self, streams):
        topology = cycle_topology(6)
        requests = simple_workload(topology, [(0, 3)], n_requests=4)
        result = PathObliviousProtocol(topology, requests, streams=streams).run()
        assert result.mean_waiting_rounds() >= 0
        assert result.swaps_per_satisfied_request() > 0

    def test_empty_result_statistics_are_nan(self):
        result = ProtocolResult(
            protocol="x",
            topology="t",
            n_nodes=3,
            rounds=0,
            swaps_performed=0,
            requests_total=5,
            requests_satisfied=0,
            pairs_generated=0,
            pairs_consumed=0,
            pairs_remaining=0,
        )
        assert result.mean_waiting_rounds() != result.mean_waiting_rounds()  # NaN
        assert result.swaps_per_satisfied_request() != result.swaps_per_satisfied_request()
        assert not result.all_requests_satisfied

    def test_base_protocol_validation(self, streams):
        topology = cycle_topology(6)
        requests = simple_workload(topology, [(0, 3)], n_requests=2)
        with pytest.raises(ValueError):
            PathObliviousProtocol(topology, requests, streams=streams, max_rounds=0)
        with pytest.raises(ValueError):
            PathObliviousProtocol(topology, requests, streams=streams, consumptions_per_round=0)
