"""Unit tests for the group-keyed core: keys, fusion strategies, group
requests, session-aware balancing, admission and the planned-protocol
guard.

Groups are served as Bell-pair sessions over the pair ledger; the
multicast end-to-end behaviour is pinned by ``test_golden_traces.py`` and
the experiment tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.demand import (
    ConsumptionRequest,
    RequestSequence,
)
from repro.network.topology import edge_key, group_key, group_size
from repro.protocols.fusion import (
    DEFAULT_GROUP_STRATEGY,
    GROUP_STRATEGIES,
    fusions_required,
    group_sessions,
    validate_strategy,
)
from repro.workloads.admission import AdmissionController


# ---------------------------------------------------------------------- #
# Group keys
# ---------------------------------------------------------------------- #
class TestGroupKey:
    def test_canonical_order_matches_edge_key_at_size2(self):
        assert group_key(3, 1) == edge_key(3, 1)
        assert group_key(1, 3) == group_key(3, 1)

    def test_size3_sorted_by_repr(self):
        assert group_key(2, 0, 1) == (0, 1, 2)
        assert group_key("b", "a", "c") == ("a", "b", "c")

    def test_accepts_a_single_iterable_argument(self):
        assert group_key((2, 0, 1)) == (0, 1, 2)

    def test_rejects_duplicates_and_singletons(self):
        with pytest.raises(ValueError):
            group_key(1, 1)
        with pytest.raises(ValueError):
            group_key(1, 2, 1)
        with pytest.raises(ValueError):
            group_key(1)

    def test_group_size(self):
        assert group_size(group_key(0, 1)) == 2
        assert group_size(group_key(0, 1, 2, 3)) == 4


# ---------------------------------------------------------------------- #
# Fusion strategies
# ---------------------------------------------------------------------- #
class TestFusionStrategies:
    def test_registry_and_default(self):
        assert DEFAULT_GROUP_STRATEGY in GROUP_STRATEGIES
        for strategy in GROUP_STRATEGIES:
            assert validate_strategy(strategy) == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            validate_strategy("telepathy")

    def test_shared_is_a_hub_star(self):
        group = group_key(0, 1, 2, 3)
        sessions = group_sessions(group, "shared")
        assert sessions == [edge_key(0, 1), edge_key(0, 2), edge_key(0, 3)]
        assert fusions_required(group, "shared") == 2

    def test_independent_sessions_is_all_pairs(self):
        group = group_key(0, 1, 2)
        sessions = group_sessions(group, "independent-sessions")
        assert sorted(sessions) == [edge_key(0, 1), edge_key(0, 2), edge_key(1, 2)]
        assert fusions_required(group, "independent-sessions") == 0

    def test_both_strategies_degenerate_to_one_pair_at_size2(self):
        group = group_key(4, 7)
        for strategy in GROUP_STRATEGIES:
            assert group_sessions(group, strategy) == [edge_key(4, 7)]
            assert fusions_required(group, strategy) == 0


# ---------------------------------------------------------------------- #
# Request sequences with group requests
# ---------------------------------------------------------------------- #
class TestGroupRequests:
    def test_consumption_counts_key_by_group(self):
        triple = group_key(0, 1, 2)
        sequence = RequestSequence(
            [
                ConsumptionRequest(index=0, pair=edge_key(0, 1)),
                ConsumptionRequest(index=1, pair=triple, strategy="shared"),
                ConsumptionRequest(index=2, pair=edge_key(0, 1)),
            ]
        )
        for _ in range(3):
            sequence.note_head_issued(0)
            sequence.mark_head_satisfied(1)
        counts = sequence.consumption_counts()
        assert counts[edge_key(0, 1)] == 2
        assert counts[triple] == 1

    def test_request_group_accessors(self):
        request = ConsumptionRequest(index=0, pair=group_key(2, 0, 1), strategy="shared")
        assert request.group == (0, 1, 2)
        assert request.group_size == 3


# ---------------------------------------------------------------------- #
# Session-aware balancing
# ---------------------------------------------------------------------- #
class TestBalancerSessions:
    def _balancer(self, counts, distillation=1.0):
        ledger = PairCountLedger(range(5))
        for (a, b), value in counts.items():
            ledger.add(a, b, value)
        return MaxMinBalancer(
            ledger, overheads=float(distillation), rng=np.random.default_rng(0)
        )

    def test_all_sessions_must_be_affordable(self):
        balancer = self._balancer({(0, 1): 1, (0, 2): 1})
        star = group_sessions(group_key(0, 1, 2), "shared")
        assert balancer.can_consume_sessions(star)
        assert not balancer.can_consume_sessions(
            group_sessions(group_key(0, 1, 2), "independent-sessions")
        )  # (1, 2) holds no pairs

    def test_repeated_pair_needs_cumulative_budget(self):
        balancer = self._balancer({(0, 1): 1})
        doubled = [edge_key(0, 1), edge_key(0, 1)]
        assert not balancer.can_consume_sessions(doubled)
        balancer.ledger.add(0, 1, 1)
        assert balancer.can_consume_sessions(doubled)

    def test_distillation_scales_the_session_cost(self):
        balancer = self._balancer({(0, 1): 3, (0, 2): 3}, distillation=2.0)
        star = group_sessions(group_key(0, 1, 2), "shared")
        assert balancer.can_consume_sessions(star)
        removed = balancer.consume_sessions(star)
        assert removed == 4  # two sessions x D=2
        assert balancer.ledger.count(0, 1) == 1
        assert balancer.ledger.count(0, 2) == 1

    def test_single_session_matches_can_consume(self):
        balancer = self._balancer({(0, 1): 1})
        assert balancer.can_consume_sessions([edge_key(0, 1)]) == balancer.can_consume(0, 1)


# ---------------------------------------------------------------------- #
# Admission charges every group member
# ---------------------------------------------------------------------- #
class TestGroupAdmission:
    def test_group_admission_charges_all_members(self):
        controller = AdmissionController(rate=0.0001, burst=1.0)
        assert controller.admit(group_key(0, 1, 2), now=0.0)
        # Every member spent its only token; any overlapping group is rejected.
        assert not controller.admit(group_key(2, 3, 4), now=0.0)
        assert controller.admit(group_key(3, 4, 5), now=0.0)

    def test_group_rejection_charges_no_member(self):
        controller = AdmissionController(rate=0.0001, burst=1.0)
        assert controller.admit(edge_key(0, 1), now=0.0)
        assert not controller.admit(group_key(1, 2, 3), now=0.0)  # node 1 is empty
        # Nodes 2 and 3 kept their tokens: a disjoint pair still admits.
        assert controller.admit(edge_key(2, 3), now=0.0)


# ---------------------------------------------------------------------- #
# Planned protocols reject group requests loudly
# ---------------------------------------------------------------------- #
class TestPlannedProtocolGuard:
    @pytest.mark.parametrize(
        "protocol_name",
        ["planned-connection-oriented", "planned-connectionless", "planned-on-demand"],
    )
    def test_group_request_raises_value_error(self, protocol_name):
        from repro.experiments.runner import build_protocol, build_topology
        from repro.experiments.config import ExperimentConfig
        from repro.runtime.seeding import RandomStreams

        config = ExperimentConfig(
            topology="cycle", n_nodes=6, n_consumer_pairs=3, n_requests=3,
            protocol=protocol_name, max_rounds=500,
        )
        streams = RandomStreams(0)
        topology = build_topology(config, streams)
        requests = RequestSequence(
            [ConsumptionRequest(index=0, pair=group_key(0, 1, 2), strategy="shared")]
        )
        protocol = build_protocol(config, topology, requests, streams)
        with pytest.raises(ValueError, match="2-party"):
            protocol.run()
