"""Tests for the pair-count ledger, knowledge models and balancing policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.maxmin.knowledge import GlobalKnowledge, GossipKnowledge
from repro.core.maxmin.ledger import PairCountLedger
from repro.core.maxmin.policy import (
    DistanceWeightedPolicy,
    MinRecipientCountPolicy,
    RandomPreferablePolicy,
    SwapCandidate,
)
from repro.network.topologies import cycle_topology


class TestPairCountLedger:
    def test_symmetry(self):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(0, 1, 3)
        assert ledger.count(0, 1) == ledger.count(1, 0) == 3

    def test_self_pair_is_zero_and_rejected(self):
        ledger = PairCountLedger([0, 1])
        assert ledger.count(0, 0) == 0
        with pytest.raises(ValueError):
            ledger.add(0, 0)

    def test_remove(self):
        ledger = PairCountLedger([0, 1])
        ledger.add(0, 1, 2)
        assert ledger.remove(0, 1, 1) == 1
        assert ledger.remove(1, 0, 1) == 0
        assert ledger.count(0, 1) == 0
        with pytest.raises(ValueError):
            ledger.remove(0, 1, 1)

    def test_remove_clears_partner_entry(self):
        ledger = PairCountLedger([0, 1])
        ledger.add(0, 1, 1)
        ledger.remove(0, 1, 1)
        assert ledger.partners(0) == {}
        assert ledger.nonzero_pairs() == {}

    def test_invalid_amounts(self):
        ledger = PairCountLedger([0, 1])
        with pytest.raises(ValueError):
            ledger.add(0, 1, 0)
        with pytest.raises(ValueError):
            ledger.remove(0, 1, 0)

    def test_partners_and_degree(self):
        ledger = PairCountLedger([0, 1, 2, 3])
        ledger.add(0, 1, 2)
        ledger.add(0, 2, 1)
        assert ledger.partners(0) == {1: 2, 2: 1}
        assert ledger.partners(3) == {}

    def test_totals_and_extrema(self):
        ledger = PairCountLedger([0, 1, 2])
        assert ledger.total_pairs() == 0
        ledger.add(0, 1, 2)
        ledger.add(1, 2, 5)
        assert ledger.total_pairs() == 7

    def test_copy_is_independent(self):
        ledger = PairCountLedger([0, 1])
        ledger.add(0, 1, 2)
        clone = ledger.copy()
        clone.remove(0, 1, 2)
        assert ledger.count(0, 1) == 2

    def test_snapshot_is_a_copy(self):
        ledger = PairCountLedger([0, 1])
        ledger.add(0, 1, 2)
        snapshot = ledger.partners(0)  # what a gossip message carries
        snapshot[1] = 99
        assert ledger.count(0, 1) == 2

    def test_unknown_nodes_count_zero(self):
        assert PairCountLedger().count("a", "b") == 0


class TestGlobalKnowledge:
    def test_reads_truth(self):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(1, 2, 4)
        knowledge = GlobalKnowledge(ledger)
        assert knowledge.recipient_count(0, 1, 2) == 4

    def test_message_accounting_off_by_default(self, rng):
        ledger = PairCountLedger([0, 1, 2])
        knowledge = GlobalKnowledge(ledger)
        knowledge.refresh(0, rng)
        assert knowledge.classical_overhead() == {"messages": 0, "entries": 0}

    def test_message_accounting_when_enabled(self, rng):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(0, 1, 1)
        knowledge = GlobalKnowledge(ledger, account_messages=True)
        knowledge.refresh(0, rng)
        # 3 nodes broadcasting to 2 others each.
        assert knowledge.classical_overhead()["messages"] == 6


class TestGossipKnowledge:
    def test_unknown_before_refresh(self, rng):
        ledger = PairCountLedger([0, 1, 2, 3])
        ledger.add(1, 2, 4)
        knowledge = GossipKnowledge(ledger, fanout=1)
        assert knowledge.recipient_count(0, 1, 2) is None

    def test_refresh_builds_views_and_counts_messages(self, rng):
        ledger = PairCountLedger(range(6))
        ledger.add(1, 2, 4)
        knowledge = GossipKnowledge(ledger, fanout=5)
        knowledge.refresh(0, rng)
        # With fanout = |N| - 1 every node learns every other node's vector.
        assert knowledge.recipient_count(0, 1, 2) == 4
        assert knowledge.classical_overhead()["messages"] == 6 * 5
        assert len(knowledge.known_peers(0)) == 5

    def test_views_can_be_stale(self, rng):
        ledger = PairCountLedger(range(4))
        ledger.add(1, 2, 4)
        knowledge = GossipKnowledge(ledger, fanout=3)
        knowledge.refresh(0, rng)
        ledger.add(1, 2, 6)  # truth changes after the exchange
        assert knowledge.recipient_count(0, 1, 2) == 4

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            GossipKnowledge(PairCountLedger([0, 1]), fanout=0)


def _candidate(recipient, left_count=5, right_count=5, repeater=0, left=1, right=2):
    return SwapCandidate(
        repeater=repeater,
        left=left,
        right=right,
        recipient_count=recipient,
        left_count=left_count,
        right_count=right_count,
    )


class TestPolicies:
    def test_min_recipient_selects_smallest(self, rng):
        policy = MinRecipientCountPolicy()
        chosen = policy.choose([_candidate(3), _candidate(1, left=2, right=3), _candidate(2)], rng)
        assert chosen.recipient_count == 1

    def test_min_recipient_deterministic_ties(self, rng):
        policy = MinRecipientCountPolicy()
        candidates = [_candidate(1, left=4, right=5), _candidate(1, left=2, right=3)]
        assert policy.choose(candidates, rng) is policy.choose(candidates, rng)

    def test_min_recipient_random_ties_stay_minimal(self, rng):
        policy = MinRecipientCountPolicy(randomize_ties=True)
        candidates = [_candidate(1, left=4, right=5), _candidate(1, left=2, right=3), _candidate(9)]
        for _ in range(10):
            assert policy.choose(candidates, rng).recipient_count == 1

    def test_empty_candidates_return_none(self, rng):
        assert MinRecipientCountPolicy().choose([], rng) is None
        assert RandomPreferablePolicy().choose([], rng) is None

    def test_random_policy_chooses_from_list(self, rng):
        candidates = [_candidate(1), _candidate(2, left=3, right=4)]
        assert RandomPreferablePolicy().choose(candidates, rng) in candidates

    def test_distance_weighted_prefers_on_path_repeater(self, rng):
        topology = cycle_topology(8)
        policy = DistanceWeightedPolicy(topology)
        on_path = _candidate(2, repeater=1, left=0, right=2)
        detour = _candidate(2, repeater=5, left=0, right=2)
        assert policy.detour(on_path) == 0
        assert policy.detour(detour) > 0
        assert policy.choose([detour, on_path], rng) is on_path

    def test_distance_weighted_max_detour_filters(self, rng):
        topology = cycle_topology(8)
        policy = DistanceWeightedPolicy(topology, max_detour=0)
        detour_only = [_candidate(2, repeater=5, left=0, right=2)]
        assert policy.choose(detour_only, rng) is None

    def test_candidate_produced_pair(self):
        assert _candidate(1).produced_pair == (1, 2)
        assert _candidate(1, left=2, right=1).produced_pair == (1, 2)

    def test_policy_names(self):
        assert MinRecipientCountPolicy().name() == "MinRecipientCountPolicy"
