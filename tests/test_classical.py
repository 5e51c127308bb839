"""Tests for the classical control plane (messages and dissemination)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classical.control_plane import FloodingControlPlane
from repro.classical.gossip import ChokeUnchokeGossip
from repro.classical.messages import MessageType, message_size_bits
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.topologies import cycle_topology


class TestMessages:
    def test_count_vector_size_scales_with_entries(self):
        small = message_size_bits(MessageType.COUNT_VECTOR, entries=1)
        large = message_size_bits(MessageType.COUNT_VECTOR, entries=10)
        assert large == 10 * small

    def test_message_size_bits_types(self):
        assert message_size_bits(MessageType.HERALD) == 1
        assert message_size_bits(MessageType.TELEPORT_CORRECTION) == 2
        assert message_size_bits(MessageType.PATH_RESERVATION, path_hops=3) == 3 * 16
        with pytest.raises(ValueError):
            message_size_bits(MessageType.COUNT_VECTOR, entries=-1)


class TestFloodingControlPlane:
    def test_message_count_per_round(self):
        topology = cycle_topology(5)
        ledger = PairCountLedger(topology.nodes)
        ledger.add(0, 1, 2)
        plane = FloodingControlPlane(topology, ledger)
        plane.run_round(0)
        assert plane.total_messages == 5 * 4
        assert plane.total_bits > 0
        assert plane.bits_per_round() == plane.total_bits

    def test_summary_keys(self):
        topology = cycle_topology(4)
        plane = FloodingControlPlane(topology, PairCountLedger(topology.nodes))
        plane.run_round(0)
        summary = plane.summary()
        assert set(summary) == {"rounds", "messages", "bits", "bits_per_round"}


class TestChokeUnchokeGossip:
    def test_messages_scale_with_fanout(self, rng):
        topology = cycle_topology(8)
        ledger = PairCountLedger(topology.nodes)
        ledger.add(0, 1, 3)
        narrow = ChokeUnchokeGossip(topology, ledger, unchoked_slots=1, rng=np.random.default_rng(0))
        wide = ChokeUnchokeGossip(topology, ledger, unchoked_slots=4, rng=np.random.default_rng(0))
        narrow.run_round(0)
        wide.run_round(0)
        assert wide.total_messages == 4 * narrow.total_messages

    def test_gossip_cheaper_than_flooding(self):
        topology = cycle_topology(10)
        ledger = PairCountLedger(topology.nodes)
        ledger.add(0, 1, 1)
        flooding = FloodingControlPlane(topology, ledger)
        gossip = ChokeUnchokeGossip(topology, ledger, unchoked_slots=2, rng=np.random.default_rng(1))
        flooding.run_round(0)
        gossip.run_round(0)
        assert gossip.total_messages < flooding.total_messages
        assert gossip.total_bits < flooding.total_bits

    def test_coverage_grows_over_rounds(self):
        topology = cycle_topology(10)
        ledger = PairCountLedger(topology.nodes)
        ledger.add(0, 1, 1)
        gossip = ChokeUnchokeGossip(topology, ledger, unchoked_slots=2, rng=np.random.default_rng(2))
        gossip.run_round(0)
        early = sum(gossip.coverage(node) for node in topology.nodes)
        for round_index in range(1, 15):
            gossip.run_round(round_index)
        late = sum(gossip.coverage(node) for node in topology.nodes)
        assert late >= early

    def test_staleness_error_reflects_changes(self):
        topology = cycle_topology(6)
        ledger = PairCountLedger(topology.nodes)
        ledger.add(0, 1, 5)
        gossip = ChokeUnchokeGossip(topology, ledger, unchoked_slots=5, rng=np.random.default_rng(3))
        gossip.run_round(0)
        assert all(gossip.staleness_error(node) == 0.0 for node in topology.nodes if gossip.views.get(node))
        ledger.add(0, 1, 5)  # truth moves on
        assert any(gossip.staleness_error(node) > 0 for node in topology.nodes if gossip.views.get(node))

    def test_unchoked_peers_rotate(self):
        topology = cycle_topology(12)
        ledger = PairCountLedger(topology.nodes)
        gossip = ChokeUnchokeGossip(
            topology, ledger, unchoked_slots=2, rotation_period=1, rng=np.random.default_rng(4)
        )
        gossip.run_round(0)
        first = set(gossip.unchoked_peers(0))
        for round_index in range(1, 20):
            gossip.run_round(round_index)
        later = set(gossip.unchoked_peers(0))
        assert first != later or len(first) == 2  # rotation happened (or degenerate tiny case)

    def test_validation(self):
        topology = cycle_topology(4)
        ledger = PairCountLedger(topology.nodes)
        with pytest.raises(ValueError):
            ChokeUnchokeGossip(topology, ledger, unchoked_slots=0)
        with pytest.raises(ValueError):
            ChokeUnchokeGossip(topology, ledger, rotation_period=0)
