"""Tests for the Topology class (the generation graph)."""

from __future__ import annotations

import pytest

from repro.network.topology import Topology, edge_key


class TestEdgeKey:
    def test_canonical(self):
        assert edge_key(2, 1) == edge_key(1, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            edge_key(3, 3)


class TestConstruction:
    def test_add_nodes_and_edges(self):
        topology = Topology("t")
        topology.add_edge(0, 1, 2.0)
        topology.add_edge(1, 2)
        assert topology.n_nodes == 3
        assert topology.n_edges == 2
        assert topology.has_edge(1, 0)
        assert topology.generation_rate(0, 1) == 2.0
        assert topology.generation_rate(0, 2) == 0.0

    def test_add_node_idempotent(self):
        topology = Topology("t")
        topology.add_node("a")
        topology.add_node("a")
        assert topology.n_nodes == 1

    def test_rejects_self_loop_edge(self):
        with pytest.raises(ValueError):
            Topology("t").add_edge(1, 1)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            Topology("t").add_edge(0, 1, 0.0)

    def test_remove_edge(self):
        topology = Topology("t")
        topology.add_edge(0, 1)
        topology.remove_edge(1, 0)
        assert not topology.has_edge(0, 1)
        with pytest.raises(KeyError):
            topology.remove_edge(0, 1)

    def test_positions(self):
        topology = Topology("t")
        topology.add_node(0, position=(1.0, 2.0))
        assert topology.position(0) == (1.0, 2.0)
        assert topology.position(99) is None

    def test_contains(self):
        topology = Topology("t", nodes=[1, 2])
        assert 1 in topology
        assert 3 not in topology


class TestQueries:
    def test_neighbors(self, small_cycle):
        assert sorted(small_cycle.neighbors(0)) == [1, 5]
        with pytest.raises(KeyError):
            small_cycle.neighbors(99)

    def test_degree(self, small_cycle):
        assert all(small_cycle.degree(node) == 2 for node in small_cycle.nodes)

    def test_edges_are_unique(self, small_cycle):
        edges = small_cycle.edges()
        assert len(edges) == len(set(edges)) == 6

    def test_generation_rates(self, small_cycle):
        rates = small_cycle.generation_rates()
        assert len(rates) == 6
        assert all(rate == 1.0 for rate in rates.values())
        assert small_cycle.total_generation_rate() == pytest.approx(6.0)

    def test_node_pairs_count(self, small_cycle):
        assert len(list(small_cycle.node_pairs())) == 15  # C(6, 2)


class TestGraphAlgorithms:
    def test_connectivity(self, small_cycle):
        assert small_cycle.is_connected()
        disconnected = Topology("d", nodes=[0, 1, 2, 3])
        disconnected.add_edge(0, 1)
        disconnected.add_edge(2, 3)
        assert not disconnected.is_connected()

    def test_empty_topology_is_connected(self):
        assert Topology("empty").is_connected()

    def test_shortest_path_on_cycle(self, small_cycle):
        path = small_cycle.shortest_path(0, 3)
        assert path is not None
        assert len(path) - 1 == 3
        assert small_cycle.shortest_path_length(0, 3) == 3

    def test_shortest_path_wraps_around(self, small_cycle):
        assert small_cycle.shortest_path_length(0, 5) == 1

    def test_shortest_path_to_self(self, small_cycle):
        assert small_cycle.shortest_path(2, 2) == [2]

    def test_shortest_path_unknown_node(self, small_cycle):
        with pytest.raises(KeyError):
            small_cycle.shortest_path(0, 99)

    def test_shortest_path_disconnected_returns_none(self):
        topology = Topology("d", nodes=[0, 1, 2])
        topology.add_edge(0, 1)
        assert topology.shortest_path(0, 2) is None
        assert topology.shortest_path_length(0, 2) is None

    def test_all_pairs_lengths_match_bfs(self, small_cycle):
        lengths = small_cycle.all_pairs_shortest_path_lengths()
        assert lengths[edge_key(0, 3)] == 3
        assert lengths[edge_key(0, 1)] == 1
        assert len(lengths) == 15


class TestUtilities:
    def test_copy_is_independent(self, small_cycle):
        clone = small_cycle.copy("clone")
        clone.remove_edge(0, 1)
        assert small_cycle.has_edge(0, 1)
        assert clone.name == "clone"
