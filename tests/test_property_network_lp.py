"""Property-based tests for topologies, demand and the LP (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lp.extensions import PairOverheads
from repro.core.lp.formulation import PathObliviousFlowProgram
from repro.core.lp.objectives import Objective
from repro.core.lp.solver import solve_flow_program
from repro.core.lp.steady_state import compute_rates, verify_steady_state
from repro.network.demand import RequestSequence, select_consumer_pairs, uniform_demand
from repro.network.topologies import (
    cycle_topology,
    grid_topology,
    line_topology,
    random_connected_grid_topology,
    random_tree_topology,
)

seeds = st.integers(min_value=0, max_value=10_000)


class TestTopologyProperties:
    @given(st.integers(min_value=3, max_value=40))
    def test_cycle_node_and_edge_counts(self, n):
        topology = cycle_topology(n)
        assert topology.n_nodes == topology.n_edges == n
        assert topology.is_connected()
        assert max(topology.all_pairs_shortest_path_lengths().values()) == n // 2

    @given(st.sampled_from([4, 9, 16, 25]), seeds)
    def test_random_grid_always_connected_subgraph(self, n, seed):
        rng = np.random.default_rng(seed)
        topology = random_connected_grid_topology(n, rng=rng)
        torus = grid_topology(n)
        assert topology.is_connected()
        assert topology.n_edges <= torus.n_edges
        assert all(torus.has_edge(*edge) for edge in topology.edges())
        assert topology.n_edges >= n - 1

    @given(st.integers(min_value=2, max_value=30), seeds)
    def test_random_tree_has_n_minus_one_edges(self, n, seed):
        topology = random_tree_topology(n, rng=np.random.default_rng(seed))
        assert topology.n_edges == n - 1
        assert topology.is_connected()

    @given(st.integers(min_value=2, max_value=30))
    def test_line_shortest_paths_are_index_differences(self, n):
        topology = line_topology(n)
        assert topology.shortest_path_length(0, n - 1) == n - 1


class TestDemandProperties:
    @given(st.integers(min_value=1, max_value=20), seeds)
    def test_selected_consumer_pairs_are_valid_node_pairs(self, n_pairs, seed):
        topology = cycle_topology(10)
        pairs = select_consumer_pairs(topology, n_pairs, np.random.default_rng(seed))
        assert len(pairs) == min(n_pairs, 45)
        assert len(set(pairs)) == len(pairs)
        for a, b in pairs:
            assert a in topology and b in topology and a != b

    @given(st.integers(min_value=1, max_value=60), seeds)
    def test_request_sequence_serves_in_order(self, n_requests, seed):
        rng = np.random.default_rng(seed)
        topology = cycle_topology(8)
        pairs = select_consumer_pairs(topology, 5, rng)
        sequence = RequestSequence.generate(pairs, n_requests, rng)
        served = 0
        while not sequence.all_satisfied:
            head = sequence.head()
            assert head.index == served
            sequence.mark_head_satisfied(served)
            served += 1
        assert served == n_requests


class TestLPProperties:
    @settings(deadline=None, max_examples=15)
    @given(st.floats(min_value=1.0, max_value=3.0), st.floats(min_value=0.5, max_value=1.0))
    def test_alpha_decreases_with_overheads(self, distillation, loss):
        topology = cycle_topology(6)
        demand = uniform_demand([(0, 3), (1, 4)], rate=0.3)
        baseline = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MAX_PROPORTIONAL_ALPHA
        ).alpha
        degraded = solve_flow_program(
            PathObliviousFlowProgram(
                topology, demand, overheads=PairOverheads.uniform(distillation=distillation, loss=loss)
            ),
            Objective.MAX_PROPORTIONAL_ALPHA,
        ).alpha
        assert degraded <= baseline + 1e-9

    @settings(deadline=None, max_examples=15)
    @given(seeds)
    def test_solutions_always_satisfy_steady_state(self, seed):
        rng = np.random.default_rng(seed)
        topology = random_connected_grid_topology(9, rng=rng)
        pairs = select_consumer_pairs(topology, 3, rng)
        demand = uniform_demand(pairs, rate=0.1)
        overheads = PairOverheads.uniform(distillation=2.0)
        program = PathObliviousFlowProgram(topology, demand, overheads=overheads)
        solution = solve_flow_program(program, Objective.MAX_PROPORTIONAL_ALPHA)
        rates = compute_rates(
            topology.nodes,
            solution.generation_rates,
            solution.consumption_rates,
            solution.swap_rates,
            overheads=overheads,
        )
        assert verify_steady_state(rates).is_consistent

    @settings(deadline=None, max_examples=10)
    @given(st.floats(min_value=1.0, max_value=4.0))
    def test_qec_scaling_is_exactly_linear(self, qec):
        topology = cycle_topology(6)
        demand = uniform_demand([(0, 3)], rate=0.2)
        baseline = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MAX_PROPORTIONAL_ALPHA
        ).alpha
        thinned = solve_flow_program(
            PathObliviousFlowProgram(topology, demand, qec_overhead=qec),
            Objective.MAX_PROPORTIONAL_ALPHA,
        ).alpha
        assert thinned == pytest.approx(baseline / qec, rel=1e-4)
