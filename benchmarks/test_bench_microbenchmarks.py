"""Micro-benchmarks of the hot paths behind the figure-level experiments.

These are classic pytest-benchmark measurements (many iterations of a small
operation): one balancing round at the paper's network size, nested-swapping
execution and LP construction.  They exist so performance regressions in the
core loops are visible without re-running the full figure sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.lp.formulation import PathObliviousFlowProgram
from repro.core.lp.objectives import Objective
from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.demand import select_consumer_pairs, uniform_demand
from repro.network.generation import DeterministicGeneration
from repro.network.topologies import cycle_topology, grid_topology
from repro.protocols.nested import execute_nested, required_link_pairs
from repro.runtime.seeding import RandomStreams


def _warm_balancer(n_nodes: int = 25, warmup_rounds: int = 30) -> MaxMinBalancer:
    """A balancer over a 25-node grid that has been fed generation for a while."""
    topology = grid_topology(n_nodes)
    ledger = PairCountLedger(topology.nodes)
    generation = DeterministicGeneration(topology)
    balancer = MaxMinBalancer(ledger, overheads=1.0, rng=np.random.default_rng(0), keep_records=False)
    for round_index in range(warmup_rounds):
        ledger.add_pairs(*generation.draw())
        balancer.run_round(round_index)
    return balancer


def test_balancing_round_throughput(benchmark):
    """One full balancing round (every node takes a turn) at |N| = 25."""
    balancer = _warm_balancer()
    generation = DeterministicGeneration(grid_topology(25))
    state = {"round": 100}

    def one_round():
        round_index = state["round"]
        balancer.ledger.add_pairs(*generation.draw())
        balancer.run_round(round_index)
        state["round"] += 1

    benchmark(one_round)
    assert balancer.swaps_performed > 0


def test_preferable_candidate_enumeration(benchmark):
    """Candidate enumeration at a single node with a well-populated ledger."""
    balancer = _warm_balancer()
    node = balancer.ledger.nodes[0]
    candidates = benchmark(lambda: balancer.preferable_candidates(node))
    assert isinstance(candidates, list)


def test_nested_execution_cost(benchmark):
    """Nested swapping of a 6-hop path with D = 2 on a fresh count ledger."""
    path = list(range(7))
    needs = required_link_pairs(path, 2.0)

    def run():
        ledger = PairCountLedger(range(7))
        for edge, amount in needs.items():
            ledger.add(edge[0], edge[1], amount)
        return execute_nested(ledger, path, 2.0)

    records = benchmark(run)
    assert records is not None and len(records) > 0


def test_lp_build_cost(benchmark):
    """Constructing (not solving) the LP at the paper's |N| = 25 scale."""
    streams = RandomStreams(0)
    topology = cycle_topology(25)
    pairs = select_consumer_pairs(topology, 35, streams.get("consumers"))
    demand = uniform_demand(pairs, rate=0.1)
    program = PathObliviousFlowProgram(topology, demand)

    linear_program = benchmark(lambda: program.build(Objective.MAX_PROPORTIONAL_ALPHA))
    assert linear_program.n_variables > 6000
