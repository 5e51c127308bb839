"""Benchmark E3 -- the Section 3 linear program.

Prints the LP validation table (all objectives, with and without the
Section 3.2 overheads) and micro-benchmarks the LP build+solve path at the
paper's |N| = 25 scale.
"""

from __future__ import annotations

import pytest

from repro.core.lp.extensions import PairOverheads
from repro.core.lp.formulation import PathObliviousFlowProgram
from repro.core.lp.objectives import Objective
from repro.core.lp.solver import solve_flow_program
from repro.experiments.registry import get_experiment
from repro.network.demand import select_consumer_pairs, uniform_demand
from repro.network.topologies import grid_topology
from repro.runtime.seeding import RandomStreams


def test_lp_validation_report(benchmark):
    """The full E3 table: every objective on cycle and grid, D in {1, 2}."""

    def run():
        return get_experiment("lp").run(
            topologies=("cycle", "grid"), n_nodes=16, demand_pairs=8, demand_rate=0.1
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.format_report())
    feasible = [row for row in result.rows if row.feasible]
    assert feasible
    assert all(row.steady_state_ok for row in feasible)


def test_lp_solve_paper_scale(benchmark):
    """Build + solve the alpha-scaling LP at |N| = 25 (the paper's network size)."""
    streams = RandomStreams(1)
    topology = grid_topology(25)
    pairs = select_consumer_pairs(topology, 35, streams.get("consumers"))
    demand = uniform_demand(pairs, rate=0.05)
    overheads = PairOverheads.uniform(distillation=2.0)

    def solve():
        program = PathObliviousFlowProgram(topology, demand, overheads=overheads)
        return solve_flow_program(program, Objective.MAX_PROPORTIONAL_ALPHA)

    solution = benchmark(solve)
    print(f"\nE3 micro: |N|=25 grid, 35 demand pairs, D=2 -> alpha = {solution.alpha:.3f}, "
          f"total swap rate = {solution.total_swap_rate():.2f}")
    assert solution.alpha is not None and solution.alpha > 0
