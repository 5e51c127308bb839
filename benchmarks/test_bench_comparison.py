"""Benchmark E4 -- path-oblivious vs planned-path baselines on a shared workload."""

from __future__ import annotations

import pytest

from repro.experiments.registry import get_experiment


@pytest.mark.parametrize("topology,n_nodes", [("cycle", 16), ("random-grid", 16)])
def test_protocol_comparison(benchmark, topology, n_nodes, quick_requests):
    def run():
        return get_experiment("comparison").run(
            topology=topology,
            n_nodes=n_nodes,
            distillation=1.0,
            n_requests=quick_requests,
            n_consumer_pairs=15,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.format_report())

    by_protocol = result.by_protocol()
    oblivious = by_protocol["path-oblivious"]
    planned = by_protocol["planned-connection-oriented"]

    # Planned-path achieves the minimum swap count by construction; the
    # path-oblivious protocol pays a bounded overhead on top of it -- the
    # trade-off the paper's evaluation is about.
    assert planned.overhead_exact == pytest.approx(1.0)
    assert oblivious.overhead_exact >= 1.0
    # Everyone eventually serves the whole ordered request sequence.
    assert all(outcome.all_satisfied for outcome in result.outcomes)
    # The reactive (on-demand) baseline generates the fewest pairs.
    ondemand = by_protocol["planned-on-demand"]
    assert ondemand.pairs_generated <= planned.pairs_generated
