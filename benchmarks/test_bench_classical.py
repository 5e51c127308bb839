"""Benchmark E6 -- classical control-plane overhead: flooding vs choke/unchoke gossip."""

from __future__ import annotations

import pytest

from repro.experiments.registry import get_experiment


def test_classical_overhead_report(benchmark):
    def run():
        return get_experiment("classical").run(
            topology_name="random-grid", n_nodes=16, rounds=40, gossip_fanouts=(2, 4)
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.format_report())

    rows = {row.strategy: row for row in result.rows}
    flooding = rows["flooding"]
    # Gossip transmits strictly fewer bits than flooding, with fanout-4
    # costing more than fanout-2, and coverage that is still substantial.
    assert rows["gossip-fanout2"].bits < rows["gossip-fanout4"].bits < flooding.bits
    assert rows["gossip-fanout2"].mean_coverage > 0.5
    assert flooding.mean_coverage == 1.0
