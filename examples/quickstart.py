#!/usr/bin/env python
"""Quickstart: run the paper's protocol once and inspect what happened.

This example builds the paper's default workload -- a 25-node cycle
generation graph, 35 consumer pairs, an ordered consumption-request
sequence -- runs the max-min balancing protocol on it, and prints the
headline quantities from Section 5: the number of swaps performed, the
nested-swapping optimum for the same consumption events, and their ratio
(the swap overhead).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import swap_overhead_from_result
from repro.analysis.reporting import format_table
from repro.network import RequestSequence, cycle_topology, select_consumer_pairs
from repro.protocols import PathObliviousProtocol
from repro.runtime import RandomStreams


def main() -> None:
    distillation = 2.0
    streams = RandomStreams(root_seed=42)

    # 1. The generation graph: a 25-node cycle with g(x, y) = 1 on every edge.
    topology = cycle_topology(25)

    # 2. The workload: 35 consumer pairs drawn uniformly from all node pairs,
    #    and an ordered sequence of 40 consumption requests over them.
    consumer_pairs = select_consumer_pairs(topology, 35, streams.get("consumers"))
    requests = RequestSequence.generate(consumer_pairs, 40, streams.get("requests"))

    # 3. The protocol: max-min balancing with a uniform distillation overhead D.
    protocol = PathObliviousProtocol(
        topology,
        requests,
        overheads=distillation,
        streams=streams,
    )
    result = protocol.run()

    # 4. The paper's metric: swaps performed vs the nested-swapping optimum.
    breakdown = swap_overhead_from_result(topology, result, distillation=distillation)

    print(
        format_table(
            ("quantity", "value"),
            [
                ("topology", topology.name),
                ("distillation overhead D", distillation),
                ("rounds simulated", result.rounds),
                ("requests satisfied", f"{result.requests_satisfied}/{result.requests_total}"),
                ("swaps performed", result.swaps_performed),
                ("nested-swapping optimum", round(breakdown.optimal_swaps, 1)),
                ("swap overhead", round(breakdown.overhead, 3)),
                ("Bell pairs generated", result.pairs_generated),
                ("Bell pairs left in network", result.pairs_remaining),
                ("mean request wait (rounds)", round(result.mean_waiting_rounds(), 2)),
            ],
            title="Path-oblivious balancing on a 25-node cycle",
        )
    )


if __name__ == "__main__":
    main()
