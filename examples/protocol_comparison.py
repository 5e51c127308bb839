#!/usr/bin/env python
"""Planned-path vs path-oblivious on a congested metro topology.

Scenario from the paper's introduction: a well-provisioned network where
many node pairs want end-to-end entanglement at unpredictable times.  We
build a dumbbell topology (two 6-node sites joined by a 2-repeater bridge),
generate cross-site demand, and run all four protocols on the identical
workload.  Planned-path approaches achieve the minimum swap count by
construction, but the path-oblivious protocol serves requests sooner because
Bell pairs were pre-positioned before the requests arrived -- the trade-off
Section 2 of the paper argues will dominate as Bell pairs get cheap.

Run with::

    python examples/protocol_comparison.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.experiments import get_experiment


def main() -> None:
    comparison = get_experiment("comparison").run(
        topology="dumbbell",
        n_nodes=14,
        distillation=1.0,
        n_requests=40,
        n_consumer_pairs=20,
        seed=7,
    )
    print(comparison.format_report())
    print()

    # Dig one level deeper: how long did requests wait under each protocol,
    # and does the waiting time depend on how far apart the endpoints are
    # (the starvation effect of Section 6)?
    rows = []
    for outcome in comparison.outcomes:
        rows.append(
            (
                outcome.config.protocol,
                round(outcome.mean_waiting_rounds, 2),
                "n/a" if outcome.starvation_ratio != outcome.starvation_ratio
                else round(outcome.starvation_ratio, 2),
                outcome.pairs_generated,
                outcome.classical_messages,
            )
        )
    print(
        format_table(
            (
                "protocol",
                "mean wait (rounds)",
                "far/near wait ratio",
                "pairs generated",
                "classical messages",
            ),
            rows,
            title="Latency, starvation and control-plane cost on the dumbbell",
        )
    )


if __name__ == "__main__":
    main()
