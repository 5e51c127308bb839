"""Benchmark E5 -- ablations over the design choices called out in DESIGN.md."""

from __future__ import annotations

import pytest

from repro.experiments.registry import get_experiment


def test_ablation_suite(benchmark):
    def run():
        return get_experiment("ablations").run(
            axes=("swap-rate", "policy", "knowledge", "hybrid", "recurrence"),
            topology="random-grid",
            n_nodes=16,
            distillation=2.0,
            n_requests=25,
            n_consumer_pairs=12,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.format_report())

    # Every variant still serves the full request sequence.
    assert all(row.satisfied.split("/")[0] == row.satisfied.split("/")[1] for row in result.rows)

    # The hybrid fallback never does worse than pure balancing on overhead.
    hybrid_rows = {row.variant: row for row in result.rows_for("hybrid")}
    assert hybrid_rows["with-fallback"].overhead_exact <= hybrid_rows["pure-oblivious"].overhead_exact * 1.05

    # The paper-literal denominator yields a larger (or equal) overhead number
    # for the same run, since it undercounts the optimal swaps.
    recurrence_rows = {row.variant: row for row in result.rows_for("recurrence")}
    assert (
        recurrence_rows["paper-denominator"].overhead_exact
        >= recurrence_rows["exact-denominator"].overhead_exact
    )


def test_density_ablation(benchmark):
    """Extra generation edges (denser provisioning) should not hurt the overhead much."""

    def run():
        return get_experiment("ablations").run(
            axes=("density",),
            topology="random-grid",
            n_nodes=16,
            distillation=1.0,
            n_requests=25,
            n_consumer_pairs=12,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.format_report())
    rows = result.rows_for("density")
    assert len(rows) == 3
    assert all(row.overhead_exact >= 1.0 for row in rows)
