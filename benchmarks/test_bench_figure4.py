"""Benchmark E1 -- paper Figure 4: swap overhead vs distillation overhead D.

Regenerates the figure's three series (cycle, random connected wraparound
grid, full wraparound grid) at |N| = 25 and prints them as a table.  The
quick sweep covers D in {1, 2, 3}; set REPRO_FULL=1 for the full sweep.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import full_mode_enabled
from repro.experiments.figure4 import (
    FIGURE4_TOPOLOGIES,
    FULL_DISTILLATION_VALUES,
    QUICK_DISTILLATION_VALUES,
)
from repro.experiments.registry import get_experiment


def _distillation_values():
    return FULL_DISTILLATION_VALUES if full_mode_enabled() else QUICK_DISTILLATION_VALUES


@pytest.mark.figure
@pytest.mark.parametrize("topology", FIGURE4_TOPOLOGIES)
def test_figure4_series_per_topology(benchmark, topology, quick_requests):
    """One Figure-4 line (overhead vs D) for a single topology family."""

    def run():
        return get_experiment("figure4").run(
            n_nodes=25,
            distillation_values=_distillation_values(),
            topologies=(topology,),
            n_requests=quick_requests,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    series = result.series("exact")[topology]
    print()
    print(result.format_report())

    # Shape checks mirroring the paper's qualitative claims: the overhead is
    # bounded below by 1 and does not decrease as D grows.
    values = [series[d] for d in sorted(series)]
    assert all(value >= 1.0 for value in values)
    assert values[-1] >= values[0] * 0.9
    # Every trial satisfied its full request sequence (otherwise the overhead
    # denominator would be comparing different workloads).
    assert all(outcome.all_satisfied for outcome in result.outcomes)


@pytest.mark.figure
def test_figure4_combined_report(benchmark, quick_requests):
    """The full Figure 4 (all topologies) printed as one table."""

    def run():
        return get_experiment("figure4").run(
            n_nodes=16,
            distillation_values=(1.0, 2.0),
            topologies=FIGURE4_TOPOLOGIES,
            n_requests=quick_requests,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.format_report())
    assert len(result.rows()) == len(FIGURE4_TOPOLOGIES) * 2
