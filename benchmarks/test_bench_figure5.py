"""Benchmark E2 -- paper Figure 5: swap overhead vs network size |N| at D = 1.

The quick sweep covers |N| in {9, 16, 25}; REPRO_FULL=1 extends it to
{9, 16, 25, 36, 49}.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import full_mode_enabled
from repro.experiments.figure4 import FIGURE4_TOPOLOGIES
from repro.experiments.figure5 import FULL_NETWORK_SIZES, QUICK_NETWORK_SIZES
from repro.experiments.registry import get_experiment


def _network_sizes():
    return FULL_NETWORK_SIZES if full_mode_enabled() else QUICK_NETWORK_SIZES


@pytest.mark.figure
def test_figure5_overhead_vs_network_size(benchmark, quick_requests):
    def run():
        return get_experiment("figure5").run(
            distillation=1.0,
            network_sizes=_network_sizes(),
            topologies=FIGURE4_TOPOLOGIES,
            n_requests=quick_requests,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.format_report())

    series = result.series("exact")
    for topology in FIGURE4_TOPOLOGIES:
        values = [series[topology][n] for n in sorted(series[topology])]
        # Paper claim: overhead stays modest and grows slowly with |N|.
        assert all(value >= 1.0 for value in values)
    # Largest size should not blow up by orders of magnitude over the smallest.
    for topology in FIGURE4_TOPOLOGIES:
        values = [series[topology][n] for n in sorted(series[topology])]
        assert values[-1] <= values[0] * 25
    assert all(outcome.all_satisfied for outcome in result.outcomes)
