"""Analysis of simulation output.

Everything needed to turn raw protocol results into the quantities the paper
reports (and a few it should have): the swap-overhead metric of Section 5,
max-min fairness checks for the balancer's fixed points, starvation/wait
statistics, and plain-text table rendering for experiment reports.
"""

from repro.analysis.fairness import is_max_min_fair, jains_index, lexicographic_min
from repro.analysis.overhead import (
    OverheadBreakdown,
    optimal_swaps_for_requests,
    request_path_lengths,
    swap_overhead,
    swap_overhead_from_result,
)
from repro.analysis.reporting import format_table, render_series
from repro.analysis.starvation import StarvationReport, starvation_report

__all__ = [
    "OverheadBreakdown",
    "StarvationReport",
    "format_table",
    "is_max_min_fair",
    "jains_index",
    "lexicographic_min",
    "optimal_swaps_for_requests",
    "render_series",
    "request_path_lengths",
    "starvation_report",
    "swap_overhead",
    "swap_overhead_from_result",
]
