"""Analysis of simulation output.

Everything needed to turn raw protocol results into the quantities the paper
reports (and a few it should have): the swap-overhead metric of Section 5,
max-min fairness checks for the balancer's fixed points, starvation/wait
statistics, and plain-text table rendering for experiment reports.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.fairness": ("is_max_min_fair", "jains_index", "lexicographic_min"),
        "repro.analysis.overhead": (
            "OverheadBreakdown",
            "optimal_swaps_for_requests",
            "request_path_lengths",
            "swap_overhead",
            "swap_overhead_from_result",
        ),
        "repro.analysis.reporting": ("format_table", "render_series"),
        "repro.analysis.starvation": ("StarvationReport", "starvation_report"),
    },
)
