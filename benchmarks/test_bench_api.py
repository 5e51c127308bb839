"""Benchmark: the experiment-API dispatch layer must be essentially free.

The registry lookup plus the auto-generated subparser construction is the
machinery every ``repro <experiment>`` invocation pays compared to calling
``get_experiment(name).run(...)`` directly; this suite holds that overhead
under 5 ms so the CLI layer never shows up in experiment wall-clock.
"""

from __future__ import annotations

from repro.cli import build_parser
from repro.experiments.registry import experiment_names, get_experiment

#: The per-dispatch budget the ISSUE sets (seconds).
DISPATCH_BUDGET = 0.005


def test_registry_dispatch_plus_subparser_construction_under_budget(median_time):
    """Looking an experiment up and building the full subcommand parser --
    the work `repro figure4 ...` adds over calling the experiment directly --
    stays under 5 ms."""
    build_parser()  # warm import/bytecode paths once

    def dispatch():
        parser = build_parser()
        parser.parse_args(["figure4", "--nodes", "9"])
        get_experiment("figure4")

    assert median_time(dispatch, repeats=20) < DISPATCH_BUDGET


def test_param_resolution_overhead_under_budget(median_time):
    """Resolving and normalising a full ParamSpec table for every
    registered experiment (the Experiment.run preamble) is well under the
    5 ms budget."""

    def resolve_all():
        for name in experiment_names():
            experiment = get_experiment(name)
            experiment.normalize(experiment.resolve_params({}))

    assert median_time(resolve_all, repeats=20) < DISPATCH_BUDGET


def test_registry_lookup_is_constant_time_cheap(median_time):
    def lookup_all():
        for name in experiment_names():
            get_experiment(name)

    assert median_time(lookup_all, repeats=20) < DISPATCH_BUDGET
