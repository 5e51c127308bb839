"""Experiment harness.

Every experiment is a registered :class:`~repro.experiments.api.Experiment`
subclass: a ``name``, a one-line ``summary``, a typed
:class:`~repro.experiments.api.ParamSpec` table, and the
``build_grid`` / ``execute`` / ``reduce`` hooks.  The registry
(:mod:`repro.experiments.registry`) is the single source of truth the CLI,
the docs gates and programmatic callers iterate -- adding a workload means
one registered class plus one line in the registry's ``MANIFEST``, the
static name-to-module table that lets a caller look experiments up without
importing any of them.

Nothing below is imported with the package: every public name is a lazy
export (PEP 562, :mod:`repro.lazy`), loaded from its module on first use,
so ``repro <experiment>`` and a pool worker import one experiment, not ten.

One module per experiment of the per-experiment index in
``docs/reproducing.md`` (the API itself is described in
``docs/architecture.md``):

* :mod:`repro.experiments.figure4` -- swap overhead vs distillation
  overhead ``D`` (paper Figure 4),
* :mod:`repro.experiments.figure5` -- swap overhead vs network size
  ``|N|`` (paper Figure 5),
* :mod:`repro.experiments.lp_validation` -- the Section 3 LP objectives,
* :mod:`repro.experiments.comparison` -- path-oblivious vs planned-path
  baselines,
* :mod:`repro.experiments.ablations` -- design-choice ablations,
* :mod:`repro.experiments.classical_overhead` -- control-plane cost,
* :mod:`repro.experiments.scaling` -- max-min balancing on 200-1000-node
  Waxman/grid/Erdős–Rényi topologies (naive vs incremental engine),
* :mod:`repro.experiments.resilience` -- recovery time and fairness under
  fault-and-churn scenarios (:mod:`repro.scenarios`) vs the static baseline,
* :mod:`repro.experiments.traffic` -- protocol comparison under
  Poisson/bursty/diurnal arrival load with per-class SLO metrics
  (:mod:`repro.workloads`),
* :mod:`repro.experiments.multicast` -- shared (star-of-pairs + fusion) vs
  independent-sessions GHZ group serving over group sizes 2-5
  (:mod:`repro.protocols.fusion`).

Results satisfy the uniform :class:`~repro.experiments.api.ExperimentResult`
contract: ``series()`` / ``rows()`` / ``format_report()`` plus the
machine-readable ``to_json()`` / ``to_csv()`` / ``write()`` surface
(schema: :mod:`repro.experiments.schema`).  ``get_experiment(name).run(...)``
is the one way to run an experiment, from the CLI, ``repro serve`` and
Python alike.

Sweep-style experiments execute through the runtime layer
(:mod:`repro.runtime`) -- ``run(runtime=RuntimeOptions(workers=...))``
parallelises trials across processes without changing a single reported
number.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.api": (
            "Experiment",
            "ExperimentResult",
            "ParamSpec",
            "RuntimeOptions",
            "resolve_trial_seeds",
        ),
        "repro.experiments.config": ("ExperimentConfig", "TrialOutcome", "full_mode_enabled"),
        "repro.experiments.registry": (
            "experiment_names",
            "get_experiment",
            "iter_experiments",
            "register",
        ),
        "repro.experiments.runner": ("run_trial",),
        "repro.experiments.figure4": ("Figure4Experiment", "Figure4Result"),
        "repro.experiments.figure5": ("Figure5Experiment", "Figure5Result"),
        "repro.experiments.lp_validation": ("LPValidationExperiment", "LPValidationResult"),
        "repro.experiments.comparison": ("ComparisonExperiment", "ComparisonResult"),
        "repro.experiments.ablations": ("AblationResult", "AblationsExperiment"),
        "repro.experiments.classical_overhead": (
            "ClassicalOverheadExperiment",
            "ClassicalOverheadResult",
        ),
        "repro.experiments.multicast": ("MulticastExperiment", "MulticastResult"),
        "repro.experiments.resilience": ("ResilienceExperiment", "ResilienceResult"),
        "repro.experiments.scaling": ("ScalingExperiment", "ScalingResult"),
        "repro.experiments.traffic": ("TrafficExperiment", "TrafficResult"),
    },
)
