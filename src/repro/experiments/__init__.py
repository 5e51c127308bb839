"""Experiment harness.

Every experiment is a registered :class:`~repro.experiments.api.Experiment`
subclass: a ``name``, a one-line ``summary``, a typed
:class:`~repro.experiments.api.ParamSpec` table, and the
``build_grid`` / ``execute`` / ``reduce`` hooks.  The registry
(:mod:`repro.experiments.registry`) is the single source of truth the CLI,
the docs gates and programmatic callers iterate -- adding a workload means
registering one class, nothing else.

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
(:mod:`repro.runtime`) -- ``run(runtime=RuntimeOptions(workers=...,
cache=...))`` parallelises trials across processes and skips cells
already present in the content-addressed result cache, without changing a
single reported number.
"""

from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ParamSpec,
    RuntimeOptions,
    resolve_trial_seeds,
)
from repro.experiments.config import (
    ExperimentConfig,
    TrialOutcome,
    full_mode_enabled,
)
from repro.experiments.registry import (
    experiment_names,
    get_experiment,
    iter_experiments,
    register,
)
from repro.experiments.runner import run_trial
from repro.experiments.figure4 import Figure4Experiment, Figure4Result
from repro.experiments.figure5 import Figure5Experiment, Figure5Result
from repro.experiments.lp_validation import LPValidationExperiment, LPValidationResult
from repro.experiments.comparison import ComparisonExperiment, ComparisonResult
from repro.experiments.ablations import AblationResult, AblationsExperiment
from repro.experiments.classical_overhead import (
    ClassicalOverheadExperiment,
    ClassicalOverheadResult,
)
from repro.experiments.multicast import MulticastExperiment, MulticastResult
from repro.experiments.resilience import ResilienceExperiment, ResilienceResult
from repro.experiments.scaling import ScalingExperiment, ScalingResult
from repro.experiments.traffic import TrafficExperiment, TrafficResult

__all__ = [
    "AblationResult",
    "AblationsExperiment",
    "ClassicalOverheadExperiment",
    "ClassicalOverheadResult",
    "ComparisonExperiment",
    "ComparisonResult",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "Figure4Experiment",
    "Figure4Result",
    "Figure5Experiment",
    "Figure5Result",
    "LPValidationExperiment",
    "LPValidationResult",
    "MulticastExperiment",
    "MulticastResult",
    "ParamSpec",
    "ResilienceExperiment",
    "ResilienceResult",
    "RuntimeOptions",
    "ScalingExperiment",
    "ScalingResult",
    "TrafficExperiment",
    "TrafficResult",
    "TrialOutcome",
    "experiment_names",
    "full_mode_enabled",
    "get_experiment",
    "iter_experiments",
    "register",
    "resolve_trial_seeds",
    "run_trial",
]
