"""Dynamic-scenario layer: time-varying conditions for running simulations.

The paper evaluates path-oblivious entanglement distribution only on static
topologies with a fixed workload.  This package injects dynamics -- link
failure/repair processes, node churn with ledger invalidation, demand
drift, decoherence-rate ramps -- into the round-based simulator,
declaratively:

* a :class:`Scenario` is an ordered list of :class:`Perturbation` objects
  with trigger rounds (and optional state predicates),
* named scenarios are built from spec strings like
  ``"link-churn:period=20"`` (see :mod:`repro.scenarios.registry`) and ride
  on :class:`~repro.experiments.config.ExperimentConfig.scenario`, entering
  every result-cache key,
* at run time the scenario compiles down to a round hook
  (:class:`ScenarioDriver`).
"""

from repro.scenarios.perturbations import (
    Conditional,
    DecoherenceRamp,
    DemandShift,
    LinkFailure,
    LinkRepair,
    NodeLeave,
    NodeRejoin,
    Perturbation,
    ScenarioContext,
)
from repro.scenarios.registry import (
    NO_SCENARIO,
    SCENARIO_NAMES,
    build_scenario,
    parse_scenario_spec,
    validate_scenario_spec,
)
from repro.scenarios.scenario import Scenario, ScenarioDriver, merge_scenarios
from repro.scenarios.schedules import (
    decoherence_ramp,
    demand_drift,
    deterministic_link_churn,
    node_churn,
    poisson_link_churn,
)

__all__ = [
    "Conditional",
    "DecoherenceRamp",
    "DemandShift",
    "LinkFailure",
    "LinkRepair",
    "NO_SCENARIO",
    "NodeLeave",
    "NodeRejoin",
    "Perturbation",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioContext",
    "ScenarioDriver",
    "build_scenario",
    "decoherence_ramp",
    "demand_drift",
    "deterministic_link_churn",
    "merge_scenarios",
    "node_churn",
    "parse_scenario_spec",
    "poisson_link_churn",
    "validate_scenario_spec",
]
