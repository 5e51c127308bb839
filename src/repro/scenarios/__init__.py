"""Dynamic-scenario layer: time-varying conditions for running simulations.

The paper evaluates path-oblivious entanglement distribution only on static
topologies with a fixed workload.  This package injects dynamics -- link
failure/repair processes, node churn with ledger invalidation, demand
drift, decoherence-rate ramps -- into the protocols' round loop,
declaratively:

* a :class:`Scenario` is an ordered list of :class:`Perturbation` objects
  with trigger rounds (and optional state predicates),
* named scenarios are built from spec strings like
  ``"link-churn:period=20"`` (see :mod:`repro.scenarios.registry`) and ride
  on :class:`~repro.experiments.config.ExperimentConfig.scenario`, entering
  the config's equality,
* at run time a :class:`ScenarioDriver` applies the perturbations due
  at the start of every round, before that round's generation.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.scenarios.perturbations": (
            "Conditional",
            "DecoherenceRamp",
            "DemandShift",
            "LinkFailure",
            "LinkRepair",
            "NodeLeave",
            "NodeRejoin",
            "Perturbation",
            "ScenarioContext",
        ),
        "repro.scenarios.registry": (
            "NO_SCENARIO",
            "SCENARIO_NAMES",
            "build_scenario",
            "parse_scenario_spec",
            "validate_scenario_spec",
        ),
        "repro.scenarios.scenario": ("Scenario", "ScenarioDriver", "merge_scenarios"),
        "repro.scenarios.schedules": (
            "decoherence_ramp",
            "demand_drift",
            "deterministic_link_churn",
            "node_churn",
            "poisson_link_churn",
        ),
    },
)
