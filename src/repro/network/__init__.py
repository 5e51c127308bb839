"""Network substrate.

Everything about the *classical structure* of the quantum network lives
here: which nodes exist, which node pairs can generate elementary Bell
pairs (the paper's *generation graph* ``G``), at what rates, which node
pairs want to consume pairs (the paper's ordered request sequence and the
LP's average rates), and how to compute paths over those graphs for the
planned-path baselines.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.network.demand": (
            "ConsumptionRequest",
            "DemandMatrix",
            "RequestSequence",
            "select_consumer_pairs",
            "uniform_demand",
        ),
        "repro.network.generation": ("DeterministicGeneration",),
        "repro.network.topology": ("Topology",),
        "repro.network.topologies": (
            "complete_topology",
            "cycle_topology",
            "dumbbell_topology",
            "erdos_renyi_topology",
            "grid_topology",
            "line_topology",
            "random_connected_grid_topology",
            "random_tree_topology",
            "star_topology",
            "topology_from_name",
            "waxman_topology",
        ),
    },
)
