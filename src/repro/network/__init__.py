"""Network substrate.

Everything about the *classical structure* of the quantum network lives
here: which nodes exist, which node pairs can generate elementary Bell
pairs (the paper's *generation graph* ``G``), at what rates, which node
pairs want to consume pairs (the paper's ordered request sequence and the
LP's average rates), and how to compute paths over those graphs for the
planned-path baselines.
"""

from repro.network.demand import (
    ConsumptionRequest,
    DemandMatrix,
    RequestSequence,
    select_consumer_pairs,
    uniform_demand,
)
from repro.network.generation import (
    BernoulliGeneration,
    DeterministicGeneration,
    GenerationProcess,
    PoissonGeneration,
)
from repro.network.topology import Topology
from repro.network.topologies import (
    complete_topology,
    cycle_topology,
    dumbbell_topology,
    erdos_renyi_topology,
    grid_topology,
    line_topology,
    random_connected_grid_topology,
    random_tree_topology,
    star_topology,
    topology_from_name,
    waxman_topology,
)

__all__ = [
    "BernoulliGeneration",
    "ConsumptionRequest",
    "DemandMatrix",
    "DeterministicGeneration",
    "GenerationProcess",
    "PoissonGeneration",
    "RequestSequence",
    "Topology",
    "complete_topology",
    "cycle_topology",
    "dumbbell_topology",
    "erdos_renyi_topology",
    "grid_topology",
    "line_topology",
    "random_connected_grid_topology",
    "random_tree_topology",
    "select_consumer_pairs",
    "star_topology",
    "topology_from_name",
    "uniform_demand",
    "waxman_topology",
]
