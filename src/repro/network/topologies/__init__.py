"""Generation-graph topology builders.

The paper evaluates on a cycle and on a random connected subgraph of a
wraparound grid; both are provided here alongside a family of additional
topologies used by examples, ablations and the planned-path comparison:
line, star, random tree, complete graph, Erdős–Rényi, Waxman geometric
random graph and the classic dumbbell.

Every builder returns a :class:`repro.network.topology.Topology` whose
edges all carry ``generation_rate=1.0`` unless specified otherwise,
matching the paper's "g(x, y) = 1 for all generation edges" setting.
"""

from repro.network.topologies.complete import complete_topology
from repro.network.topologies.cycle import cycle_topology
from repro.network.topologies.dumbbell import dumbbell_topology
from repro.network.topologies.erdos_renyi import erdos_renyi_topology
from repro.network.topologies.grid import grid_topology
from repro.network.topologies.line import line_topology
from repro.network.topologies.random_grid import random_connected_grid_topology
from repro.network.topologies.star import star_topology
from repro.network.topologies.tree import random_tree_topology
from repro.network.topologies.waxman import waxman_topology
from repro.network.topologies.registry import (
    available_topologies,
    topology_from_name,
    validate_topology_sizes,
)

__all__ = [
    "available_topologies",
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
    "validate_topology_sizes",
    "waxman_topology",
]
