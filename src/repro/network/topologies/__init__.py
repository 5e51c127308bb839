"""Generation-graph topology builders.

The paper evaluates on a cycle and on a random connected subgraph of a
wraparound grid; both are provided here alongside a family of additional
topologies used by examples, ablations and the planned-path comparison:
line, star, random tree, complete graph, Erdős–Rényi, Waxman geometric
random graph and the classic dumbbell.

Every builder returns a :class:`repro.network.topology.Topology` whose
edges all carry ``generation_rate=1.0`` unless specified otherwise,
matching the paper's "g(x, y) = 1 for all generation edges" setting.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.network.topologies.complete": ("complete_topology",),
        "repro.network.topologies.cycle": ("cycle_topology",),
        "repro.network.topologies.dumbbell": ("dumbbell_topology",),
        "repro.network.topologies.erdos_renyi": ("erdos_renyi_topology",),
        "repro.network.topologies.grid": ("grid_topology",),
        "repro.network.topologies.line": ("line_topology",),
        "repro.network.topologies.random_grid": ("random_connected_grid_topology",),
        "repro.network.topologies.star": ("star_topology",),
        "repro.network.topologies.tree": ("random_tree_topology",),
        "repro.network.topologies.waxman": ("waxman_topology",),
        "repro.network.topologies.registry": (
            "available_topologies",
            "topology_from_name",
            "validate_topology_sizes",
        ),
    },
)
