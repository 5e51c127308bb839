"""Name-based topology construction.

Experiment configuration files refer to topologies by name (``"cycle"``,
``"random-grid"``, ...); this registry resolves those names to builders so
the CLI and the experiment runner stay declarative.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.network.topology import Topology
from repro.network.topologies.complete import complete_topology
from repro.network.topologies.cycle import cycle_topology
from repro.network.topologies.dumbbell import dumbbell_topology
from repro.network.topologies.erdos_renyi import erdos_renyi_topology
from repro.network.topologies.grid import grid_side, grid_topology
from repro.network.topologies.line import line_topology
from repro.network.topologies.random_grid import random_connected_grid_topology
from repro.network.topologies.star import star_topology
from repro.network.topologies.tree import random_tree_topology
from repro.network.topologies.waxman import waxman_topology

TopologyBuilder = Callable[..., Topology]


def _build_cycle(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return cycle_topology(n_nodes, **kwargs)


def _build_grid(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return grid_topology(n_nodes, **kwargs)


def _build_random_grid(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return random_connected_grid_topology(n_nodes, rng=rng, **kwargs)


def _build_line(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return line_topology(n_nodes, **kwargs)


def _build_star(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return star_topology(n_nodes - 1, **kwargs)


def _build_tree(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return random_tree_topology(n_nodes, rng=rng, **kwargs)


def _build_complete(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return complete_topology(n_nodes, **kwargs)


def _build_erdos_renyi(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    kwargs.setdefault("edge_probability", 0.3)
    return erdos_renyi_topology(n_nodes, rng=rng, **kwargs)


def _build_waxman(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    return waxman_topology(n_nodes, rng=rng, **kwargs)


def _build_dumbbell(n_nodes: int, rng: Optional[np.random.Generator], **kwargs) -> Topology:
    clique_size = max(2, (n_nodes - kwargs.get("bridge_length", 1)) // 2)
    kwargs.setdefault("bridge_length", 1)
    return dumbbell_topology(clique_size, **kwargs)


_REGISTRY: Dict[str, TopologyBuilder] = {
    "cycle": _build_cycle,
    "grid": _build_grid,
    "full-grid": _build_grid,
    "random-grid": _build_random_grid,
    "line": _build_line,
    "chain": _build_line,
    "star": _build_star,
    "tree": _build_tree,
    "complete": _build_complete,
    "erdos-renyi": _build_erdos_renyi,
    "waxman": _build_waxman,
    "dumbbell": _build_dumbbell,
}


def available_topologies() -> List[str]:
    """All topology names the registry can build."""
    return sorted(_REGISTRY)


def topology_from_name(
    name: str,
    n_nodes: int,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> Topology:
    """Build the topology called ``name`` with ``n_nodes`` nodes.

    Raises
    ------
    KeyError
        For unknown topology names (the message lists the valid ones).
    """
    key = name.lower().strip()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown topology {name!r}; available: {', '.join(available_topologies())}"
        )
    return _REGISTRY[key](n_nodes, rng, **kwargs)


def validate_topology_sizes(names: Iterable[str], sizes: Iterable[int]) -> None:
    """Raise :class:`ValueError` unless every topology in ``names`` can have every size.

    Grid families need a perfect-square node count of at least 4.
    Experiments call this while normalizing their parameters, so a bad
    combination is rejected before any trial runs: a usage error on the
    command line, a ``400`` under ``repro serve``.
    """
    sizes = [int(size) for size in sizes]
    for name in names:
        if _REGISTRY.get(name.lower().strip()) not in (_build_grid, _build_random_grid):
            continue
        for size in sizes:
            try:
                grid_side(size)
            except ValueError as error:
                raise ValueError(f"topology {name!r}: {error}") from None
