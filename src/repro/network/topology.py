"""The generation graph.

The paper defines the *generation graph* ``G`` as the undirected graph whose
edges are the node pairs ``(x, y)`` with positive elementary generation rate
``g(x, y) > 0``.  :class:`Topology` stores exactly that -- nodes, undirected
edges, per-edge generation rates and optional node positions -- plus the
graph queries (connectivity, shortest paths, neighbourhoods) the protocols
and baselines need, each a plain BFS over the adjacency.
"""

from __future__ import annotations

import collections
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

NodeId = Hashable
EdgeKey = Tuple[NodeId, NodeId]

#: Canonical key of an entanglement group: a frozen, ``repr``-ordered tuple
#: of two or more distinct nodes.  :data:`EdgeKey` is exactly the size-2
#: special case -- ``group_key(a, b) == edge_key(a, b)`` -- so everything
#: keyed by groups degenerates to the paper's pair-keyed tables at size 2.
GroupKey = Tuple[NodeId, ...]


def edge_key(node_a: NodeId, node_b: NodeId) -> EdgeKey:
    """Canonical unordered edge key: the two nodes in ``repr`` order."""
    if node_a == node_b:
        raise ValueError(f"self-loop edges are not allowed (node {node_a!r})")
    # The two-element case of sorted(..., key=repr), ties kept in order.
    return (node_a, node_b) if repr(node_a) <= repr(node_b) else (node_b, node_a)


def group_key(*nodes: NodeId) -> GroupKey:
    """Canonical key for an n-party entanglement group (``n >= 2``).

    Nodes are deduplicated-checked and ``repr``-sorted, the same canonical
    order :func:`edge_key` uses, so a size-2 group key is structurally
    identical to the corresponding edge key.
    """
    if len(nodes) == 1 and isinstance(nodes[0], tuple):
        nodes = nodes[0]
    if len(nodes) < 2:
        raise ValueError(f"a group needs at least 2 nodes, got {len(nodes)}")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"group members must be distinct, got {nodes!r}")
    return tuple(sorted(nodes, key=repr))


def group_size(group: GroupKey) -> int:
    """Number of parties in a canonical group key."""
    return len(group)


class Topology:
    """An undirected generation graph with per-edge generation rates.

    Parameters
    ----------
    name:
        Human-readable topology name (used in experiment reports).
    nodes:
        Optional initial node collection.
    positions:
        Optional mapping from node to an ``(x, y)`` coordinate, used by
        geometric topologies and plotting helpers.
    """

    def __init__(
        self,
        name: str = "topology",
        nodes: Optional[Iterable[NodeId]] = None,
        positions: Optional[Mapping[NodeId, Tuple[float, float]]] = None,
    ):
        self.name = name
        self._adjacency: Dict[NodeId, Dict[NodeId, float]] = {}
        self._positions: Dict[NodeId, Tuple[float, float]] = dict(positions or {})
        # generation_edges() result; add_edge/remove_edge drop it.
        self._edge_rates: Optional[Tuple[Tuple[EdgeKey, ...], Tuple[float, ...]]] = None
        for node in nodes or []:
            self.add_node(node)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId, position: Optional[Tuple[float, float]] = None) -> None:
        """Add a node (idempotent)."""
        self._adjacency.setdefault(node, {})
        if position is not None:
            self._positions[node] = position

    def add_edge(self, node_a: NodeId, node_b: NodeId, generation_rate: float = 1.0) -> None:
        """Add (or update) a generation edge with the given rate.

        Raises
        ------
        ValueError
            For self loops or non-positive generation rates (an edge with
            zero rate is simply not part of the generation graph).
        """
        if node_a == node_b:
            raise ValueError(f"self-loop generation edges are not allowed (node {node_a!r})")
        if generation_rate <= 0:
            raise ValueError(
                f"generation_rate must be positive, got {generation_rate} for edge "
                f"({node_a!r}, {node_b!r})"
            )
        self.add_node(node_a)
        self.add_node(node_b)
        self._adjacency[node_a][node_b] = float(generation_rate)
        self._adjacency[node_b][node_a] = float(generation_rate)
        self._edge_rates = None

    def remove_edge(self, node_a: NodeId, node_b: NodeId) -> None:
        """Remove a generation edge (raises ``KeyError`` if absent)."""
        if node_b not in self._adjacency.get(node_a, {}):
            raise KeyError(f"edge ({node_a!r}, {node_b!r}) not in topology")
        del self._adjacency[node_a][node_b]
        del self._adjacency[node_b][node_a]
        self._edge_rates = None

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[NodeId]:
        """All nodes, in insertion order."""
        return list(self._adjacency)

    @property
    def n_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def edges(self) -> List[EdgeKey]:
        """All undirected edges as canonical keys."""
        seen = set()
        result: List[EdgeKey] = []
        for node, neighbors in self._adjacency.items():
            for neighbor in neighbors:
                key = edge_key(node, neighbor)
                if key not in seen:
                    seen.add(key)
                    result.append(key)
        return result

    def has_node(self, node: NodeId) -> bool:
        return node in self._adjacency

    def has_edge(self, node_a: NodeId, node_b: NodeId) -> bool:
        return node_b in self._adjacency.get(node_a, {})

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Generation-graph neighbours of ``node``."""
        if node not in self._adjacency:
            raise KeyError(f"node {node!r} not in topology")
        return list(self._adjacency[node])

    def degree(self, node: NodeId) -> int:
        return len(self._adjacency.get(node, {}))

    def generation_rate(self, node_a: NodeId, node_b: NodeId) -> float:
        """The rate ``g(x, y)``; zero when the pair is not a generation edge."""
        return self._adjacency.get(node_a, {}).get(node_b, 0.0)

    def generation_edges(self) -> Tuple[Tuple[EdgeKey, ...], Tuple[float, ...]]:
        """Every generation edge, in :meth:`edges` order, and the aligned rates.

        The same two tuples come back until an edge or a rate changes, so a
        caller can cache what it derives from them by identity.
        """
        if self._edge_rates is None:
            edges = tuple(self.edges())
            self._edge_rates = (edges, tuple(self.generation_rate(*key) for key in edges))
        return self._edge_rates

    def generation_rates(self) -> Dict[EdgeKey, float]:
        """All positive generation rates keyed by canonical edge, in :meth:`edges` order."""
        return dict(zip(*self.generation_edges()))

    def position(self, node: NodeId) -> Optional[Tuple[float, float]]:
        return self._positions.get(node)

    def total_generation_rate(self) -> float:
        """Sum of ``g(x, y)`` over all generation edges."""
        return sum(self.generation_rates().values())

    # ------------------------------------------------------------------ #
    # Graph algorithms
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """Whether the generation graph connects all nodes.

        The paper notes that nodes in distinct connected components can
        never share a Bell pair, so every experiment topology must pass
        this check.
        """
        if not self._adjacency:
            return True
        start = next(iter(self._adjacency))
        visited = {start}
        frontier = collections.deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        return len(visited) == len(self._adjacency)

    def shortest_path(self, source: NodeId, target: NodeId) -> Optional[List[NodeId]]:
        """Unweighted (hop-count) shortest path, or ``None`` when unreachable."""
        if source not in self._adjacency or target not in self._adjacency:
            raise KeyError(f"both endpoints must be topology nodes: {source!r}, {target!r}")
        if source == target:
            return [source]
        predecessors: Dict[NodeId, NodeId] = {}
        visited = {source}
        frontier = collections.deque([source])
        while frontier:
            node = frontier.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                predecessors[neighbor] = node
                if neighbor == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(predecessors[path[-1]])
                    return list(reversed(path))
                frontier.append(neighbor)
        return None

    def shortest_path_length(self, source: NodeId, target: NodeId) -> Optional[int]:
        """Hop count of the shortest path, or ``None`` when unreachable."""
        path = self.shortest_path(source, target)
        if path is None:
            return None
        return len(path) - 1

    def all_pairs_shortest_path_lengths(self) -> Dict[EdgeKey, int]:
        """Hop-count distances for every unordered node pair (BFS from each node)."""
        lengths: Dict[EdgeKey, int] = {}
        for source in self._adjacency:
            distances = {source: 0}
            frontier = collections.deque([source])
            while frontier:
                node = frontier.popleft()
                for neighbor in self._adjacency[node]:
                    if neighbor not in distances:
                        distances[neighbor] = distances[node] + 1
                        frontier.append(neighbor)
            for target, distance in distances.items():
                if target == source:
                    continue
                lengths[edge_key(source, target)] = distance
        return lengths

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "Topology":
        """A deep copy (optionally renamed)."""
        clone = Topology(name=name or self.name, positions=self._positions)
        for node in self.nodes:
            clone.add_node(node)
        for (node_a, node_b), rate in self.generation_rates().items():
            clone.add_edge(node_a, node_b, rate)
        return clone

    def node_pairs(self) -> Iterator[EdgeKey]:
        """All unordered node pairs (the paper's ``|N| choose 2`` candidate set)."""
        ordered = self.nodes
        for index, node_a in enumerate(ordered):
            for node_b in ordered[index + 1 :]:
                yield edge_key(node_a, node_b)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(name={self.name!r}, nodes={self.n_nodes}, edges={self.n_edges})"
