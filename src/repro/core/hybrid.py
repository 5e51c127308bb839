"""Hybrid oblivious + minimal planning (paper, Section 6).

The pure balancing protocol can starve long-distance consumers: pairs they
need get usurped by closer consumers.  The paper suggests using the
oblivious process as *seeding* and, when a consumption request is not
immediately satisfiable, finding a shortest path over the **current
entanglement graph** (whose edges are node pairs that already share enough
Bell pairs) and performing just the swaps along that path.  Because the
entanglement graph contains long "shortcut" edges created by earlier
balancing swaps, that path can be much shorter than the generation-graph
path.

:class:`HybridPlanner` implements exactly that fallback on the count ledger.
"""

from __future__ import annotations

import collections
import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.balancer import SwapRecord
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable


def shortest_entanglement_path(
    ledger: PairCountLedger, source: NodeId, target: NodeId
) -> Optional[List[NodeId]]:
    """BFS shortest path of two or more hops from ``source`` to ``target``.

    The path runs over the entanglement graph (node pairs that currently
    share at least one Bell pair) without the direct ``(source, target)``
    edge: the planner searches only when that edge holds fewer pairs than
    one consumption needs, so the shortfall has to come over other edges.
    Each node's neighbours are read from :meth:`PairCountLedger.partners`
    when the search reaches it, in ascending ``repr`` order, so among
    equally short paths the one returned is the least when paths are
    compared node by node from ``source`` by ``repr`` (``"10" < "2"``).
    """
    if source == target:
        return [source]
    visited = {source}
    predecessors: Dict[NodeId, NodeId] = {}
    frontier = collections.deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in ledger.partners(node):
            if neighbor in visited or (node == source and neighbor == target):
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


class HybridPlanner:
    """Fallback planner that completes a requested pair with targeted swaps.

    Parameters
    ----------
    ledger:
        The shared pair-count ledger (also used by the balancer).
    overheads:
        Distillation overheads; a float is treated as a uniform ``D``.
    max_path_hops:
        Paths longer than this over the entanglement graph are not
        attempted (the multiplicative ``D`` cost of long targeted chains
        grows quickly; ``None`` = no limit).
    """

    def __init__(
        self,
        ledger: PairCountLedger,
        overheads: Union[PairOverheads, float] = 1.0,
        max_path_hops: Optional[int] = None,
    ):
        self.ledger = ledger
        if isinstance(overheads, (int, float)):
            overheads = PairOverheads.uniform(distillation=float(overheads))
        self.overheads = overheads
        self.max_path_hops = max_path_hops
        self.swaps_performed = 0
        self.requests_completed = 0
        self.requests_declined = 0

    # ------------------------------------------------------------------ #
    # Cost accounting over the entanglement graph
    # ------------------------------------------------------------------ #
    def _cost(self, node_a: NodeId, node_b: NodeId) -> int:
        return int(math.ceil(self.overheads.distillation_for(node_a, node_b)))

    def _requirements(self, path: Sequence[NodeId], multiplicity: int) -> Tuple[Dict[EdgeKey, int], int]:
        """Pairs needed per entanglement edge, and swaps needed, to deliver ``multiplicity`` pairs.

        Hop-by-hop construction along ``path``: delivering ``m`` pairs
        ``(path[0], path[j])`` for ``j >= 2`` takes ``m`` swaps at
        ``path[j-1]``, consuming ``m * D`` prefix pairs ``(path[0], path[j-1])``
        (recursively delivered) and ``m * D`` edge pairs
        ``(path[j-1], path[j])``.  The multiplicative ``D`` factors are what
        make long targeted chains expensive when ``D > 1``.
        """
        if len(path) < 2:
            return {}, 0
        needs: Dict[EdgeKey, int] = {}
        swaps = 0
        source = path[0]
        copies = multiplicity
        for j in range(len(path) - 1, 0, -1):
            near, far = path[j - 1], path[j]
            if j == 1:
                # The first hop draws existing pairs straight from the ledger.
                edge = edge_key(source, far)
                needs[edge] = needs.get(edge, 0) + copies
                break
            edge = edge_key(near, far)
            needs[edge] = needs.get(edge, 0) + copies * self._cost(near, far)
            swaps += copies
            copies = copies * self._cost(source, near)
        return needs, swaps

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def try_satisfy(
        self, source: NodeId, target: NodeId, round_index: int = 0
    ) -> Optional[List[SwapRecord]]:
        """Attempt to build enough ``(source, target)`` pairs for one consumption.

        Returns the swaps performed (possibly an empty list when the pair
        already exists in sufficient quantity), or ``None`` when no
        affordable entanglement-graph path exists right now.  On success the
        ledger holds at least ``D_{source,target}`` pairs of
        ``(source, target)`` ready to be consumed by the caller.

        The deficit is topped up over a path of two or more hops (see
        :func:`shortest_entanglement_path`).
        """
        required = self._cost(source, target)
        deficit = required - self.ledger.count(source, target)
        if deficit <= 0:
            return []

        path = shortest_entanglement_path(self.ledger, source, target)
        if path is None or len(path) < 2:
            self.requests_declined += 1
            return None
        if self.max_path_hops is not None and len(path) - 1 > self.max_path_hops:
            self.requests_declined += 1
            return None

        needs, _ = self._requirements(path, deficit)
        for edge, needed in needs.items():
            if self.ledger.count(*edge) < needed:
                self.requests_declined += 1
                return None

        records = self._execute(path, deficit, round_index)
        if self.ledger.count(source, target) >= required:
            self.requests_completed += 1
        return records

    def _execute(self, path: Sequence[NodeId], multiplicity: int, round_index: int) -> List[SwapRecord]:
        """Perform the hop-by-hop swaps delivering ``multiplicity`` end-to-end pairs."""
        records: List[SwapRecord] = []
        source = path[0]

        def build(prefix_end_index: int, copies: int) -> None:
            """Ensure ``copies`` new pairs (source, path[prefix_end_index]) exist."""
            if prefix_end_index == 1:
                # The first hop uses existing entanglement-edge pairs directly;
                # feasibility was checked against the ledger before execution.
                return
            repeater = path[prefix_end_index - 1]
            far = path[prefix_end_index]
            prefix_cost = self._cost(source, repeater)
            edge_cost = self._cost(repeater, far)
            # Build all required prefix pairs first, then perform the swaps.
            build(prefix_end_index - 1, copies * prefix_cost)
            for _ in range(copies):
                self.ledger.remove(source, repeater, prefix_cost)
                self.ledger.remove(repeater, far, edge_cost)
                self.ledger.add(source, far, 1)
                self.swaps_performed += 1
                records.append(
                    SwapRecord(repeater=repeater, left=source, right=far, round_index=round_index)
                )

        build(len(path) - 1, multiplicity)
        return records
