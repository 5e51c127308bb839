"""The planned-path core every baseline shares.

A planned-path protocol serves a request by nested swapping along one
pre-selected path -- the shortest path on the generation graph -- as soon as
every link of that path holds the elementary pairs the nested build needs.
:class:`PlannedPathProtocol` owns that build and its accounting (swaps,
swaps per repeater, raw pairs consumed, classical overhead); each baseline
adds only its policy: which requests may build, and when links generate.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.network.demand import ConsumptionRequest
from repro.protocols.base import SwappingProtocol
from repro.protocols.nested import execute_nested, required_link_pairs

NodeId = Hashable


class PlannedPathProtocol(SwappingProtocol):
    """Nested swapping along each request's shortest generation-graph path.

    The base serves the head request only, with no anticipatory swaps.
    """

    #: Classical messages per hop of each satisfied request's path, on top
    #: of one 2-bit correction per swap: path signalling, set per baseline.
    messages_per_hop = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._swaps = 0
        self._swaps_by_node: Dict[NodeId, int] = {}
        self._path_cache: Dict[tuple, List[NodeId]] = {}

    def _path_for(self, pair: tuple) -> Optional[List[NodeId]]:
        """The pair's shortest generation-graph path, or ``None`` while a
        scenario has cut the pair off (a miss is not cached: the cut heals)."""
        if len(pair) != 2:
            raise ValueError(
                f"planned protocols serve 2-party requests only; got a group of {len(pair)} "
                f"({pair!r}) — use the path-oblivious protocol for multicast"
            )
        if pair not in self._path_cache:
            path = self.topology.shortest_path(pair[0], pair[1])
            if path is None:
                return None
            self._path_cache[pair] = path
        return self._path_cache[pair]

    def _build(self, request: ConsumptionRequest, round_index: int) -> bool:
        """Nested-build one usable pair for ``request``; ``False`` leaves the
        ledger as it was (and so does a request whose pair is cut off)."""
        path = self._path_for(request.pair)
        if path is None:
            return False
        records = execute_nested(self.ledger, path, self.overheads, round_index)
        if records is None:
            return False
        self._swaps += len(records)
        for record in records:
            self._swaps_by_node[record.repeater] = self._swaps_by_node.get(record.repeater, 0) + 1
        # The build removed every raw link pair the request consumes.
        self.pairs_consumed += sum(required_link_pairs(path, self.overheads).values())
        return True

    def _action_phase(self, round_index: int) -> Optional[bool]:
        return None

    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        return self._build(request, round_index)

    def swaps_performed(self) -> int:
        return self._swaps

    def swaps_by_node(self) -> Dict[NodeId, int]:
        return dict(self._swaps_by_node)

    def classical_overhead(self) -> Dict[str, int]:
        hops = sum(
            len(self._path_for(request.pair)) - 1 for request in self.requests.satisfied_requests()
        )
        messages = self.messages_per_hop * hops + self._swaps
        return {"messages": messages, "entries": messages}
