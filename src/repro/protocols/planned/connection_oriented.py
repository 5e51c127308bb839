"""Connection-oriented planned-path baseline.

The classic approach the paper positions itself against: when a consumption
request arrives, a specific path is selected (shortest path on the
generation graph here), the request *reserves* that path, and entanglement
swapping is performed along it -- in the optimal nested order -- as soon as
enough elementary pairs have accumulated on every link of the path.

Because requests are served strictly in order and the active request has
exclusive use of the network, this baseline achieves exactly the nested
(minimum) swap count per request; its cost shows up as latency (waiting for
the reserved path's links to accumulate the multiplicatively many elementary
pairs nested distillation needs) and as idle generation elsewhere.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Union

from repro.core.lp.extensions import PairOverheads
from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.generation import GenerationProcess
from repro.network.topology import Topology
from repro.protocols.base import SwappingProtocol
from repro.protocols.nested import execute_nested
from repro.sim.rng import RandomStreams

NodeId = Hashable


class ConnectionOrientedProtocol(SwappingProtocol):
    """One reserved shortest path at a time, nested swapping along it."""

    name = "planned-connection-oriented"

    def __init__(
        self,
        topology: Topology,
        requests: RequestSequence,
        overheads: Union[PairOverheads, float] = 1.0,
        generation: Optional[GenerationProcess] = None,
        streams: Optional[RandomStreams] = None,
        max_rounds: int = 50_000,
        consumptions_per_round: Optional[int] = None,
        scenario=None,
        trace=None,
    ):
        super().__init__(
            topology=topology,
            requests=requests,
            overheads=overheads,
            generation=generation,
            streams=streams,
            max_rounds=max_rounds,
            consumptions_per_round=consumptions_per_round,
            scenario=scenario,
            trace=trace,
        )
        self._swaps = 0
        self._swaps_by_node: Dict[NodeId, int] = {}
        self._path_cache: Dict[tuple, List[NodeId]] = {}

    # ------------------------------------------------------------------ #
    # Planned-path machinery
    # ------------------------------------------------------------------ #
    def _path_for(self, pair: tuple) -> List[NodeId]:
        if len(pair) != 2:
            raise ValueError(
                f"planned protocols serve 2-party requests only; got a group of {len(pair)} "
                f"({pair!r}) — use the path-oblivious protocol for multicast"
            )
        if pair not in self._path_cache:
            path = self.topology.shortest_path(pair[0], pair[1])
            if path is None:
                raise ValueError(f"no generation-graph path between {pair[0]!r} and {pair[1]!r}")
            self._path_cache[pair] = path
        return self._path_cache[pair]

    def _action_phase(self, round_index: int) -> Optional[bool]:
        # All the work happens when the head request is served; a
        # connection-oriented network performs no anticipatory swaps.
        return None

    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        path = self._path_for(request.pair)
        records = execute_nested(self.ledger, path, self.overheads, round_index)
        if records is None:
            return False
        self._swaps += len(records)
        for record in records:
            self._swaps_by_node[record.repeater] = self._swaps_by_node.get(record.repeater, 0) + 1
        # execute_nested already removed every raw pair the request consumed.
        self.pairs_consumed += sum(
            amount for amount in self._consumed_for_path(path).values()
        )
        return True

    def _consumed_for_path(self, path: List[NodeId]) -> Dict[tuple, int]:
        from repro.protocols.nested import required_link_pairs

        return required_link_pairs(path, self.overheads)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def swaps_performed(self) -> int:
        return self._swaps

    def swaps_by_node(self) -> Dict[NodeId, int]:
        return dict(self._swaps_by_node)

    def classical_overhead(self) -> Dict[str, int]:
        # Path reservation: one signalling message per hop per satisfied request,
        # plus the 2-bit swap corrections (one per swap).
        hops = sum(
            len(self._path_for(request.pair)) - 1 for request in self.requests.satisfied_requests()
        )
        return {"messages": hops + self._swaps, "entries": hops + self._swaps}
