"""On-demand (reactive) planned-path baseline.

The "water park" strawman from the paper's Section 2.1 analogy: generation
on a link is only switched on while the link lies on the path of the
currently active (head-of-line) request; everything else stays dark.  This
wastes no generation, but pays for it in latency: every request starts from
an empty path and must wait for all the elementary pairs nested swapping
needs to accumulate.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Union

import numpy as np

from repro.core.lp.extensions import PairOverheads
from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.generation import GenerationProcess
from repro.network.topology import EdgeKey, Topology, edge_key
from repro.protocols.base import SwappingProtocol
from repro.protocols.nested import execute_nested
from repro.sim.rng import RandomStreams

NodeId = Hashable


class OnDemandProtocol(SwappingProtocol):
    """Reactive generation: links only generate while reserved by the head request."""

    name = "planned-on-demand"

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

    def _active_path_edges(self) -> Set[EdgeKey]:
        head = self.requests.head()
        if head is None:
            return set()
        path = self._path_for(head.pair)
        return {edge_key(a, b) for a, b in zip(path, path[1:])}

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _generated(
        self, edges: Sequence[EdgeKey], counts: np.ndarray, round_index: int
    ) -> np.ndarray:
        active = self._active_path_edges()
        return counts * np.fromiter((edge in active for edge in edges), bool, len(edges))

    def _action_phase(self, round_index: int) -> Optional[bool]:
        return None

    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        path = self._path_for(request.pair)
        records = execute_nested(self.ledger, path, self.overheads, round_index)
        if records is None:
            return False
        self._swaps += len(records)
        for record in records:
            self._swaps_by_node[record.repeater] = self._swaps_by_node.get(record.repeater, 0) + 1
        return True

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def swaps_performed(self) -> int:
        return self._swaps

    def swaps_by_node(self) -> Dict[NodeId, int]:
        return dict(self._swaps_by_node)

    def classical_overhead(self) -> Dict[str, int]:
        hops = sum(
            len(self._path_for(request.pair)) - 1 for request in self.requests.satisfied_requests()
        )
        return {"messages": 2 * hops + self._swaps, "entries": 2 * hops + self._swaps}
