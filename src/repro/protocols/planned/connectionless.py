"""Connectionless planned-path baseline.

The variant the paper cites (e.g. Xiao et al.): each request still follows a
pre-selected path, but link-level Bell pairs are *not* reserved -- a window
of outstanding requests compete for the pairs on any links their paths
share.  Requests are admitted in order (the paper's ordering constraint) but
may complete out of order; the request sequence is only advanced when its
head completes, so head-of-line statistics remain comparable with the other
protocols.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Union

from repro.core.lp.extensions import PairOverheads
from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.generation import GenerationProcess
from repro.network.topology import EdgeKey, Topology, edge_key
from repro.protocols.base import SwappingProtocol
from repro.protocols.nested import execute_nested
from repro.sim.rng import RandomStreams

NodeId = Hashable


class ConnectionlessProtocol(SwappingProtocol):
    """Fixed paths, shared (unreserved) link pairs, windowed admission.

    Parameters beyond the base protocol:

    window:
        Maximum number of requests allowed to compete simultaneously.
    """

    name = "planned-connectionless"

    def __init__(
        self,
        topology: Topology,
        requests: RequestSequence,
        overheads: Union[PairOverheads, float] = 1.0,
        generation: Optional[GenerationProcess] = None,
        streams: Optional[RandomStreams] = None,
        max_rounds: int = 50_000,
        consumptions_per_round: Optional[int] = None,
        window: int = 4,
        scenario=None,
        trace=None,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
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
        self.window = int(window)
        self._swaps = 0
        self._swaps_by_node: Dict[NodeId, int] = {}
        self._path_cache: Dict[tuple, List[NodeId]] = {}
        #: Indices (into the request list) completed ahead of the head.
        self._completed_early: Set[int] = set()

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

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _active_window(self) -> List[ConsumptionRequest]:
        """The head request plus the next ``window - 1`` not-yet-completed requests.

        Built from :meth:`~repro.network.demand.RequestSequence.
        pending_requests` so only *eligible* requests compete: for the
        paper's ordered sequence that is the tail from the head onward
        (unchanged behaviour); for timed sequences it is the released,
        admitted queue in policy order -- a request never races for pairs
        before it has arrived.
        """
        pending = [
            request
            for request in self.requests.pending_requests()
            if request.index not in self._completed_early
        ]
        return pending[: self.window]

    def _action_phase(self, round_index: int) -> Optional[bool]:
        # Every request in the window greedily tries to complete its nested
        # construction from the shared, unreserved link pools.
        for request in self._active_window():
            head = self.requests.head()
            if head is not None and request.index == head.index:
                continue  # the head is handled in the consumption phase
            path = self._path_for(request.pair)
            records = execute_nested(self.ledger, path, self.overheads, round_index)
            if records is None:
                continue
            self._record_swaps(records)
            self._completed_early.add(request.index)
            request.issued_round = request.issued_round if request.issued_round is not None else round_index
            request.satisfied_round = round_index
        return None

    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        if request.index in self._completed_early:
            # Already built by the windowed competition; just account for it.
            self._completed_early.discard(request.index)
            return True
        path = self._path_for(request.pair)
        records = execute_nested(self.ledger, path, self.overheads, round_index)
        if records is None:
            return False
        self._record_swaps(records)
        return True

    def _record_swaps(self, records: List) -> None:
        self._swaps += len(records)
        for record in records:
            self._swaps_by_node[record.repeater] = self._swaps_by_node.get(record.repeater, 0) + 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def swaps_performed(self) -> int:
        return self._swaps

    def swaps_by_node(self) -> Dict[NodeId, int]:
        return dict(self._swaps_by_node)

    def classical_overhead(self) -> Dict[str, int]:
        return {"messages": self._swaps, "entries": self._swaps}
