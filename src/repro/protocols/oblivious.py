"""The path-oblivious protocol runner (paper, Sections 4-5).

Each round:

1. every generation edge adds its new elementary pairs to the ledger,
2. every node takes a balancing turn (up to ``swaps_per_node_per_round``
   preferable swaps chosen by the configured policy / knowledge model),
3. the head-of-line consumption requests are served whenever the ledger
   holds at least ``D`` pairs between the requesting endpoints; when the
   hybrid fallback (§6) is enabled and the head request cannot be served
   directly, a targeted chain of swaps over the current entanglement graph
   is attempted first.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Union

from repro.core.hybrid import HybridPlanner
from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.incremental import make_balancer
from repro.core.maxmin.knowledge import GlobalKnowledge, KnowledgeModel
from repro.core.maxmin.policy import BalancingPolicy
from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.topology import Topology
from repro.protocols.base import SwappingProtocol
from repro.protocols.fusion import DEFAULT_GROUP_STRATEGY, fusions_required, group_sessions
from repro.runtime.seeding import RandomStreams

NodeId = Hashable


class PathObliviousProtocol(SwappingProtocol):
    """The max-min balancing protocol, optionally with the hybrid fallback.

    Parameters beyond :class:`~repro.protocols.base.SwappingProtocol`:

    policy, knowledge:
        Candidate-selection policy and count-dissemination model for the
        balancer (paper defaults when omitted).
    swaps_per_node_per_round:
        The per-node swap rate (the paper's "identical rate" knob).
    use_hybrid_fallback:
        Enable the Section 6 hybrid: when the head request cannot be served
        from existing counts, attempt a targeted swap chain of at most 6
        hops over the current entanglement graph before giving up for the
        round.
    balancer_engine:
        Which mode of :class:`MaxMinBalancer` runs the protocol:
        ``"naive"`` (every node takes every turn) or ``"incremental"``
        (idle nodes are skipped; identical swaps, faster on large
        topologies).
    """

    name = "path-oblivious"

    def __init__(
        self,
        topology: Topology,
        requests: RequestSequence,
        overheads: Union[PairOverheads, float] = 1.0,
        streams: Optional[RandomStreams] = None,
        max_rounds: int = 50_000,
        policy: Optional[BalancingPolicy] = None,
        knowledge: Optional[KnowledgeModel] = None,
        swaps_per_node_per_round: int = 1,
        use_hybrid_fallback: bool = False,
        balancer_engine: str = "naive",
        scenario=None,
        trace=None,
        control_plane=None,
    ):
        super().__init__(
            topology=topology,
            requests=requests,
            overheads=overheads,
            streams=streams,
            max_rounds=max_rounds,
            scenario=scenario,
            trace=trace,
            control_plane=control_plane,
        )
        knowledge = (
            knowledge
            if knowledge is not None
            else GlobalKnowledge(self.ledger, account_messages=True)
        )
        if knowledge.ledger is not self.ledger:
            raise ValueError("the knowledge model must be built over this protocol's ledger")
        self.balancer = make_balancer(
            balancer_engine,
            self.ledger,
            overheads=self.overheads,
            policy=policy,
            knowledge=knowledge,
            swaps_per_node_per_round=swaps_per_node_per_round,
            rng=self.streams.get("balancer"),
            keep_records=False,
        )
        self.use_hybrid_fallback = use_hybrid_fallback
        self.hybrid = (
            HybridPlanner(self.ledger, overheads=self.overheads, max_path_hops=6)
            if use_hybrid_fallback
            else None
        )
        self._fusions = 0

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _action_phase(self, round_index: int) -> None:
        self.balancer.run_round(round_index)

    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        if len(request.pair) != 2:
            return self._try_serve_group(request)
        node_a, node_b = request.pair
        if self.balancer.can_consume(node_a, node_b):
            self.pairs_consumed += self.balancer.consume(node_a, node_b)
            return True
        if self.hybrid is not None:
            records = self.hybrid.try_satisfy(node_a, node_b, round_index)
            if records is not None and self.balancer.can_consume(node_a, node_b):
                self.pairs_consumed += self.balancer.consume(node_a, node_b)
                return True
        return False

    def _try_serve_group(self, request: ConsumptionRequest) -> bool:
        """Serve one multicast (GHZ) request from current counts.

        The request's strategy maps the group onto Bell-pair sessions
        (star-of-pairs for ``shared``, all member pairs for
        ``independent-sessions``); the group is served only when *every*
        session is affordable at once.  The hybrid fallback targets single
        end-to-end pairs and is not attempted for groups.
        """
        strategy = request.strategy or DEFAULT_GROUP_STRATEGY
        sessions = group_sessions(request.pair, strategy)
        if not self.balancer.can_consume_sessions(sessions):
            return False
        self.pairs_consumed += self.balancer.consume_sessions(sessions)
        self._fusions += fusions_required(request.pair, strategy)
        return True

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def swaps_performed(self) -> int:
        total = self.balancer.swaps_performed
        if self.hybrid is not None:
            total += self.hybrid.swaps_performed
        return total

    def swaps_by_node(self) -> Dict[NodeId, int]:
        return dict(self.balancer.swaps_by_node)

    def classical_overhead(self) -> Dict[str, int]:
        return self.balancer.knowledge.classical_overhead()

    def fusions_performed(self) -> int:
        return self._fusions
