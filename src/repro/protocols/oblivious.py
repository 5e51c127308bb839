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

from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.core.hybrid import HybridPlanner
from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.incremental import make_balancer
from repro.core.maxmin.knowledge import GlobalKnowledge, KnowledgeModel
from repro.core.maxmin.policy import BalancingPolicy
from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.generation import GenerationProcess
from repro.network.topology import EdgeKey, Topology
from repro.perf.kernels import servable_prefix
from repro.protocols.base import SwappingProtocol
from repro.protocols.fusion import DEFAULT_GROUP_STRATEGY, fusions_required, group_sessions
from repro.sim.rng import RandomStreams

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
        from existing counts, attempt a targeted swap chain over the
        current entanglement graph before giving up for the round.
    hybrid_max_hops:
        Longest entanglement-graph path the hybrid fallback will attempt.
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
        generation: Optional[GenerationProcess] = None,
        streams: Optional[RandomStreams] = None,
        max_rounds: int = 50_000,
        consumptions_per_round: Optional[int] = None,
        policy: Optional[BalancingPolicy] = None,
        knowledge: Optional[KnowledgeModel] = None,
        swaps_per_node_per_round: int = 1,
        use_hybrid_fallback: bool = False,
        hybrid_max_hops: Optional[int] = 6,
        balancer_engine: str = "naive",
        scenario=None,
        trace=None,
        control_plane=None,
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
            HybridPlanner(self.ledger, overheads=self.overheads, max_path_hops=hybrid_max_hops)
            if use_hybrid_fallback
            else None
        )
        # The serve-prefix scan can size a round's whole consumption burst
        # in one call only when serving is exactly "head pair holds >= D
        # pairs" and the request list is immutable: no hybrid fallback, no
        # per-round consumption cap, no scenario (demand drift may rewrite
        # pending pairs), and the plain ordered sequence (timed subclasses
        # release requests dynamically).
        self._prefix_fast_path = (
            self.hybrid is None
            and self.consumptions_per_round is None
            and self.scenario is None
            and type(self.requests) is RequestSequence
        )
        self._encoded_requests: Optional[
            Tuple[np.ndarray, List[Tuple[NodeId, NodeId]], List[int]]
        ] = None
        # Group-aware fast-path caches (used only when the immutable stream
        # contains at least one multicast request).
        self._contains_groups: Optional[bool] = None
        self._encoded_group_requests: Optional[List[List[Tuple[EdgeKey, int]]]] = None
        self._fusions = 0

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _action_phase(self, round_index: int) -> Optional[bool]:
        self.balancer.run_round(round_index)
        return None

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

    def _encode_requests(self):
        """Cache the immutable request stream as per-pair integer codes."""
        if self._encoded_requests is None:
            pair_code: Dict[Tuple[NodeId, NodeId], int] = {}
            pairs: List[Tuple[NodeId, NodeId]] = []
            codes = np.empty(len(self.requests), dtype=np.int64)
            for position, request in enumerate(self.requests.requests()):
                code = pair_code.get(request.pair)
                if code is None:
                    code = len(pairs)
                    pair_code[request.pair] = code
                    pairs.append(request.pair)
                codes[position] = code
            costs = [self.balancer.distillation_cost(a, b) for a, b in pairs]
            self._encoded_requests = (codes, pairs, costs)
        return self._encoded_requests

    def _encode_group_requests(self) -> List[List[Tuple[EdgeKey, int]]]:
        """Cache each request's ``(session pair, cost)`` list for the prefix scan."""
        if self._encoded_group_requests is None:
            encoded: List[List[Tuple[EdgeKey, int]]] = []
            for request in self.requests.requests():
                strategy = request.strategy or DEFAULT_GROUP_STRATEGY
                encoded.append(
                    [
                        (pair, self.balancer.distillation_cost(*pair))
                        for pair in group_sessions(request.pair, strategy)
                    ]
                )
            self._encoded_group_requests = encoded
        return self._encoded_group_requests

    def _consumption_phase(self, round_index: int) -> Optional[bool]:
        if not self._prefix_fast_path:
            return super()._consumption_phase(round_index)
        if self._contains_groups is None:
            self._contains_groups = any(
                len(request.pair) != 2 for request in self.requests.requests()
            )
        if self._contains_groups:
            return self._group_consumption_phase(round_index)
        requests = self.requests
        head = requests.head()
        if head is None:
            return True if requests.all_satisfied else None
        requests.note_head_issued(round_index)
        if not self.balancer.can_consume(*head.pair):
            return None
        # The head is servable: size the whole burst with the serve-prefix
        # scan instead of re-checking can_consume per request.  Serving a
        # request only spends its own pair's ledger count, so each pair
        # funds exactly count // cost consumptions this round.  The window
        # doubles so a round serving k requests costs O(k), not O(pending).
        codes, pairs, costs = self._encode_requests()
        start = requests.satisfied_count
        total = len(codes)
        window = 16
        while True:
            stop = min(start + window, total)
            budgets = np.array(
                [self.ledger.count(a, b) // cost for (a, b), cost in zip(pairs, costs)],
                dtype=np.int64,
            )
            prefix = servable_prefix(codes[start:stop], budgets)
            if prefix < stop - start or stop == total:
                break
            window *= 2
        for _ in range(prefix):
            request = requests.head()
            requests.note_head_issued(round_index)
            self.pairs_consumed += self.balancer.consume(*request.pair)
            requests.mark_head_satisfied(round_index)
        head = requests.head()
        if head is None:
            return True if requests.all_satisfied else None
        requests.note_head_issued(round_index)
        return None

    def _group_consumption_phase(self, round_index: int) -> Optional[bool]:
        """Serve-prefix sizing for streams containing multicast requests.

        The pair-only scan cannot express "a request spends several
        sessions at once", so mixed streams use the same ordered-prefix
        bookkeeping in plain Python: walk forward from the head, charging a
        local budget table per session, and stop at the first request whose
        sessions are not all affordable.  Cost is O(prefix), matching the
        scan path's amortised behaviour.
        """
        requests = self.requests
        head = requests.head()
        if head is None:
            return True if requests.all_satisfied else None
        requests.note_head_issued(round_index)
        encoded = self._encode_group_requests()
        start = requests.satisfied_count
        budgets: Dict[EdgeKey, int] = {}
        prefix = 0
        for sessions in encoded[start:]:
            needed: Dict[EdgeKey, int] = {}
            for pair, cost in sessions:
                needed[pair] = needed.get(pair, 0) + cost
            affordable = True
            for pair, amount in needed.items():
                if pair not in budgets:
                    budgets[pair] = self.ledger.count(pair[0], pair[1])
                if budgets[pair] < amount:
                    affordable = False
                    break
            if not affordable:
                break
            for pair, amount in needed.items():
                budgets[pair] -= amount
            prefix += 1
        if prefix == 0:
            return None
        for _ in range(prefix):
            request = requests.head()
            requests.note_head_issued(round_index)
            for pair, _cost in encoded[requests.satisfied_count]:
                self.pairs_consumed += self.balancer.consume(pair[0], pair[1])
            strategy = request.strategy or DEFAULT_GROUP_STRATEGY
            self._fusions += fusions_required(request.pair, strategy)
            requests.mark_head_satisfied(round_index)
        head = requests.head()
        if head is None:
            return True if requests.all_satisfied else None
        requests.note_head_issued(round_index)
        return None

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
