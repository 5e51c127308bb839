"""Reference oracle for the dense balancing engine.

:class:`OracleBalancer` runs the paper's protocol the direct way, through
the node-keyed ledger API only, so it works on the shipped count matrix and
on the dict store of ``tests/ledger_oracle.py`` alike.  A turn walks the
``repr``-sorted partners, keeps those with headroom >= 1 (the cost ``D``
read from the overheads for each pair), and tests every ``left < right``
pairing against the paper's condition with Python ints, asking the
knowledge model for each recipient count; the policy chooses from that
list and the swap goes through ``ledger.remove``/``ledger.add``.  Rounds
rotate the ledger's node order by the round index, like the engine's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.balancer import SwapRecord
from repro.core.maxmin.knowledge import GlobalKnowledge
from repro.core.maxmin.policy import MinRecipientCountPolicy, SwapCandidate


class OracleBalancer:
    """The per-pair Python enumeration; every node takes every turn."""

    def __init__(
        self,
        ledger,
        overheads=1.0,
        policy=None,
        knowledge=None,
        swaps_per_node_per_round: int = 1,
        rng: Optional[np.random.Generator] = None,
        keep_records: bool = True,
        skip_idle: bool = False,
    ):
        if skip_idle:
            raise ValueError("the oracle evaluates every turn; it has no skip mode")
        self.ledger = ledger
        if isinstance(overheads, (int, float)):
            overheads = PairOverheads.uniform(distillation=float(overheads))
        self.overheads = overheads
        self.policy = policy if policy is not None else MinRecipientCountPolicy()
        self.knowledge = knowledge if knowledge is not None else GlobalKnowledge(ledger)
        self.swaps_per_node_per_round = swaps_per_node_per_round
        self.rng = rng if rng is not None else np.random.default_rng()
        self.keep_records = keep_records
        self.swaps_performed = 0
        self.swaps_by_node: Dict = {}
        self.records: List[SwapRecord] = []

    def distillation_cost(self, node_a, node_b) -> int:
        return math.ceil(self.overheads.distillation_for(node_a, node_b))

    def can_consume(self, node_a, node_b) -> bool:
        return self.ledger.count(node_a, node_b) >= self.distillation_cost(node_a, node_b)

    def consume(self, node_a, node_b) -> int:
        cost = self.distillation_cost(node_a, node_b)
        self.ledger.remove(node_a, node_b, cost)
        return cost

    def preferable_candidates(self, repeater) -> List[SwapCandidate]:
        partner_counts = self.ledger.partners(repeater)
        partners = sorted(partner_counts, key=repr)
        headroom: Dict = {}
        for partner in partners:
            slack = partner_counts[partner] - self.distillation_cost(repeater, partner)
            if slack >= 1:
                headroom[partner] = slack
        eligible = [partner for partner in partners if partner in headroom]
        candidates: List[SwapCandidate] = []
        for index, left in enumerate(eligible):
            for right in eligible[index + 1 :]:
                limit = min(headroom[left], headroom[right])
                recipient = self.knowledge.recipient_count(repeater, left, right)
                if recipient is None or recipient + 1 > limit:
                    continue
                candidates.append(
                    SwapCandidate(
                        repeater=repeater,
                        left=left,
                        right=right,
                        recipient_count=recipient,
                        left_count=partner_counts[left],
                        right_count=partner_counts[right],
                    )
                )
        return candidates

    def _choose(self, repeater) -> Optional[SwapCandidate]:
        return self.policy.choose(self.preferable_candidates(repeater), self.rng)

    def run_node(self, repeater, round_index: int = 0) -> int:
        performed = 0
        for _ in range(self.swaps_per_node_per_round):
            choice = self._choose(repeater)
            if choice is None:
                break
            self.ledger.remove(repeater, choice.left, self.distillation_cost(repeater, choice.left))
            self.ledger.remove(
                repeater, choice.right, self.distillation_cost(repeater, choice.right)
            )
            self.ledger.add(choice.left, choice.right, 1)
            self.swaps_performed += 1
            self.swaps_by_node[repeater] = self.swaps_by_node.get(repeater, 0) + 1
            if self.keep_records:
                self.records.append(SwapRecord(repeater, choice.left, choice.right, round_index))
            performed += 1
        return performed

    def run_round(self, round_index: int = 0) -> int:
        self.knowledge.refresh(round_index, self.rng)
        nodes = self.ledger.nodes
        shift = round_index % len(nodes) if nodes else 0
        return sum(self.run_node(node, round_index) for node in nodes[shift:] + nodes[:shift])

    def has_preferable_swap(self) -> bool:
        return any(self.preferable_candidates(node) for node in self.ledger.nodes)

    def balance_to_convergence(self, max_rounds: int = 10_000) -> int:
        for round_index in range(max_rounds):
            if not self.run_round(round_index):
                return round_index
        raise RuntimeError(f"balancing did not converge within {max_rounds} rounds")
