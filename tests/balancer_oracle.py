"""Reference oracle for the dense balancing engine.

:class:`OracleBalancer` evaluates a node's turn the direct way: walk the
``repr``-sorted partners, keep those with headroom >= 1 (the cost ``D``
read from the overheads for each pair, not from the engine's cost
shortcut), and test every ``left < right`` pairing against the paper's
condition with Python ints, asking the knowledge model for each recipient
count.  The policy then chooses from that list.  Everything else (swap
execution, rounds, node order, consumption) is inherited, so any
difference from :class:`~repro.core.maxmin.balancer.MaxMinBalancer` is a
difference in candidate evaluation or selection.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.policy import SwapCandidate


class OracleBalancer(MaxMinBalancer):
    """The per-pair Python enumeration; every node takes every turn."""

    def __init__(self, ledger, **kwargs):
        if kwargs.get("skip_idle"):
            raise ValueError("the oracle evaluates every turn; it has no skip mode")
        super().__init__(ledger, **kwargs)

    def preferable_candidates(self, repeater) -> List[SwapCandidate]:
        partner_counts = self.ledger.partners(repeater)
        partners = sorted(partner_counts, key=repr)
        headroom: Dict = {}
        for partner in partners:
            cost = math.ceil(self.overheads.distillation_for(repeater, partner))
            slack = partner_counts[partner] - cost
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

    def _choose(self, repeater):
        return self.policy.choose(self.preferable_candidates(repeater), self.rng)

    def has_preferable_swap(self) -> bool:
        return any(self.preferable_candidates(node) for node in self.ledger.nodes)
