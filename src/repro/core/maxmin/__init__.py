"""Max-min distributed balancing (paper, Section 4).

The heart of the path-oblivious protocol: every node repeatedly performs
the *preferable* swap that most helps its worst-off entanglement partner.

* :mod:`repro.core.maxmin.ledger` -- the symmetric pair-count table
  ``C_x(y)`` the rule operates on,
* :mod:`repro.core.maxmin.knowledge` -- what each node believes about
  remote counts (global vs gossip dissemination, Section 6),
* :mod:`repro.core.maxmin.policy` -- tie-breaking rules among preferable
  candidates (min-recipient, random, distance-weighted),
* :mod:`repro.core.maxmin.balancer` -- the round-based algorithm itself,
  one dense array step per node turn,
* :mod:`repro.core.maxmin.incremental` -- the engines by name
  (:func:`make_balancer`): ``naive``, or ``incremental``, which skips idle
  nodes and executes the same swaps.
"""

from repro.core.maxmin.balancer import MaxMinBalancer, SwapRecord
from repro.core.maxmin.incremental import (
    BALANCER_ENGINES,
    IncrementalMaxMinBalancer,
    make_balancer,
)
from repro.core.maxmin.knowledge import GlobalKnowledge, GossipKnowledge, KnowledgeModel
from repro.core.maxmin.ledger import PairCountLedger
from repro.core.maxmin.policy import (
    BalancingPolicy,
    DistanceWeightedPolicy,
    MinRecipientCountPolicy,
    RandomPreferablePolicy,
    SwapCandidate,
)

__all__ = [
    "BALANCER_ENGINES",
    "BalancingPolicy",
    "DistanceWeightedPolicy",
    "GlobalKnowledge",
    "GossipKnowledge",
    "IncrementalMaxMinBalancer",
    "KnowledgeModel",
    "MaxMinBalancer",
    "MinRecipientCountPolicy",
    "PairCountLedger",
    "RandomPreferablePolicy",
    "SwapCandidate",
    "SwapRecord",
    "make_balancer",
]
