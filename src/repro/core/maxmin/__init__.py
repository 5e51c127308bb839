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

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.maxmin.balancer": ("MaxMinBalancer", "SwapRecord"),
        "repro.core.maxmin.incremental": (
            "BALANCER_ENGINES",
            "IncrementalMaxMinBalancer",
            "make_balancer",
        ),
        "repro.core.maxmin.knowledge": ("GlobalKnowledge", "GossipKnowledge", "KnowledgeModel"),
        "repro.core.maxmin.ledger": ("PairCountLedger",),
        "repro.core.maxmin.policy": (
            "BalancingPolicy",
            "DistanceWeightedPolicy",
            "MinRecipientCountPolicy",
            "RandomPreferablePolicy",
            "SwapCandidate",
        ),
    },
)
