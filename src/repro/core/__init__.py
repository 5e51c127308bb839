"""The paper's primary contribution.

Two halves, mirroring Sections 3 and 4 of the paper:

* :mod:`repro.core.lp` -- the path-oblivious *linear flow program*: given
  generation capabilities ``g(x, y)``, consumption demand ``c(x, y)`` and
  per-pair overheads (distillation ``D``, loss ``L``, QEC ``R``), solve for
  the steady-state swap rates ``sigma_i(x, y)`` under one of several
  optimization objectives.
* :mod:`repro.core.maxmin` -- the distributed *max-min balancing* protocol:
  a node performs the swap ``y' <- x -> y`` only when doing so does not push
  any pair count below the count it is helping, preferring the most
  starved recipient pair.

:mod:`repro.core.hybrid` implements the Section 6 extension that falls back
to minimal planning (shortest path over the *current entanglement graph*)
when a consumption request cannot be served immediately.

Every public name below is a lazy export (:mod:`repro.lazy`): a trial's
balancer imports without the LP formulation and solver.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.lp": (
            "LinearProgram",
            "LPSolution",
            "Objective",
            "PairOverheads",
            "PathObliviousFlowProgram",
            "SteadyStateRates",
            "solve_flow_program",
        ),
        "repro.core.maxmin": (
            "BalancingPolicy",
            "DistanceWeightedPolicy",
            "GossipKnowledge",
            "GlobalKnowledge",
            "KnowledgeModel",
            "MaxMinBalancer",
            "MinRecipientCountPolicy",
            "PairCountLedger",
            "RandomPreferablePolicy",
            "SwapCandidate",
            "SwapRecord",
        ),
        "repro.core.hybrid": ("HybridPlanner",),
    },
)
