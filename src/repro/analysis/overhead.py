"""The swap-overhead metric (paper, Section 5).

``swap overhead = (swaps performed in simulation)
                  / sum over satisfied consumption events of s(l(c))``

where ``l(c)`` is the hop length of the shortest generation-graph path for
consumption event ``c`` and ``s(.)`` the nested-swapping count
(:func:`repro.protocols.nested.nested_swap_count`).  The denominator is the
minimum number of swaps that could have satisfied the same consumption
events, so the metric is at least 1 (with the exact recurrence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.core.lp.extensions import PairOverheads
from repro.network.demand import ConsumptionRequest
from repro.network.topology import Topology
from repro.protocols.base import ProtocolResult
from repro.protocols.fusion import DEFAULT_GROUP_STRATEGY, group_sessions
from repro.protocols.nested import nested_swap_count


@dataclass
class OverheadBreakdown:
    """The overhead metric plus the pieces it was computed from."""

    swaps_performed: int
    optimal_swaps: float
    overhead: float
    variant: str
    distillation: float
    per_request_optimal: List[float] = field(default_factory=list)
    path_lengths: List[int] = field(default_factory=list)

    @property
    def satisfied_requests(self) -> int:
        return len(self.per_request_optimal)


def request_path_lengths(
    topology: Topology, requests: Iterable[ConsumptionRequest]
) -> List[int]:
    """Shortest-path hop counts, in the generation graph, per Bell-pair session.

    A 2-party request contributes exactly one entry (its endpoints' shortest
    path), so pair-only workloads are unchanged.  A multicast request
    contributes one entry per session of its serving strategy (star arms for
    ``shared``, all member pairs for ``independent-sessions``): the optimal
    cost of a group consumption is the optimal cost of the sessions it spends.
    """
    lengths: List[int] = []
    for request in requests:
        if len(request.pair) == 2:
            sessions = [request.pair]
        else:
            sessions = group_sessions(
                request.pair, request.strategy or DEFAULT_GROUP_STRATEGY
            )
        for session in sessions:
            length = topology.shortest_path_length(*session)
            if length is None:
                raise ValueError(
                    f"request pair {session} is disconnected in {topology.name}; "
                    "the overhead metric is undefined"
                )
            lengths.append(length)
    return lengths


def optimal_swaps_for_requests(
    topology: Topology,
    requests: Iterable[ConsumptionRequest],
    distillation: float = 1.0,
    variant: str = "exact",
) -> float:
    """The overhead denominator: ``sum_c s(l(c))`` over the satisfied requests."""
    return sum(
        nested_swap_count(length, distillation, variant)
        for length in request_path_lengths(topology, requests)
    )


def swap_overhead(swaps_performed: int, optimal_swaps: float) -> float:
    """The ratio itself, guarding the degenerate no-swaps-needed case.

    When the optimal cost is zero (every satisfied request was between
    adjacent nodes) the overhead is defined as 1.0 if no swaps were
    performed and infinity otherwise.
    """
    if swaps_performed < 0:
        raise ValueError(f"swaps_performed must be non-negative, got {swaps_performed}")
    if optimal_swaps < 0:
        raise ValueError(f"optimal_swaps must be non-negative, got {optimal_swaps}")
    if optimal_swaps == 0:
        return 1.0 if swaps_performed == 0 else float("inf")
    return swaps_performed / optimal_swaps


def swap_overhead_from_result(
    topology: Topology,
    result: ProtocolResult,
    distillation: Optional[float] = None,
    overheads: Optional[PairOverheads] = None,
    variant: str = "exact",
) -> OverheadBreakdown:
    """Compute the full overhead breakdown for one protocol run.

    ``distillation`` defaults to the uniform value in ``overheads`` (or 1.0),
    matching the paper's setting where all ``D_{x,y}`` share one value.
    """
    if distillation is None:
        distillation = overheads.default_distillation if overheads is not None else 1.0
    lengths = request_path_lengths(topology, result.satisfied_requests)
    per_request = [nested_swap_count(length, distillation, variant) for length in lengths]
    optimal = sum(per_request)
    return OverheadBreakdown(
        swaps_performed=result.swaps_performed,
        optimal_swaps=optimal,
        overhead=swap_overhead(result.swaps_performed, optimal),
        variant=variant,
        distillation=distillation,
        per_request_optimal=per_request,
        path_lengths=lengths,
    )
