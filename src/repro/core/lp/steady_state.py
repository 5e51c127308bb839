"""Steady-state rate analysis (paper, §3.1-3.2).

Given any assignment of generation, consumption and swap rates -- whether
produced by the LP solver or measured from a simulation run -- compute the
arrival rate ``r+(x, y)`` and departure rate ``r-(x, y)`` for every pair and
check the steady-state condition the paper derives: ``r-(x, y) <=
r+(x, y)`` for every pair (pairs cannot depart faster than they arrive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.lp.extensions import PairOverheads
from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable
SwapRates = Mapping[Tuple[NodeId, EdgeKey], float]
PairRates = Mapping[EdgeKey, float]


@dataclass
class SteadyStateRates:
    """Arrival/departure rates per pair plus the violations found (if any)."""

    arrivals: Dict[EdgeKey, float] = field(default_factory=dict)
    departures: Dict[EdgeKey, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def slack(self, pair: EdgeKey) -> float:
        """``r+ - r-`` for one pair (negative = violated)."""
        return self.arrivals.get(pair, 0.0) - self.departures.get(pair, 0.0)

    @property
    def is_consistent(self) -> bool:
        return not self.violations


def compute_rates(
    nodes: List[NodeId],
    generation: PairRates,
    consumption: PairRates,
    swap_rates: SwapRates,
    overheads: Optional[PairOverheads] = None,
) -> SteadyStateRates:
    """Compute ``r+`` and ``r-`` for every pair appearing in any input.

    Implements equations (3) and (4) of the paper:

    ``r+(x,y) = L_{x,y} (g(x,y) + sum_i sigma_i(x,y))``
    ``r-(x,y) = D_{x,y} (c(x,y) + sum_i sigma_x(i,y) + sigma_y(i,x))``
    """
    overheads = overheads if overheads is not None else PairOverheads()
    arrivals: Dict[EdgeKey, float] = {}
    departures: Dict[EdgeKey, float] = {}

    def bump(table: Dict[EdgeKey, float], pair: EdgeKey, amount: float) -> None:
        table[pair] = table.get(pair, 0.0) + amount

    for pair, rate in generation.items():
        key = edge_key(*pair)
        bump(arrivals, key, overheads.loss_for(*key) * rate)
    for pair, rate in consumption.items():
        key = edge_key(*pair)
        bump(departures, key, overheads.distillation_for(*key) * rate)
    for (repeater, pair), rate in swap_rates.items():
        produced = edge_key(*pair)
        if repeater in produced:
            raise ValueError(f"swap rate at {repeater!r} for pair {produced} is degenerate")
        # The swap creates `produced` ...
        bump(arrivals, produced, overheads.loss_for(*produced) * rate)
        # ... and consumes (repeater, produced[0]) and (repeater, produced[1]).
        for endpoint in produced:
            consumed = edge_key(repeater, endpoint)
            bump(departures, consumed, overheads.distillation_for(*consumed) * rate)

    return SteadyStateRates(arrivals=arrivals, departures=departures)


def verify_steady_state(
    rates: SteadyStateRates,
    tolerance: float = 1e-6,
) -> SteadyStateRates:
    """Populate ``rates.violations`` with any pair whose departures exceed arrivals."""
    rates.violations = []
    pairs = set(rates.arrivals) | set(rates.departures)
    for pair in sorted(pairs, key=repr):
        slack = rates.slack(pair)
        if slack < -tolerance:
            rates.violations.append(
                f"pair {pair}: departures {rates.departures.get(pair, 0.0):.6f} exceed "
                f"arrivals {rates.arrivals.get(pair, 0.0):.6f} by {-slack:.6f}"
            )
    return rates
