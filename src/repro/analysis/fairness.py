"""Fairness measures.

Section 4 argues that, with generation and consumption frozen, the balancing
process terminates in a max-min fair allocation of pair counts: "no buffer
count can be increased without reducing another that was already smaller".
These helpers make that property checkable (it is exercised by the
property-based tests) and provide the standard fairness summary statistics
(Jain's index, lexicographic minimum) used in the comparison experiments.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.incremental import make_balancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.topology import EdgeKey


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``; 1.0 = perfectly fair."""
    values = [float(value) for value in values]
    if not values:
        raise ValueError("jains_index requires at least one value")
    if any(value < 0 for value in values):
        raise ValueError("jains_index requires non-negative values")
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def lexicographic_min(values: Iterable[float]) -> Tuple[float, ...]:
    """The sorted (ascending) value vector, the object max-min fairness maximises."""
    return tuple(sorted(float(value) for value in values))


def is_max_min_fair(balancer: MaxMinBalancer) -> bool:
    """Whether the balancer's current ledger admits no preferable swap.

    This is exactly the paper's termination condition: a state where no
    preferable candidate exists is one where no pair count can be raised by
    a single swap without dropping a donor count to (or below) the level of
    the pair being helped.
    """
    return not balancer.has_preferable_swap()


def balanced_fixed_point(
    ledger: PairCountLedger,
    overheads: float = 1.0,
    engine: str = "incremental",
    max_rounds: int = 10_000,
    seed: int = 0,
) -> Tuple[PairCountLedger, MaxMinBalancer, int]:
    """Balance a *copy* of ``ledger`` to its max-min fixed point.

    Returns ``(converged_ledger, balancer, rounds)``.  ``engine`` picks the
    balancing implementation (``"naive"`` or ``"incremental"``); under the
    default deterministic policy both produce the identical fixed point, so
    analyses can use the fast engine and property tests can cross-check the
    two.  The input ledger is never mutated.
    """
    working = ledger.copy()
    balancer = make_balancer(
        engine,
        working,
        overheads=overheads,
        rng=np.random.default_rng(seed),
        keep_records=False,
    )
    rounds = balancer.balance_to_convergence(max_rounds=max_rounds)
    return working, balancer, rounds


def count_imbalance(ledger: PairCountLedger) -> float:
    """Max minus min positive pair count (0 for an empty or perfectly even ledger)."""
    counts = list(ledger.nonzero_pairs().values())
    if not counts:
        return 0.0
    return float(max(counts) - min(counts))


def per_consumer_service(
    consumption_counts: Mapping[EdgeKey, int], consumer_pairs: Sequence[EdgeKey]
) -> Dict[EdgeKey, int]:
    """Requests served per consumer pair, including zero entries for starved pairs."""
    return {pair: int(consumption_counts.get(pair, 0)) for pair in consumer_pairs}
