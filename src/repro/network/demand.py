"""Consumption demand models.

The paper's workload (§5): 35 consumer pairs are drawn from the
``|N| choose 2`` candidate pairs, and a sequence of consumption requests over
those pairs "must be satisfied in the order of the sequence" -- the ordering
constraint exists precisely to prevent the protocol from cherry-picking
easy-to-satisfy requests.

This module provides

* :func:`select_consumer_pairs` -- the paper's consumer-pair draw,
* :class:`RequestSequence` -- the ordered, head-of-line-blocking request
  stream,
* :class:`DemandMatrix` and :func:`uniform_demand` -- average consumption
  rates ``c(x, y)`` for the LP formulation and steady-state analyses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np

from repro.network.topology import EdgeKey, GroupKey, Topology, edge_key, group_key

NodeId = Hashable


class ConsumerPairShortfallWarning(UserWarning):
    """The candidate set was smaller than the requested number of pairs/groups.

    Carries the structured counts (and, for multicast draws, the group
    size) so harnesses can record them in result metadata instead of
    re-parsing the message.  Size-2 draws keep the historical pair wording.
    """

    def __init__(
        self,
        requested: int,
        available: int,
        topology_name: str = "",
        group_size: int = 2,
    ):
        self.requested = int(requested)
        self.available = int(available)
        self.topology_name = topology_name
        self.group_size = int(group_size)
        location = f" on {topology_name}" if topology_name else ""
        if self.group_size == 2:
            message = (
                f"requested {requested} consumer pairs but only {available} candidate "
                f"pair(s) exist{location}; using all {available}"
            )
        else:
            message = (
                f"requested {requested} consumer groups of size {self.group_size} but "
                f"only {available} candidate group(s) exist{location}; "
                f"using all {available}"
            )
        super().__init__(message)


# ---------------------------------------------------------------------- #
# Consumer pairs and request sequences (simulation workload)
# ---------------------------------------------------------------------- #
def select_consumer_pairs(
    topology: Topology,
    n_pairs: int,
    rng: np.random.Generator,
    exclude_generation_edges: bool = False,
) -> List[EdgeKey]:
    """Draw ``n_pairs`` distinct consumer pairs uniformly from all node pairs.

    Parameters
    ----------
    topology:
        The generation graph; its node set defines the candidate pairs.
    n_pairs:
        How many distinct pairs to draw (35 in the paper).  When the
        candidate set is smaller than ``n_pairs``, every candidate pair is
        returned and a structured :class:`ConsumerPairShortfallWarning` is
        emitted (the smallest |N| sweeps need the fallback, but a silently
        shrunken workload would skew cross-size comparisons unnoticed);
        experiment harnesses additionally record the effective pair count
        in the trial metadata.
    rng:
        Seeded random stream.
    exclude_generation_edges:
        When ``True``, only pairs that are *not* generation edges are
        candidates (every consumption then requires at least one swap);
        used by ablations.
    """
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    candidates = list(topology.node_pairs())
    if exclude_generation_edges:
        candidates = [pair for pair in candidates if not topology.has_edge(*pair)]
    if not candidates:
        raise ValueError("no candidate consumer pairs available")
    if n_pairs >= len(candidates):
        if n_pairs > len(candidates):
            warnings.warn(
                ConsumerPairShortfallWarning(n_pairs, len(candidates), topology.name),
                stacklevel=2,
            )
        return list(candidates)
    indices = rng.choice(len(candidates), size=n_pairs, replace=False)
    return [candidates[int(index)] for index in indices]


#: Above this many candidate groups the uniform draw samples members
#: directly instead of materialising every combination.
_GROUP_ENUMERATION_CAP = 250_000


def select_consumer_groups(
    topology: Topology,
    n_groups: int,
    rng: np.random.Generator,
    group_size: int = 2,
    exclude_generation_edges: bool = False,
) -> List[GroupKey]:
    """Draw ``n_groups`` distinct consumer groups of ``group_size`` nodes.

    The multicast generalisation of :func:`select_consumer_pairs`:
    ``group_size=2`` delegates to it outright (same candidate order, same
    RNG consumption, same shortfall pathway), so the pair draw is exactly
    the size-2 special case.  Larger sizes draw uniformly from the
    ``C(|N|, k)`` canonical node combinations; when that candidate set is
    smaller than ``n_groups``, every candidate is returned and a structured
    :class:`ConsumerPairShortfallWarning` (carrying the group size and
    topology name) is emitted, mirroring the pair pathway.
    """
    if group_size < 2:
        raise ValueError(f"group_size must be at least 2, got {group_size}")
    if group_size == 2:
        return [
            group_key(*pair)
            for pair in select_consumer_pairs(
                topology, n_groups, rng, exclude_generation_edges
            )
        ]
    if exclude_generation_edges:
        raise ValueError("exclude_generation_edges only applies to group_size=2 draws")
    if n_groups <= 0:
        raise ValueError(f"n_groups must be positive, got {n_groups}")
    nodes = sorted(topology.nodes, key=repr)
    if len(nodes) < group_size:
        raise ValueError(
            f"cannot draw groups of {group_size} nodes from a {len(nodes)}-node topology"
        )
    n_candidates = math.comb(len(nodes), group_size)
    if n_candidates <= _GROUP_ENUMERATION_CAP:
        candidates = [tuple(combo) for combo in combinations(nodes, group_size)]
        if n_groups >= len(candidates):
            if n_groups > len(candidates):
                warnings.warn(
                    ConsumerPairShortfallWarning(
                        n_groups, len(candidates), topology.name, group_size=group_size
                    ),
                    stacklevel=2,
                )
            return list(candidates)
        indices = rng.choice(len(candidates), size=n_groups, replace=False)
        return [candidates[int(index)] for index in indices]
    # The candidate space is too large to enumerate: draw members directly
    # (still deterministic for a seeded rng) and deduplicate.
    chosen: Dict[GroupKey, None] = {}
    while len(chosen) < n_groups:
        members = rng.choice(len(nodes), size=group_size, replace=False)
        chosen.setdefault(group_key(*(nodes[int(i)] for i in members)))
    return list(chosen)


@dataclass
class ConsumptionRequest:
    """One entry in the ordered request sequence.

    ``pair`` holds the request's canonical group key: historically always a
    2-tuple (hence the name, kept for API stability), and since the
    group-keyed refactor a :data:`~repro.network.topology.GroupKey` of any
    size ``>= 2`` -- use :attr:`group` / :attr:`group_size` for code that
    serves n-party requests.  ``strategy`` optionally pins the
    group-serving strategy (:data:`repro.protocols.fusion.GROUP_STRATEGIES`)
    for this request; ``None`` defers to the protocol's default.
    """

    index: int
    pair: GroupKey
    issued_round: Optional[int] = None
    satisfied_round: Optional[int] = None
    strategy: Optional[str] = None

    @property
    def group(self) -> GroupKey:
        """The request's canonical node group (alias of :attr:`pair`)."""
        return self.pair

    @property
    def group_size(self) -> int:
        return len(self.pair)

    @property
    def satisfied(self) -> bool:
        return self.satisfied_round is not None

    @property
    def waiting_rounds(self) -> Optional[int]:
        """How long the request waited, once satisfied."""
        if self.satisfied_round is None or self.issued_round is None:
            return None
        return self.satisfied_round - self.issued_round


class RequestSequence:
    """The paper's ordered consumption-request stream.

    Requests are served strictly in order (head-of-line blocking): request
    ``k+1`` cannot be satisfied before request ``k``, which prevents the
    protocol from being scored only on easy (nearby) pairs.
    """

    def __init__(self, requests: Sequence[ConsumptionRequest]):
        self._requests = list(requests)
        self._next_index = 0

    @classmethod
    def generate(
        cls,
        consumer_pairs: Sequence[EdgeKey],
        n_requests: int,
        rng: np.random.Generator,
        weights: Optional[Sequence[float]] = None,
    ) -> "RequestSequence":
        """Sample ``n_requests`` requests over ``consumer_pairs``.

        ``weights`` (optional, one per consumer pair) skews the draw; the
        default is the paper's uniform choice among consumer pairs.
        """
        if not consumer_pairs:
            raise ValueError("consumer_pairs must be non-empty")
        if n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {n_requests}")
        if weights is not None:
            if len(weights) != len(consumer_pairs):
                raise ValueError("weights must have one entry per consumer pair")
            total = float(sum(weights))
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            probabilities = [weight / total for weight in weights]
        else:
            probabilities = None
        draws = rng.choice(len(consumer_pairs), size=n_requests, p=probabilities)
        requests = [
            ConsumptionRequest(index=i, pair=consumer_pairs[int(choice)])
            for i, choice in enumerate(draws)
        ]
        return cls(requests)

    @classmethod
    def round_robin(cls, consumer_pairs: Sequence[EdgeKey], n_requests: int) -> "RequestSequence":
        """A deterministic round-robin sequence (used by tests and examples)."""
        if not consumer_pairs:
            raise ValueError("consumer_pairs must be non-empty")
        requests = [
            ConsumptionRequest(index=i, pair=consumer_pairs[i % len(consumer_pairs)])
            for i in range(n_requests)
        ]
        return cls(requests)

    # ------------------------------------------------------------------ #
    # Head-of-line interface used by the protocols
    # ------------------------------------------------------------------ #
    def head(self) -> Optional[ConsumptionRequest]:
        """The next unsatisfied request, or ``None`` when all are done."""
        if self._next_index >= len(self._requests):
            return None
        return self._requests[self._next_index]

    def mark_head_satisfied(self, round_index: int) -> ConsumptionRequest:
        """Mark the head request as satisfied during ``round_index`` and advance."""
        head = self.head()
        if head is None:
            raise IndexError("all requests have already been satisfied")
        head.satisfied_round = round_index
        self._next_index += 1
        return head

    def note_head_issued(self, round_index: int) -> None:
        """Record when the head request first became eligible (for wait-time stats)."""
        head = self.head()
        if head is not None and head.issued_round is None:
            head.issued_round = round_index

    def pending_requests(self) -> List[ConsumptionRequest]:
        """Every currently eligible unserved request, head first.

        For the paper's ordered sequence this is simply the tail from the
        head onward; timed sequences (:class:`repro.workloads.queueing.
        TimedRequestSequence`) override it to expose only released, admitted
        requests in queue-policy order.  Windowed protocols use this instead
        of peeking at the raw request list so they never touch a request
        before it arrives.
        """
        return list(self._requests[self._next_index :])

    # ------------------------------------------------------------------ #
    # Dynamic workloads (scenario layer)
    # ------------------------------------------------------------------ #
    def remap_pending(self, mapper) -> int:
        """Rewrite the pairs of not-yet-served requests (demand drift).

        ``mapper`` receives each pending request (the head included) and
        returns a replacement pair, or ``None`` to leave the request alone.
        Satisfied requests are immutable history and are never touched.
        Returns how many requests were remapped.
        """
        remapped = 0
        for request in self._requests[self._next_index:]:
            replacement = mapper(request)
            if replacement is None or replacement == request.pair:
                continue
            request.pair = (
                edge_key(*replacement) if len(replacement) == 2 else group_key(*replacement)
            )
            remapped += 1
        return remapped

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def all_satisfied(self) -> bool:
        return self._next_index >= len(self._requests)

    @property
    def satisfied_count(self) -> int:
        return self._next_index

    @property
    def pending_count(self) -> int:
        return len(self._requests) - self._next_index

    def requests(self) -> List[ConsumptionRequest]:
        return list(self._requests)

    def satisfied_requests(self) -> List[ConsumptionRequest]:
        return [request for request in self._requests if request.satisfied]

    def consumption_counts(self) -> Dict[GroupKey, int]:
        """Satisfied requests per consumer group, keyed by the full group key.

        A multicast request counts under its whole canonical group tuple --
        never folded into its first two nodes -- so pair and group demand on
        overlapping node sets stay distinguishable.
        """
        counts: Dict[GroupKey, int] = {}
        for request in self.satisfied_requests():
            counts[request.pair] = counts.get(request.pair, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._requests)


# ---------------------------------------------------------------------- #
# Average-rate demand (LP / steady-state workload)
# ---------------------------------------------------------------------- #
@dataclass
class DemandMatrix:
    """Average consumption rates ``c(x, y)`` keyed by unordered node pair."""

    rates: Dict[EdgeKey, float] = field(default_factory=dict)

    def rate(self, node_a: NodeId, node_b: NodeId) -> float:
        """The rate ``c(x, y)`` (zero when the pair has no demand)."""
        if node_a == node_b:
            return 0.0
        return self.rates.get(edge_key(node_a, node_b), 0.0)

    def set_rate(self, node_a: NodeId, node_b: NodeId, rate: float) -> None:
        if node_a == node_b:
            raise ValueError("consumption between a node and itself is not meaningful")
        if rate < 0:
            raise ValueError(f"consumption rate must be non-negative, got {rate}")
        key = edge_key(node_a, node_b)
        if rate == 0:
            self.rates.pop(key, None)
        else:
            self.rates[key] = float(rate)

    def pairs(self) -> List[EdgeKey]:
        """All pairs with positive demand."""
        return [pair for pair, rate in self.rates.items() if rate > 0]


def uniform_demand(pairs: Iterable[EdgeKey], rate: float = 1.0) -> DemandMatrix:
    """Equal demand ``rate`` on every listed pair."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    demand = DemandMatrix()
    for node_a, node_b in pairs:
        demand.set_rate(node_a, node_b, rate)
    return demand
