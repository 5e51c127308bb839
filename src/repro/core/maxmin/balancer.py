"""The max-min distributed balancing algorithm (paper, Section 4).

Every node ``x`` repeatedly looks at its current entanglement partners and
asks: is there a pair of partners ``(y, y')`` such that performing the swap
``y' <- x -> y`` is *preferable*?  The paper's condition is

``C_y(y') + 1  <=  min( C_x(y) - D_{x,y} ,  C_x(y') - D_{x,y'} )``

i.e. the swap is allowed only when the recipient pair, even after gaining a
pair, would still be no better off than either donor pair is after paying
its distillation cost.  Among preferable candidates the node performs the
one with minimal ``C_y(y')`` (other tie-break policies live in
:mod:`repro.core.maxmin.policy`).

Count accounting for one executed swap (consistent with equations (3)/(4)):

* ``C_x(y)``  decreases by ``D_{x,y}``  (the raw pairs distilled and swapped),
* ``C_x(y')`` decreases by ``D_{x,y'}``,
* ``C_y(y')`` increases by 1 (the produced pair),

and the swap counts as **one** swap operation toward the overhead metric.

The engine is array-native.  It mirrors the ledger into a dense ``int64``
count matrix whose rows and columns are the nodes in ``repr`` order, plus
the matching headroom matrix ``count - D``, kept current through
:meth:`PairCountLedger.subscribe`.  A node's turn is one vector step: its
headroom row gives the eligible donors (headroom >= 1), the recipient
sub-block over those donors is masked with ``recipient < min(h_y, h_y')``
on the upper triangle, and the paper's rule is a row-major ``argmin``.
Because the donors are in ``repr`` order, row-major order *is* the order of
``repr(produced_pair)``, so the argmin reproduces the
``(recipient_count, repr(produced_pair))`` tie-break exactly.  Other
policies and knowledge models receive the same candidate list, in the same
order, as a per-pair enumeration would produce.

With ``skip_idle=True`` (the ``incremental`` engine) a node whose last turn
found no candidate is skipped until a mutation touches its row or the
block of its donors; the result is identical, only fewer turns are
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.knowledge import GlobalKnowledge, KnowledgeModel
from repro.core.maxmin.ledger import PairCountLedger
from repro.core.maxmin.policy import BalancingPolicy, MinRecipientCountPolicy, SwapCandidate
from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable

#: Masked-out value in the argmin over a recipient block.
_NO_CANDIDATE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SwapRecord:
    """One executed swap, for traces and the overhead metric."""

    repeater: NodeId
    left: NodeId
    right: NodeId
    round_index: int

    @property
    def produced_pair(self) -> EdgeKey:
        return edge_key(self.left, self.right)


class MaxMinBalancer:
    """Executes the balancing protocol over a :class:`PairCountLedger`.

    Parameters
    ----------
    ledger:
        The authoritative pair-count table.
    overheads:
        Per-pair distillation overheads ``D`` (a bare float is accepted and
        treated as a uniform overhead).  Non-integer values are rounded up
        when consuming counts, since counts are integers.
    policy:
        Candidate-selection policy; defaults to the paper's minimal
        recipient count rule.
    knowledge:
        What each node believes about remote counts; defaults to the
        paper's global knowledge.
    swaps_per_node_per_round:
        The "identical rate" at which every node performs the swapping
        process (the paper reports the results are insensitive to it).
    rng:
        Random stream for policies that need randomness.
    keep_records:
        Whether to retain a :class:`SwapRecord` per executed swap (required
        by some analyses; counters are always maintained).
    skip_idle:
        Skip the turn of a node whose last evaluation found no candidate
        and whose counts (its row, and the pairs among its donors) have not
        changed since.  Applies under global knowledge only; the swap
        sequence is the same either way.
    """

    def __init__(
        self,
        ledger: PairCountLedger,
        overheads: Union[PairOverheads, float] = 1.0,
        policy: Optional[BalancingPolicy] = None,
        knowledge: Optional[KnowledgeModel] = None,
        swaps_per_node_per_round: int = 1,
        rng: Optional[np.random.Generator] = None,
        keep_records: bool = True,
        skip_idle: bool = False,
    ):
        if swaps_per_node_per_round <= 0:
            raise ValueError(
                f"swaps_per_node_per_round must be positive, got {swaps_per_node_per_round}"
            )
        self.ledger = ledger
        if isinstance(overheads, (int, float)):
            overheads = PairOverheads.uniform(distillation=float(overheads))
        self.overheads = overheads
        self.policy = policy if policy is not None else MinRecipientCountPolicy()
        self.swaps_per_node_per_round = int(swaps_per_node_per_round)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.keep_records = keep_records
        self._skip_idle = bool(skip_idle)
        self.swaps_performed = 0
        self.swaps_by_node: Dict[NodeId, int] = {}
        self.records: List[SwapRecord] = []
        self._cost_cache: Dict[EdgeKey, int] = {}
        # Uniform overheads collapse every distillation cost to one int.
        self._uniform_cost: Optional[int] = (
            None
            if overheads.distillation
            else int(math.ceil(overheads.default_distillation))
        )
        self._upper: Dict[int, np.ndarray] = {}
        self._build_mirror()
        self.knowledge = knowledge if knowledge is not None else GlobalKnowledge(ledger)
        ledger.subscribe(self._on_mutation)

    # The knowledge model is settable after construction (the experiment
    # runner swaps in gossip knowledge that way).
    @property
    def knowledge(self) -> KnowledgeModel:
        return self._knowledge

    @knowledge.setter
    def knowledge(self, model: KnowledgeModel) -> None:
        self._knowledge = model
        # Recipient blocks come straight from the count matrix only under
        # *exactly* GlobalKnowledge over this ledger: a subclass may
        # override recipient_count.
        self._global = type(model) is GlobalKnowledge and model.ledger is self.ledger
        self._skipping = self._skip_idle and self._global
        self._dirty[:] = True
        self._mutated.clear()

    def detach(self) -> None:
        """Stop observing the ledger (the engine must not be used afterwards)."""
        self.ledger.unsubscribe(self._on_mutation)

    # ------------------------------------------------------------------ #
    # The dense mirror of the ledger
    # ------------------------------------------------------------------ #
    def _build_mirror(self) -> None:
        nodes = sorted(self.ledger.nodes, key=repr)
        index = {node: position for position, node in enumerate(nodes)}
        size = len(nodes)
        counts = np.zeros((size, size), dtype=np.int64)
        for node in nodes:
            row = index[node]
            for partner, count in self.ledger.partner_view(node).items():
                counts[row, index[partner]] = count
        costs = np.full(
            (size, size), int(math.ceil(self.overheads.default_distillation)), dtype=np.int64
        )
        for node_a, node_b in self.overheads.distillation:
            if node_a in index and node_b in index and node_a != node_b:
                cost = self.distillation_cost(node_a, node_b)
                costs[index[node_a], index[node_b]] = costs[index[node_b], index[node_a]] = cost
        self._nodes = nodes
        self._index = index
        self._counts = counts
        self._costs = costs
        self._headroom = counts - costs
        # Nodes whose candidate set may be non-empty, and the ends of the
        # pairs mutated since the marks were last brought up to date
        # (``a0, b0, a1, b1, ...``).
        self._dirty = np.ones(size, dtype=bool)
        self._mutated: List[int] = []

    def _on_mutation(self, node_a: NodeId, node_b: NodeId, old: int, new: int) -> None:
        index = self._index
        row_a = index.get(node_a)
        row_b = index.get(node_b)
        if row_a is None or row_b is None:
            self._build_mirror()  # a node joined the ledger after construction
            return
        counts = self._counts
        counts[row_a, row_b] = counts[row_b, row_a] = new
        cost = self._uniform_cost
        if cost is None:
            cost = int(self._costs[row_a, row_b])
        self._headroom[row_a, row_b] = self._headroom[row_b, row_a] = new - cost
        if self._skipping:
            self._mutated += (row_a, row_b)

    def _mark_dirty(self) -> None:
        """Fold the pending mutations into the dirty marks.

        A mutation of ``(a, b)`` can change the candidates of ``a`` and ``b``
        and of every ``x`` that can donate to both (headroom >= 1 towards
        ``a`` and ``b``): only there is ``(a, b)`` a produced pair.  The
        headroom ``x`` has towards ``a`` changes only by a mutation of
        ``(x, a)``, which marks ``x`` itself, so reading it now is exact.
        """
        ends = np.array(self._mutated, dtype=np.intp)
        self._mutated.clear()
        donors = self._headroom[ends] > 0
        self._dirty |= (donors[0::2] & donors[1::2]).any(axis=0)
        self._dirty[ends] = True

    # ------------------------------------------------------------------ #
    # Overhead helpers
    # ------------------------------------------------------------------ #
    def distillation_cost(self, node_a: NodeId, node_b: NodeId) -> int:
        """Integer count cost of using one ``(node_a, node_b)`` pair."""
        if self._uniform_cost is not None:
            return self._uniform_cost
        key = edge_key(node_a, node_b)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = int(math.ceil(self.overheads.distillation_for(node_a, node_b)))
            self._cost_cache[key] = cost
        return cost

    def can_consume(self, node_a: NodeId, node_b: NodeId) -> bool:
        """Whether a consumption of pair ``(node_a, node_b)`` can be served right now."""
        return self.ledger.count(node_a, node_b) >= self.distillation_cost(node_a, node_b)

    def consume(self, node_a: NodeId, node_b: NodeId) -> int:
        """Serve one consumption: remove ``D`` raw pairs; returns pairs removed."""
        cost = self.distillation_cost(node_a, node_b)
        self.ledger.remove(node_a, node_b, cost)
        return cost

    def can_consume_sessions(self, sessions) -> bool:
        """Whether every Bell-pair session in ``sessions`` is affordable now.

        ``sessions`` is a list of canonical node pairs (e.g. from
        :func:`repro.protocols.fusion.group_sessions`); a group consumption
        is servable only when *all* of its sessions hold enough pairs.  A
        repeated pair must be affordable that many times over.  The
        single-session case is exactly :meth:`can_consume`.
        """
        needed: Dict[EdgeKey, int] = {}
        for node_a, node_b in sessions:
            key = edge_key(node_a, node_b)
            needed[key] = needed.get(key, 0) + self.distillation_cost(node_a, node_b)
        return all(
            self.ledger.count(key[0], key[1]) >= amount for key, amount in needed.items()
        )

    def consume_sessions(self, sessions) -> int:
        """Serve a group consumption: remove ``D`` pairs per session.

        Returns total pairs removed.  Callers must have checked
        :meth:`can_consume_sessions`; a shortfall raises mid-way like
        :meth:`consume` would, leaving earlier sessions consumed.
        """
        removed = 0
        for node_a, node_b in sessions:
            removed += self.consume(node_a, node_b)
        return removed

    # ------------------------------------------------------------------ #
    # Candidate evaluation (the paper's preferable condition)
    # ------------------------------------------------------------------ #
    def is_preferable(self, repeater: NodeId, left: NodeId, right: NodeId) -> bool:
        """Evaluate the paper's condition for ``left <- repeater -> right``."""
        if left == right or repeater in (left, right):
            return False
        left_slack = self.ledger.count(repeater, left) - self.distillation_cost(repeater, left)
        right_slack = self.ledger.count(repeater, right) - self.distillation_cost(repeater, right)
        if left_slack < 0 or right_slack < 0:
            return False
        recipient = self.knowledge.recipient_count(repeater, left, right)
        return recipient is not None and recipient + 1 <= min(left_slack, right_slack)

    def _turn_block(
        self, repeater: NodeId, row: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(donors, recipient, preferable)`` for one turn, or ``None`` when empty.

        ``donors`` are the matrix indices of the partners with headroom
        >= 1, ascending (= ``repr`` order); ``preferable[r, c]`` marks the
        candidates ``donors[r] <- repeater -> donors[c]``, upper triangle
        only, with believed produced-pair count ``recipient[r, c]``.
        """
        headroom = self._headroom[row]
        donors = (headroom > 0).nonzero()[0]
        size = donors.size
        if size < 2:
            return None
        donor_headroom = headroom.take(donors)
        if self._global:
            upper = self._upper.get(size)
            if upper is None:
                upper = self._upper[size] = np.triu(np.ones((size, size), dtype=bool), 1)
            recipient = self._counts.take(donors, 0).take(donors, 1)
            preferable = recipient < np.minimum.outer(donor_headroom, donor_headroom)
            preferable &= upper
        else:
            recipient, known = self._believed_block(repeater, donors)
            preferable = recipient < np.minimum.outer(donor_headroom, donor_headroom)
            preferable &= known
        return donors, recipient, preferable

    def _believed_block(
        self, repeater: NodeId, donors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Recipient counts as ``repeater`` believes them, and which are known."""
        size = donors.size
        recipient = np.zeros((size, size), dtype=np.int64)
        known = np.zeros((size, size), dtype=bool)
        nodes = [self._nodes[position] for position in donors.tolist()]
        recipient_count = self.knowledge.recipient_count
        for r in range(size):
            for c in range(r + 1, size):
                believed = recipient_count(repeater, nodes[r], nodes[c])
                if believed is not None:
                    recipient[r, c] = believed
                    known[r, c] = True
        return recipient, known

    def _candidate(
        self, repeater: NodeId, row: int, donors: np.ndarray, recipient: np.ndarray, r: int, c: int
    ) -> SwapCandidate:
        left, right = int(donors[r]), int(donors[c])
        return SwapCandidate(
            repeater=repeater,
            left=self._nodes[left],
            right=self._nodes[right],
            recipient_count=int(recipient[r, c]),
            left_count=int(self._counts[row, left]),
            right_count=int(self._counts[row, right]),
        )

    def preferable_candidates(self, repeater: NodeId) -> List[SwapCandidate]:
        """All preferable swaps ``repeater`` could perform right now.

        Ordered by ``(repr(left), repr(right))`` with ``left`` before
        ``right`` in ``repr`` order.
        """
        row = self._index.get(repeater)
        block = None if row is None else self._turn_block(repeater, row)
        if block is None:
            return []
        donors, recipient, preferable = block
        rows, cols = np.nonzero(preferable)
        return [
            self._candidate(repeater, row, donors, recipient, r, c)
            for r, c in zip(rows.tolist(), cols.tolist())
        ]

    def _choose(self, repeater: NodeId) -> Optional[SwapCandidate]:
        """The swap ``repeater``'s policy picks this turn (``None``: nothing to do)."""
        row = self._index.get(repeater)
        if row is None:
            return None
        block = self._turn_block(repeater, row)
        if block is not None:
            donors, recipient, preferable = block
            policy = self.policy
            if type(policy) is MinRecipientCountPolicy and not policy.randomize_ties:
                # Row-major argmin == min by (recipient, repr(produced pair)).
                flat = int(np.where(preferable, recipient, _NO_CANDIDATE).argmin())
                r, c = divmod(flat, donors.size)
                if preferable[r, c]:
                    return self._candidate(repeater, row, donors, recipient, r, c)
            else:
                rows, cols = np.nonzero(preferable)
                if rows.size:
                    candidates = [
                        self._candidate(repeater, row, donors, recipient, r, c)
                        for r, c in zip(rows.tolist(), cols.tolist())
                    ]
                    return policy.choose(candidates, self.rng)
        self._dirty[row] = False  # no candidate: idle until a mutation marks it
        return None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def perform_swap(self, candidate: SwapCandidate, round_index: int = 0) -> SwapRecord:
        """Execute ``candidate``: update the ledger and the swap counters."""
        self.ledger.remove(candidate.repeater, candidate.left, self.distillation_cost(candidate.repeater, candidate.left))
        self.ledger.remove(candidate.repeater, candidate.right, self.distillation_cost(candidate.repeater, candidate.right))
        self.ledger.add(candidate.left, candidate.right, 1)
        self.swaps_performed += 1
        self.swaps_by_node[candidate.repeater] = self.swaps_by_node.get(candidate.repeater, 0) + 1
        record = SwapRecord(
            repeater=candidate.repeater,
            left=candidate.left,
            right=candidate.right,
            round_index=round_index,
        )
        if self.keep_records:
            self.records.append(record)
        return record

    def run_node(self, repeater: NodeId, round_index: int = 0) -> List[SwapRecord]:
        """Give ``repeater`` its turn: up to ``swaps_per_node_per_round`` preferable swaps."""
        performed: List[SwapRecord] = []
        for _ in range(self.swaps_per_node_per_round):
            choice = self._choose(repeater)
            if choice is None:
                break
            performed.append(self.perform_swap(choice, round_index))
        return performed

    def run_round(
        self,
        round_index: int = 0,
        node_order: Optional[Sequence[NodeId]] = None,
        refresh_knowledge: bool = True,
    ) -> List[SwapRecord]:
        """Run one full balancing round over every node.

        Nodes act sequentially within the round (the paper's algorithm is
        asynchronous; sequential execution with a rotating order is the
        standard discrete realisation).  ``node_order`` defaults to the
        ledger's node order rotated by the round index so no node is
        permanently advantaged.
        """
        if refresh_knowledge:
            self.knowledge.refresh(round_index, self.rng)
        nodes = list(node_order) if node_order is not None else self._rotated_nodes(round_index)
        performed: List[SwapRecord] = []
        if not self._skipping:
            for node in nodes:
                performed.extend(self.run_node(node, round_index))
            return performed
        for node in nodes:
            if self._mutated:
                self._mark_dirty()
            row = self._index.get(node)
            if row is not None and self._dirty[row]:
                performed.extend(self.run_node(node, round_index))
        return performed

    def _rotated_nodes(self, round_index: int) -> List[NodeId]:
        nodes = self.ledger.nodes
        if not nodes:
            return []
        shift = round_index % len(nodes)
        return nodes[shift:] + nodes[:shift]

    # ------------------------------------------------------------------ #
    # Convergence check (used by tests and the fairness analysis)
    # ------------------------------------------------------------------ #
    def has_preferable_swap(self) -> bool:
        """Whether any node still has a preferable swap candidate."""
        if self._mutated:
            self._mark_dirty()
        for node in self.ledger.nodes:
            row = self._index.get(node)
            if row is None or (self._skipping and not self._dirty[row]):
                continue
            block = self._turn_block(node, row)
            if block is not None and block[2].any():
                return True
            self._dirty[row] = False
        return False

    def balance_to_convergence(self, max_rounds: int = 10_000) -> int:
        """With generation and consumption frozen, swap until no candidate remains.

        Returns the number of rounds used.  The paper argues the resulting
        allocation is max-min fair; the property-based tests check that no
        count can be increased without decreasing an already-smaller one.
        """
        for round_index in range(max_rounds):
            performed = self.run_round(round_index)
            if not performed:
                return round_index
        raise RuntimeError(f"balancing did not converge within {max_rounds} rounds")
