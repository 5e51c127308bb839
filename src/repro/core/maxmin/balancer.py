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

The engine is array-native: it works in index space on the ledger's own
count matrix, whose rows and columns are the nodes in ``repr`` order.  A
node's turn is one vector step: its headroom row ``counts[x] - D`` gives
the eligible donors (headroom >= 1), the recipient sub-block over those
donors is masked with ``recipient < min(h_y, h_y')`` on the upper triangle,
and the paper's rule is a row-major ``argmin``.  Because the donors are in
``repr`` order, row-major order *is* the order of ``repr(produced_pair)``,
so the argmin reproduces the ``(recipient_count, repr(produced_pair))``
tie-break exactly, and the chosen swap is six writes to the matrix.  Other
policies and knowledge models receive the same candidate list, in the same
order, as a per-pair enumeration would produce.

With ``skip_idle=True`` (the ``incremental`` engine) a node whose last turn
found no candidate is skipped until a mutation touches its row or the
block of its donors; the result is identical, only fewer turns are
evaluated.  The mutations reach it through the ledger's mutated-index log
(:attr:`PairCountLedger.mutated`), which is on only while skipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

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
        # Uniform overheads collapse every distillation cost to one int.
        self._uniform_cost: Optional[int] = (
            None
            if overheads.distillation
            else int(math.ceil(overheads.default_distillation))
        )
        self._lower: Dict[int, np.ndarray] = {}  # block size -> lower triangle + diagonal
        self._log: Optional[List[int]] = None  # the skip mode's log, while the ledger's
        self._counts: Optional[np.ndarray] = None
        self._sync()
        self.knowledge = knowledge if knowledge is not None else GlobalKnowledge(ledger)

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
        if self._skipping:
            self._log = self.ledger.mutated = []
        elif self._log is not None:
            if self.ledger.mutated is self._log:
                self.ledger.mutated = None
            self._log = None
        self._dirty[:] = True

    # ------------------------------------------------------------------ #
    # The ledger's layout
    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        """Pick up a re-laid-out count matrix (a node joined the ledger)."""
        counts = self.ledger.counts
        if counts is self._counts:
            return
        self._counts = counts
        self._nodes = self.ledger.order
        self._index = self.ledger.index
        size = len(self._nodes)
        # The integer cost D of every pair, in the matrix's layout.
        costs = np.full(
            (size, size), int(math.ceil(self.overheads.default_distillation)), dtype=np.int64
        )
        for node_a, node_b in self.overheads.distillation:
            row_a, row_b = self._index.get(node_a), self._index.get(node_b)
            if row_a is not None and row_b is not None and node_a != node_b:
                costs[row_a, row_b] = costs[row_b, row_a] = self.distillation_cost(node_a, node_b)
        self._costs = costs
        # Nodes whose candidate set may be non-empty; the log's indices
        # belong to the old layout, and every mark is set anyway.
        self._dirty = np.ones(size, dtype=bool)
        if self._log is not None:
            self._log.clear()

    def _mark_dirty(self) -> None:
        """Fold the pending mutations into the dirty marks.

        A mutation of ``(a, b)`` can change the candidates of ``a`` and ``b``
        and of every ``x`` that can donate to both (headroom >= 1 towards
        ``a`` and ``b``): only there is ``(a, b)`` a produced pair.  The
        headroom ``x`` has towards ``a`` changes only by a mutation of
        ``(x, a)``, which marks ``x`` itself, so reading it now is exact.
        """
        ends = np.array(self._log, dtype=np.intp)
        self._log.clear()
        donors = self._counts[ends] > self._costs[ends]
        self._dirty |= (donors[0::2] & donors[1::2]).any(axis=0)
        self._dirty[ends] = True

    # ------------------------------------------------------------------ #
    # Overhead helpers
    # ------------------------------------------------------------------ #
    def distillation_cost(self, node_a: NodeId, node_b: NodeId) -> int:
        """Integer count cost of using one ``(node_a, node_b)`` pair."""
        if self._uniform_cost is not None:
            return self._uniform_cost
        return int(math.ceil(self.overheads.distillation_for(node_a, node_b)))

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
        """``(donors, recipient, blocked)`` for one turn, or ``None`` when empty.

        ``donors`` are the matrix indices of the partners with headroom
        >= 1, ascending (= ``repr`` order); the candidates are the cells
        ``donors[r] <- repeater -> donors[c]`` that ``blocked`` leaves
        clear, all on the upper triangle, with believed produced-pair count
        ``recipient[r, c]``.  ``recipient`` is a fresh array.
        """
        headroom = self._counts[row] - self._costs[row]
        donors = (headroom > 0).nonzero()[0]
        size = donors.size
        if size < 2:
            return None
        donor_headroom = headroom.take(donors)
        if self._global:
            recipient = self._counts.take(donors, 0).take(donors, 1)
            lower = self._lower.get(size)
            if lower is None:
                lower = self._lower[size] = ~np.triu(np.ones((size, size), dtype=bool), 1)
        else:
            recipient, lower = self._believed_block(repeater, donors)
        # Not preferable: C_y(y') + 1 > min(h_y, h_y').
        blocked = recipient >= np.minimum(donor_headroom[:, None], donor_headroom)
        blocked |= lower
        return donors, recipient, blocked

    def _believed_block(
        self, repeater: NodeId, donors: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Recipient counts as ``repeater`` believes them, and which are unknown.

        Only the upper triangle is filled; the rest counts as unknown.
        """
        size = donors.size
        recipient = np.zeros((size, size), dtype=np.int64)
        unknown = np.ones((size, size), dtype=bool)
        nodes = [self._nodes[position] for position in donors.tolist()]
        recipient_count = self.knowledge.recipient_count
        for r in range(size):
            for c in range(r + 1, size):
                believed = recipient_count(repeater, nodes[r], nodes[c])
                if believed is not None:
                    recipient[r, c] = believed
                    unknown[r, c] = False
        return recipient, unknown

    def _candidates(
        self, repeater: NodeId, row: int, block: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> List[SwapCandidate]:
        donors, recipient, blocked = block
        rows, cols = np.nonzero(~blocked)
        indices = donors.tolist()
        counts = self._counts[row]
        return [
            SwapCandidate(
                repeater=repeater,
                left=self._nodes[indices[r]],
                right=self._nodes[indices[c]],
                recipient_count=int(recipient[r, c]),
                left_count=int(counts[indices[r]]),
                right_count=int(counts[indices[c]]),
            )
            for r, c in zip(rows.tolist(), cols.tolist())
        ]

    def preferable_candidates(self, repeater: NodeId) -> List[SwapCandidate]:
        """All preferable swaps ``repeater`` could perform right now.

        Ordered by ``(repr(left), repr(right))`` with ``left`` before
        ``right`` in ``repr`` order.
        """
        self._sync()
        row = self._index.get(repeater)
        block = None if row is None else self._turn_block(repeater, row)
        return [] if block is None else self._candidates(repeater, row, block)

    def _choose(self, repeater: NodeId, row: int) -> Optional[Tuple[int, int]]:
        """The donor indices ``(left, right)`` of the swap the policy picks (``None``: no swap)."""
        block = self._turn_block(repeater, row)
        if block is not None:
            policy = self.policy
            if type(policy) is MinRecipientCountPolicy and not policy.randomize_ties:
                # Row-major argmin == min by (recipient, repr(produced pair)).
                donors, recipient, blocked = block
                recipient[blocked] = _NO_CANDIDATE
                flat = int(recipient.argmin())
                if recipient.item(flat) != _NO_CANDIDATE:
                    r, c = divmod(flat, donors.size)
                    return donors.item(r), donors.item(c)
            else:
                candidates = self._candidates(repeater, row, block)
                if candidates:
                    choice = policy.choose(candidates, self.rng)
                    if choice is not None:
                        return self._index[choice.left], self._index[choice.right]
                    return None
        self._dirty[row] = False  # no candidate: idle until a mutation marks it
        return None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _swap(self, repeater: NodeId, row: int, left: int, right: int, round_index: int) -> None:
        """Execute ``left <- repeater -> right`` on the matrix and count it."""
        counts, costs = self._counts, self._costs
        counts[row, left] = counts[left, row] = counts[row, left] - costs[row, left]
        counts[row, right] = counts[right, row] = counts[row, right] - costs[row, right]
        counts[left, right] = counts[right, left] = counts[left, right] + 1
        if self.ledger.mutated is not None:
            self.ledger.mutated += (row, left, row, right, left, right)
        self.swaps_performed += 1
        self.swaps_by_node[repeater] = self.swaps_by_node.get(repeater, 0) + 1
        if self.keep_records:
            self.records.append(
                SwapRecord(repeater, self._nodes[left], self._nodes[right], round_index)
            )

    def _turn(self, repeater: NodeId, row: int, round_index: int) -> int:
        performed = 0
        for _ in range(self.swaps_per_node_per_round):
            choice = self._choose(repeater, row)
            if choice is None:
                break
            self._swap(repeater, row, choice[0], choice[1], round_index)
            performed += 1
        return performed

    def run_node(self, repeater: NodeId, round_index: int = 0) -> int:
        """Give ``repeater`` its turn: up to ``swaps_per_node_per_round`` preferable swaps.

        Returns how many swaps it performed.
        """
        self._sync()
        row = self._index.get(repeater)
        return 0 if row is None else self._turn(repeater, row, round_index)

    def run_round(self, round_index: int = 0) -> int:
        """Run one full balancing round over every node; returns the swaps performed.

        Nodes act sequentially within the round (the paper's algorithm is
        asynchronous; sequential execution with a rotating order is the
        standard discrete realisation), in the ledger's node order rotated
        by the round index so no node is permanently advantaged.
        """
        self.knowledge.refresh(round_index, self.rng)
        self._sync()
        index, dirty, skipping = self._index, self._dirty, self._skipping
        performed = 0
        for node in self._rotated_nodes(round_index):
            if self._log:  # only ever non-empty while skipping
                self._mark_dirty()
            row = index.get(node)
            if row is not None and (dirty[row] or not skipping):
                performed += self._turn(node, row, round_index)
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
        self._sync()
        if self._log:
            self._mark_dirty()
        for node in self.ledger.nodes:
            row = self._index[node]
            if self._skipping and not self._dirty[row]:
                continue
            block = self._turn_block(node, row)
            if block is not None and not block[2].all():
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
            if not self.run_round(round_index):
                return round_index
        raise RuntimeError(f"balancing did not converge within {max_rounds} rounds")
