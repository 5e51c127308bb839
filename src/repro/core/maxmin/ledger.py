"""The global Bell-pair count ledger.

The balancing protocol of Section 4 operates on counts: each node ``x``
maintains ``C_x(y)``, the number of Bell pairs it currently shares with each
other node ``y``, and by symmetry ``C_x(y) = C_y(x)``.
:class:`PairCountLedger` is the authoritative, symmetric count table used by
the count-level simulations; the knowledge models in
:mod:`repro.core.maxmin.knowledge` decide how much of it each node can see.

The table is a dense ``int64`` matrix with the nodes in ``repr`` order; the
balancer and the generation phase work on it in index space, everything
else through the node-keyed methods.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence

import numpy as np

from repro.network.topology import EdgeKey

NodeId = Hashable


class PairCountLedger:
    """Symmetric table of Bell-pair counts ``C_x(y)``.

    Counts are non-negative integers; every mutation keeps the two
    directions consistent (``C_x(y) == C_y(x)`` always holds).

    ``counts[index[x], index[y]]`` is ``C_x(y)``; ``order`` maps rows back
    to nodes.  A node that joins after construction re-lays the matrix out,
    which replaces the ``counts`` array.  ``mutated`` is ``None`` or a list
    every pair mutation appends the two rows of its pair to (a skip-mode
    balancer switches it on and drains it; one such balancer per ledger).
    """

    def __init__(self, nodes: Optional[Iterable[NodeId]] = None):
        self._nodes: List[NodeId] = []
        self.order: List[NodeId] = []
        self.index: Dict[NodeId, int] = {}
        self.counts = np.zeros((0, 0), dtype=np.int64)
        self.mutated: Optional[List[int]] = None
        # (pairs, counts, their rows) of the last add_pairs call.
        self._pair_rows: tuple = (None, None, None)
        self._relayout(list(dict.fromkeys(nodes or [])))

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #
    def _relayout(self, nodes: List[NodeId]) -> None:
        """Lay the matrix out for ``nodes`` (insertion order), keeping every count."""
        order = sorted(nodes, key=repr)
        index = {node: row for row, node in enumerate(order)}
        counts = np.zeros((len(order), len(order)), dtype=np.int64)
        if self.order:
            rows = [index[node] for node in self.order]
            counts[np.ix_(rows, rows)] = self.counts
        self._nodes, self.order, self.index, self.counts = nodes, order, index, counts

    def ensure_node(self, node: NodeId) -> None:
        """Register ``node`` (idempotent)."""
        if node not in self.index:
            self._relayout(self._nodes + [node])

    @property
    def nodes(self) -> List[NodeId]:
        """All nodes, in insertion order."""
        return list(self._nodes)

    # ------------------------------------------------------------------ #
    # Counts
    # ------------------------------------------------------------------ #
    def count(self, node_a: NodeId, node_b: NodeId) -> int:
        """The count ``C_a(b) = C_b(a)`` (zero for unknown nodes or pairs)."""
        row, column = self.index.get(node_a), self.index.get(node_b)
        return 0 if row is None or column is None else self.counts.item(row, column)

    def add(self, node_a: NodeId, node_b: NodeId, amount: int = 1) -> int:
        """Add ``amount`` pairs between the two nodes; returns the new count."""
        if node_a == node_b:
            raise ValueError(f"cannot add a pair between {node_a!r} and itself")
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        self.ensure_node(node_a)
        self.ensure_node(node_b)
        return self._set(node_a, node_b, self.count(node_a, node_b) + int(amount))

    def remove(self, node_a: NodeId, node_b: NodeId, amount: int = 1) -> int:
        """Remove ``amount`` pairs; raises when fewer than ``amount`` exist."""
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        current = self.count(node_a, node_b)
        if current < amount:
            raise ValueError(
                f"cannot remove {amount} pairs between {node_a!r} and {node_b!r}; "
                f"only {current} present"
            )
        return self._set(node_a, node_b, current - int(amount))

    def _set(self, node_a: NodeId, node_b: NodeId, value: int) -> int:
        row, column = self.index[node_a], self.index[node_b]
        self.counts[row, column] = self.counts[column, row] = value
        if self.mutated is not None:
            self.mutated += (row, column)
        return value

    def add_pairs(self, pairs: Sequence[EdgeKey], amounts: np.ndarray) -> int:
        """Add ``amounts[i]`` pairs across ``pairs[i]`` in one scatter-add.

        ``pairs`` must be distinct; returns the number of pairs added.  The
        rows of the last ``pairs`` object are kept, so a caller that passes
        the same sequence every round maps it to rows only once.
        """
        cached_pairs, cached_counts, ends = self._pair_rows
        if cached_pairs is not pairs or cached_counts is not self.counts:
            for node in (node for pair in pairs for node in pair):
                self.ensure_node(node)
            ends = np.array([[self.index[a], self.index[b]] for a, b in pairs], np.intp)
            ends = ends.reshape(-1, 2)
            self._pair_rows = (pairs, self.counts, ends)
        self.counts[ends[:, 0], ends[:, 1]] += amounts
        self.counts[ends[:, 1], ends[:, 0]] += amounts
        if self.mutated is not None:
            self.mutated += ends[amounts.nonzero()[0]].ravel().tolist()
        return int(amounts.sum())

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def partners(self, node: NodeId) -> Dict[NodeId, int]:
        """Nodes with which ``node`` currently shares pairs, and the counts (``repr`` order)."""
        row = self.index.get(node)
        if row is None:
            return {}
        columns = self.counts[row].nonzero()[0]
        partners = [self.order[column] for column in columns.tolist()]
        return dict(zip(partners, self.counts[row, columns].tolist()))

    def nonzero_pairs(self) -> Dict[EdgeKey, int]:
        """Every pair with a positive count, keyed canonically (row-major ``repr`` order)."""
        rows, columns = np.triu(self.counts, 1).nonzero()
        # order is repr-sorted and row < column: (order[row], order[column])
        # is already the canonical edge key.
        order = self.order
        keys = [(order[row], order[column]) for row, column in zip(rows.tolist(), columns.tolist())]
        return dict(zip(keys, self.counts[rows, columns].tolist()))

    def total_pairs(self) -> int:
        """Total number of Bell pairs currently in the network."""
        return int(self.counts.sum()) // 2

    def copy(self) -> "PairCountLedger":
        """A deep copy (used by dry-run planners)."""
        clone = PairCountLedger(self._nodes)
        clone.counts = self.counts.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PairCountLedger(nodes={len(self._nodes)}, pairs={len(self.nonzero_pairs())}, "
            f"total={self.total_pairs()})"
        )
