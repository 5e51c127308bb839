"""Reference oracle for the pair-count store.

:class:`DictPairCountLedger` is the nested-dict ledger the count matrix of
:class:`~repro.core.maxmin.ledger.PairCountLedger` replaced: ``C_x(y)`` lives
in ``counts[x][y]`` and ``counts[y][x]``, zero entries are never stored and
nodes keep insertion order.  It offers the node-keyed API the balancer
oracle and the store's property suite use, and nothing else.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable


class DictPairCountLedger:
    """Symmetric ``C_x(y)`` table in nested dicts."""

    def __init__(self, nodes: Optional[Iterable[NodeId]] = None):
        self._counts: Dict[NodeId, Dict[NodeId, int]] = {}
        for node in nodes or []:
            self.ensure_node(node)

    @classmethod
    def from_ledger(cls, ledger) -> "DictPairCountLedger":
        """The same nodes and pair counts as ``ledger`` (any store)."""
        clone = cls(ledger.nodes)
        for (node_a, node_b), count in ledger.nonzero_pairs().items():
            clone.add(node_a, node_b, count)
        return clone

    def ensure_node(self, node: NodeId) -> None:
        self._counts.setdefault(node, {})

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._counts)

    def count(self, node_a: NodeId, node_b: NodeId) -> int:
        if node_a == node_b:
            return 0
        return self._counts.get(node_a, {}).get(node_b, 0)

    def add(self, node_a: NodeId, node_b: NodeId, amount: int = 1) -> int:
        if node_a == node_b:
            raise ValueError(f"cannot add a pair between {node_a!r} and itself")
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        self.ensure_node(node_a)
        self.ensure_node(node_b)
        new_count = self.count(node_a, node_b) + int(amount)
        self._counts[node_a][node_b] = self._counts[node_b][node_a] = new_count
        return new_count

    def remove(self, node_a: NodeId, node_b: NodeId, amount: int = 1) -> int:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        current = self.count(node_a, node_b)
        if current < amount:
            raise ValueError(
                f"cannot remove {amount} pairs between {node_a!r} and {node_b!r}; "
                f"only {current} present"
            )
        new_count = current - int(amount)
        if new_count == 0:
            del self._counts[node_a][node_b], self._counts[node_b][node_a]
        else:
            self._counts[node_a][node_b] = self._counts[node_b][node_a] = new_count
        return new_count

    def partners(self, node: NodeId) -> Dict[NodeId, int]:
        return dict(self._counts.get(node, {}))

    def nonzero_pairs(self) -> Dict[EdgeKey, int]:
        result: Dict[EdgeKey, int] = {}
        for node, partners in self._counts.items():
            for partner, count in partners.items():
                result[edge_key(node, partner)] = count
        return result

    def total_pairs(self) -> int:
        return sum(self.nonzero_pairs().values())

    def copy(self) -> "DictPairCountLedger":
        return DictPairCountLedger.from_ledger(self)
