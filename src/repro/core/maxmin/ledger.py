"""The global Bell-pair count ledger.

The balancing protocol of Section 4 operates on counts: each node ``x``
maintains ``C_x(y)``, the number of Bell pairs it currently shares with each
other node ``y``, and by symmetry ``C_x(y) = C_y(x)``.
:class:`PairCountLedger` is the authoritative, symmetric count table used by
the count-level simulations; the knowledge models in
:mod:`repro.core.maxmin.knowledge` decide how much of it each node can see.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.network.topology import EdgeKey, GroupKey, edge_key, group_key

NodeId = Hashable

#: Signature of a mutation listener: ``(node_a, node_b, old_count, new_count)``.
MutationListener = Callable[[NodeId, NodeId, int, int], None]

#: Signature of a group-keyed mutation listener: ``(group, old_count, new_count)``.
#: Pair mutations arrive with the size-2 canonical group key; GHZ mutations
#: with the full k-party key.
GroupMutationListener = Callable[[GroupKey, int, int], None]


class PairCountLedger:
    """Symmetric table of Bell-pair counts ``C_x(y)``.

    Counts are non-negative integers; every mutation keeps the two
    directions consistent (``C_x(y) == C_y(x)`` always holds).

    Observers (e.g. the incremental balancing engine) can :meth:`subscribe`
    to be notified after every :meth:`add`/:meth:`remove`, which is what
    makes O(affected) candidate invalidation possible without the ledger
    knowing anything about balancing.

    Beyond pairs, the ledger also tracks *group* (GHZ) states: counts keyed
    by a canonical :data:`~repro.network.topology.GroupKey` of three or more
    members.  Size-2 groups are not stored separately -- the group API
    (:meth:`add_group`, :meth:`remove_group`, :meth:`group_count`) dispatches
    them straight to the pair table, so the pair-keyed API remains the
    authoritative view for Bell pairs and group-size-2 behavior is
    bit-identical to the pair path.
    """

    def __init__(self, nodes: Optional[Iterable[NodeId]] = None):
        self._counts: Dict[NodeId, Dict[NodeId, int]] = {}
        self._group_counts: Dict[GroupKey, int] = {}
        self._group_membership: Dict[NodeId, Set[GroupKey]] = {}
        self._listeners: List[MutationListener] = []
        self._group_listeners: List[GroupMutationListener] = []
        for node in nodes or []:
            self.ensure_node(node)

    # ------------------------------------------------------------------ #
    # Mutation listeners
    # ------------------------------------------------------------------ #
    def subscribe(self, listener: MutationListener) -> None:
        """Register ``listener`` to be called after every count mutation."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: MutationListener) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def subscribe_groups(self, listener: GroupMutationListener) -> None:
        """Register a group-keyed listener (sees pair and GHZ mutations alike)."""
        if listener not in self._group_listeners:
            self._group_listeners.append(listener)

    def unsubscribe_groups(self, listener: GroupMutationListener) -> None:
        """Remove a previously subscribed group listener (no-op if absent)."""
        if listener in self._group_listeners:
            self._group_listeners.remove(listener)

    def _notify(self, node_a: NodeId, node_b: NodeId, old_count: int, new_count: int) -> None:
        for listener in self._listeners:
            listener(node_a, node_b, old_count, new_count)
        if self._group_listeners:
            # edge_key inlined (this runs once per mutation); a stored pair
            # never has equal ends, so its self-loop check is moot here.
            key = (node_a, node_b) if repr(node_a) <= repr(node_b) else (node_b, node_a)
            for group_listener in self._group_listeners:
                group_listener(key, old_count, new_count)

    def _notify_group(self, group: GroupKey, old_count: int, new_count: int) -> None:
        for group_listener in self._group_listeners:
            group_listener(group, old_count, new_count)

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #
    def ensure_node(self, node: NodeId) -> None:
        """Register ``node`` (idempotent)."""
        self._counts.setdefault(node, {})

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._counts)

    # ------------------------------------------------------------------ #
    # Counts
    # ------------------------------------------------------------------ #
    def count(self, node_a: NodeId, node_b: NodeId) -> int:
        """The count ``C_a(b) = C_b(a)`` (zero for unknown nodes or pairs)."""
        if node_a == node_b:
            return 0
        return self._counts.get(node_a, {}).get(node_b, 0)

    def add(self, node_a: NodeId, node_b: NodeId, amount: int = 1) -> int:
        """Add ``amount`` pairs between the two nodes; returns the new count."""
        if node_a == node_b:
            raise ValueError(f"cannot add a pair between {node_a!r} and itself")
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        self.ensure_node(node_a)
        self.ensure_node(node_b)
        old_count = self.count(node_a, node_b)
        new_count = old_count + int(amount)
        self._counts[node_a][node_b] = new_count
        self._counts[node_b][node_a] = new_count
        if self._listeners or self._group_listeners:
            self._notify(node_a, node_b, old_count, new_count)
        return new_count

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
        new_count = current - int(amount)
        if new_count == 0:
            self._counts[node_a].pop(node_b, None)
            self._counts[node_b].pop(node_a, None)
        else:
            self._counts[node_a][node_b] = new_count
            self._counts[node_b][node_a] = new_count
        if self._listeners or self._group_listeners:
            self._notify(node_a, node_b, current, new_count)
        return new_count

    # ------------------------------------------------------------------ #
    # Group (GHZ) counts -- size-2 groups dispatch to the pair table
    # ------------------------------------------------------------------ #
    def group_count(self, *nodes: NodeId) -> int:
        """The count of k-party GHZ states over ``nodes`` (pairs for k=2)."""
        key = group_key(*nodes)
        if len(key) == 2:
            return self.count(key[0], key[1])
        return self._group_counts.get(key, 0)

    def add_group(self, nodes: Iterable[NodeId], amount: int = 1) -> int:
        """Add ``amount`` GHZ states over ``nodes``; returns the new count.

        A size-2 group is exactly a Bell pair: the mutation lands in the
        pair table and notifies pair listeners, keeping the two APIs one
        authoritative store.
        """
        key = group_key(*nodes)
        if len(key) == 2:
            return self.add(key[0], key[1], amount)
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        for node in key:
            self.ensure_node(node)
        old_count = self._group_counts.get(key, 0)
        new_count = old_count + int(amount)
        self._group_counts[key] = new_count
        for node in key:
            self._group_membership.setdefault(node, set()).add(key)
        if self._group_listeners:
            self._notify_group(key, old_count, new_count)
        return new_count

    def remove_group(self, nodes: Iterable[NodeId], amount: int = 1) -> int:
        """Remove ``amount`` GHZ states; raises when fewer than ``amount`` exist."""
        key = group_key(*nodes)
        if len(key) == 2:
            return self.remove(key[0], key[1], amount)
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        current = self._group_counts.get(key, 0)
        if current < amount:
            raise ValueError(
                f"cannot remove {amount} group states over {key!r}; only {current} present"
            )
        new_count = current - int(amount)
        if new_count == 0:
            self._group_counts.pop(key, None)
            for node in key:
                members = self._group_membership.get(node)
                if members is not None:
                    members.discard(key)
                    if not members:
                        self._group_membership.pop(node, None)
        else:
            self._group_counts[key] = new_count
        if self._group_listeners:
            self._notify_group(key, current, new_count)
        return new_count

    def nonzero_groups(self) -> Dict[GroupKey, int]:
        """Every group with a positive count: pairs (as size-2 keys) plus GHZ."""
        result: Dict[GroupKey, int] = dict(self.nonzero_pairs())
        result.update(self._group_counts)
        return result

    def groups_involving(self, node: NodeId) -> Dict[GroupKey, int]:
        """GHZ groups (size >= 3) that include ``node``, with counts."""
        return {
            key: self._group_counts[key]
            for key in self._group_membership.get(node, ())
            if key in self._group_counts
        }

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def partners(self, node: NodeId) -> Dict[NodeId, int]:
        """Nodes with which ``node`` currently shares pairs, and the counts."""
        return {partner: count for partner, count in self._counts.get(node, {}).items() if count > 0}

    def partner_view(self, node: NodeId) -> Dict[NodeId, int]:
        """Live read-only view of :meth:`partners` (no copy — do not mutate).

        Zero-count entries are never stored, so the view always matches
        :meth:`partners`; hot paths (the incremental balancer) use it to
        avoid rebuilding a dict per lookup.
        """
        return self._counts.get(node, {})

    def entanglement_degree(self, node: NodeId) -> int:
        """Number of distinct partners ``node`` shares at least one pair with."""
        return len(self.partners(node))

    def nonzero_pairs(self) -> Dict[EdgeKey, int]:
        """Every pair with a positive count, keyed canonically."""
        result: Dict[EdgeKey, int] = {}
        for node, partners in self._counts.items():
            for partner, count in partners.items():
                if count > 0:
                    result[edge_key(node, partner)] = count
        return result

    def total_pairs(self) -> int:
        """Total number of Bell pairs currently in the network."""
        return sum(self.nonzero_pairs().values())

    def minimum_count(self) -> int:
        """Smallest positive count (0 when the ledger is empty)."""
        counts = list(self.nonzero_pairs().values())
        return min(counts) if counts else 0

    def maximum_count(self) -> int:
        """Largest count (0 when the ledger is empty)."""
        counts = list(self.nonzero_pairs().values())
        return max(counts) if counts else 0

    def snapshot_for(self, node: NodeId) -> Dict[NodeId, int]:
        """A copy of ``node``'s count vector (what a gossip message would carry)."""
        return dict(self.partners(node))

    def copy(self) -> "PairCountLedger":
        """A deep copy (used by dry-run planners)."""
        clone = PairCountLedger(self.nodes)
        for (node_a, node_b), count in self.nonzero_pairs().items():
            clone.add(node_a, node_b, count)
        for group, count in self._group_counts.items():
            clone.add_group(group, count)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PairCountLedger(nodes={len(self._counts)}, pairs={len(self.nonzero_pairs())}, "
            f"total={self.total_pairs()})"
        )
