"""Choke/unchoke gossip dissemination (paper, Section 6).

"A BitTorrent-like approach with a similar choke/unchoke mechanism, where
each node knows only the status of a rotating but small number of
neighbors, would intuitively scale well."

Each node maintains ``unchoked`` slots.  Every ``rotation_period`` rounds it
re-draws one slot uniformly at random (the optimistic unchoke); every round
it exchanges count vectors with its currently unchoked peers only.  The
class tracks the same cost counters as the flooding control plane so the
two can be compared directly (experiment E6).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.classical.control_plane import ControlPlane
from repro.classical.messages import MessageType, message_size_bits
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.topology import Topology

NodeId = Hashable


class ChokeUnchokeGossip(ControlPlane):
    """Rotating partial dissemination with per-round cost accounting.

    Parameters
    ----------
    unchoked_slots:
        How many peers each node exchanges state with per round.
    rotation_period:
        Every this many rounds, each node replaces one unchoked peer with a
        fresh uniformly random peer (the optimistic unchoke).
    rng:
        Random stream controlling peer selection.
    """

    def __init__(
        self,
        topology: Topology,
        ledger: PairCountLedger,
        unchoked_slots: int = 3,
        rotation_period: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        if unchoked_slots <= 0:
            raise ValueError(f"unchoked_slots must be positive, got {unchoked_slots}")
        if rotation_period <= 0:
            raise ValueError(f"rotation_period must be positive, got {rotation_period}")
        super().__init__(topology, ledger)
        self.unchoked_slots = unchoked_slots
        self.rotation_period = rotation_period
        self.rng = rng if rng is not None else np.random.default_rng()
        self._unchoked: Dict[NodeId, List[NodeId]] = {}
        #: observer -> peer -> last seen count vector (the knowledge gossip builds).
        self.views: Dict[NodeId, Dict[NodeId, Dict[NodeId, int]]] = {}

    # ------------------------------------------------------------------ #
    # Peer management
    # ------------------------------------------------------------------ #
    def _initialise_peers(self) -> None:
        nodes = self.topology.nodes
        for node in nodes:
            others = [other for other in nodes if other != node]
            size = min(self.unchoked_slots, len(others))
            chosen = self.rng.choice(len(others), size=size, replace=False)
            self._unchoked[node] = [others[int(index)] for index in chosen]

    def _rotate_peers(self) -> None:
        nodes = self.topology.nodes
        for node in nodes:
            others = [other for other in nodes if other != node and other not in self._unchoked[node]]
            if not others or not self._unchoked[node]:
                continue
            drop_index = int(self.rng.integers(0, len(self._unchoked[node])))
            replacement = others[int(self.rng.integers(0, len(others)))]
            self._unchoked[node][drop_index] = replacement

    def unchoked_peers(self, node: NodeId) -> List[NodeId]:
        """The peers ``node`` currently exchanges count vectors with."""
        return list(self._unchoked.get(node, []))

    # ------------------------------------------------------------------ #
    # Dissemination
    # ------------------------------------------------------------------ #
    def run_round(self, round_index: int) -> None:
        if not self._unchoked:
            self._initialise_peers()
        elif round_index % self.rotation_period == 0:
            self._rotate_peers()

        for source in self.topology.nodes:
            counts = self.ledger.partners(source)
            size = message_size_bits(MessageType.COUNT_VECTOR, entries=len(counts))
            for destination in self._unchoked[source]:
                self.total_messages += 1
                self.total_bits += size
                self.views.setdefault(destination, {})[source] = dict(counts)
        self.rounds_executed += 1

    # ------------------------------------------------------------------ #
    # Failure announcements (scenario layer)
    # ------------------------------------------------------------------ #
    def _announcement_recipients(self, source: NodeId) -> Iterable[NodeId]:
        """Gossip announcements reach only the source's unchoked peers.

        A node that has not taken its first dissemination turn yet has no
        peers and its announcement reaches nobody -- the same partial-view
        trade-off the count gossip makes.
        """
        return self.unchoked_peers(source)

    def note_failure(
        self,
        recipient: NodeId,
        failed_node: NodeId = None,
        failed_edge: Optional[Tuple[NodeId, NodeId]] = None,
    ) -> None:
        """Drop the recipient's cached state about the failed element.

        A node failure invalidates the whole cached view *of* that node and
        every cached count *involving* it; a link failure invalidates only
        the cached counts across that link.  The next count-vector exchange
        rebuilds fresh views.
        """
        views = self.views.get(recipient)
        if not views:
            return
        if failed_node is not None:
            views.pop(failed_node, None)
            for cached in views.values():
                cached.pop(failed_node, None)
        if failed_edge is not None:
            node_a, node_b = failed_edge
            if node_a in views:
                views[node_a].pop(node_b, None)
            if node_b in views:
                views[node_b].pop(node_a, None)

    # ------------------------------------------------------------------ #
    # Knowledge quality
    # ------------------------------------------------------------------ #
    def coverage(self, observer: NodeId) -> float:
        """Fraction of other nodes about which ``observer`` holds any view."""
        others = self.topology.n_nodes - 1
        if others <= 0:
            return 1.0
        return len(self.views.get(observer, {})) / others

    def staleness_error(self, observer: NodeId) -> float:
        """Mean absolute error between the observer's cached counts and the truth."""
        views = self.views.get(observer, {})
        if not views:
            return float("nan")
        errors: List[float] = []
        for peer, cached in views.items():
            truth = self.ledger.partners(peer)
            partners = set(cached) | set(truth)
            for partner in partners:
                errors.append(abs(cached.get(partner, 0) - truth.get(partner, 0)))
        return sum(errors) / len(errors) if errors else 0.0
