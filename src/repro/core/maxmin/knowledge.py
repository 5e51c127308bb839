"""Knowledge models: what a node believes about remote pair counts.

The paper's base protocol assumes every node knows every count ``C_y(y')``
("the immediate global knowledge of all buffers"), acknowledging the
classical overhead this implies.  Section 6 sketches a BitTorrent-like
alternative where each node only tracks a small rotating subset of peers.

Both are implemented here behind a single interface so the balancer is
agnostic: :meth:`KnowledgeModel.recipient_count` answers "what does node
``x`` believe ``C_y(y')`` to be right now?" (or ``None`` for "x does not
know"), and :meth:`KnowledgeModel.refresh` advances the dissemination state
by one round while accounting for the classical messages exchanged.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core.maxmin.ledger import PairCountLedger

NodeId = Hashable


class KnowledgeModel(abc.ABC):
    """Interface for count-dissemination models."""

    def __init__(self, ledger: PairCountLedger):
        self.ledger = ledger
        self.messages_sent = 0
        self.entries_sent = 0

    @abc.abstractmethod
    def recipient_count(self, observer: NodeId, node_a: NodeId, node_b: NodeId) -> Optional[int]:
        """What ``observer`` believes ``C_{node_a}(node_b)`` to be (``None`` = unknown)."""

    @abc.abstractmethod
    def refresh(self, round_index: int, rng: np.random.Generator) -> None:
        """Advance the dissemination protocol by one round."""

    def classical_overhead(self) -> Dict[str, int]:
        """Messages and count entries transmitted so far."""
        return {"messages": self.messages_sent, "entries": self.entries_sent}


class GlobalKnowledge(KnowledgeModel):
    """The paper's base assumption: every node sees the true global counts.

    Each refresh is accounted as every node broadcasting its count vector to
    every other node, which is the upper bound the paper acknowledges when
    discussing classical overheads.
    """

    def __init__(self, ledger: PairCountLedger, account_messages: bool = False):
        super().__init__(ledger)
        self.account_messages = account_messages

    def recipient_count(self, observer: NodeId, node_a: NodeId, node_b: NodeId) -> Optional[int]:
        return self.ledger.count(node_a, node_b)

    def refresh(self, round_index: int, rng: np.random.Generator) -> None:
        if not self.account_messages:
            return
        nodes = self.ledger.nodes
        fanout = len(nodes) - 1
        # A node's broadcast carries one entry per partner: one per non-zero
        # entry of its row of the count matrix.
        entries = int(np.count_nonzero(self.ledger.counts))
        self.messages_sent += len(nodes) * fanout
        self.entries_sent += entries * fanout


class GossipKnowledge(KnowledgeModel):
    """BitTorrent-style rotating partial knowledge (paper, §6).

    Every round each node refreshes its cached view of ``fanout`` peers
    (chosen uniformly at random, a stand-in for the choke/unchoke rotation),
    receiving their full count vectors.  Cached views persist until
    overwritten, so a node's belief about a peer can be stale.

    ``recipient_count`` answers from the cache; pairs about which the
    observer has no cached information return ``None`` and the balancer
    skips those candidates for the round.
    """

    def __init__(self, ledger: PairCountLedger, fanout: int = 3):
        super().__init__(ledger)
        if fanout <= 0:
            raise ValueError(f"fanout must be positive, got {fanout}")
        self.fanout = fanout
        # observer -> peer -> (peer's count vector as last seen)
        self._cache: Dict[NodeId, Dict[NodeId, Dict[NodeId, int]]] = {}

    def recipient_count(self, observer: NodeId, node_a: NodeId, node_b: NodeId) -> Optional[int]:
        views = self._cache.get(observer, {})
        if node_a in views:
            return views[node_a].get(node_b, 0)
        if node_b in views:
            return views[node_b].get(node_a, 0)
        return None

    def refresh(self, round_index: int, rng: np.random.Generator) -> None:
        nodes = self.ledger.nodes
        if len(nodes) <= 1:
            return
        for observer in nodes:
            others = [node for node in nodes if node != observer]
            sample_size = min(self.fanout, len(others))
            chosen = rng.choice(len(others), size=sample_size, replace=False)
            views = self._cache.setdefault(observer, {})
            for index in chosen:
                peer = others[int(index)]
                snapshot = self.ledger.partners(peer)
                views[peer] = snapshot
                self.messages_sent += 1
                self.entries_sent += len(snapshot)

    def known_peers(self, observer: NodeId) -> List[NodeId]:
        """Peers about which ``observer`` currently holds a cached view."""
        return list(self._cache.get(observer, {}))
