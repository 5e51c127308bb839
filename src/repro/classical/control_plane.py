"""Control-plane dissemination of the pair-count state.

The balancing protocol needs each node to know (some of) the global count
table.  :class:`FloodingControlPlane` models the paper's baseline assumption
-- every node's count vector reaches every other node each round -- and
accounts for the end-to-end classical messages and bits this costs.  The
gossip alternative lives in
:mod:`repro.classical.gossip`.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.classical.messages import MessageType, message_size_bits
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.topology import Topology

NodeId = Hashable


class ControlPlane(abc.ABC):
    """Interface for count-dissemination cost models."""

    def __init__(self, topology: Topology, ledger: PairCountLedger):
        self.topology = topology
        self.ledger = ledger
        self.rounds_executed = 0
        self.total_messages = 0
        self.total_bits = 0

    @abc.abstractmethod
    def run_round(self, round_index: int) -> None:
        """Disseminate state for one round, updating the cost counters."""

    def _announcement_recipients(self, source: NodeId) -> Iterable[NodeId]:
        """Who hears ``source``'s announcements (default: everyone, a flood)."""
        return (node for node in self.topology.nodes if node != source)

    def announce_failure(
        self,
        source: NodeId,
        failed_node: NodeId = None,
        failed_edge: Optional[Tuple[NodeId, NodeId]] = None,
    ) -> int:
        """Propagate a failure notice from ``source`` (scenario layer hook).

        When a link is cut or a node leaves, the detecting neighbour floods
        a small :data:`~repro.classical.messages.MessageType.FAILURE_NOTICE`
        so the rest of the control plane can stop trusting stale state about
        the failed element (:meth:`note_failure`).  The recipient set is the
        control plane's dissemination fan-out -- everyone for flooding, the
        unchoked peers for gossip -- and the usual message/bit counters are
        charged.  Returns the number of notices sent.
        """
        size = message_size_bits(MessageType.FAILURE_NOTICE)
        sent = 0
        for destination in self._announcement_recipients(source):
            self.total_messages += 1
            self.total_bits += size
            self.note_failure(destination, failed_node=failed_node, failed_edge=failed_edge)
            sent += 1
        return sent

    def note_failure(
        self,
        recipient: NodeId,
        failed_node: NodeId = None,
        failed_edge: Optional[Tuple[NodeId, NodeId]] = None,
    ) -> None:
        """Hook: ``recipient`` learned about a failure (default: nothing cached)."""

    def bits_per_round(self) -> float:
        """Average classical bits per dissemination round so far."""
        if self.rounds_executed == 0:
            return 0.0
        return self.total_bits / self.rounds_executed

    def summary(self) -> Dict[str, float]:
        return {
            "rounds": float(self.rounds_executed),
            "messages": float(self.total_messages),
            "bits": float(self.total_bits),
            "bits_per_round": self.bits_per_round(),
        }


class FloodingControlPlane(ControlPlane):
    """Every node sends its full count vector to every other node each round.

    Only end-to-end message/bit totals are kept.
    """

    def run_round(self, round_index: int) -> None:
        nodes = self.topology.nodes
        for source in nodes:
            counts = self.ledger.partners(source)
            size = message_size_bits(MessageType.COUNT_VECTOR, entries=len(counts))
            for destination in nodes:
                if destination == source:
                    continue
                self.total_messages += 1
                self.total_bits += size
        self.rounds_executed += 1
