"""Classical channels.

A :class:`ClassicalChannel` models one point-to-point classical link: a
swap is not usable at the far end until its 2-bit correction has crossed
such a link, so its latency and bandwidth bound how fast a correction or a
count vector reaches a neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable


@dataclass
class ClassicalChannel:
    """A point-to-point classical link with latency and optional bandwidth."""

    node_a: NodeId
    node_b: NodeId
    latency: float = 0.0
    bandwidth_bits_per_round: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError("a classical channel must connect two distinct nodes")
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")
        if self.bandwidth_bits_per_round is not None and self.bandwidth_bits_per_round <= 0:
            raise ValueError(
                f"bandwidth must be positive or None, got {self.bandwidth_bits_per_round}"
            )

    @property
    def key(self) -> EdgeKey:
        return edge_key(self.node_a, self.node_b)

    def transfer_time(self, size_bits: int) -> float:
        """Time for a message of ``size_bits`` to cross this channel."""
        if size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {size_bits}")
        transmission = 0.0
        if self.bandwidth_bits_per_round is not None:
            transmission = size_bits / self.bandwidth_bits_per_round
        return self.latency + transmission
