"""Classical control plane.

Swapping, teleportation and distillation all require classical signalling
(the 2-bit correction messages), and the balancing protocol additionally
requires dissemination of the pair-count state (paper, §2 "Classical
overheads" and §6).  This package models those classical costs explicitly:

* :mod:`repro.classical.messages` -- the message vocabulary and size model,
* :mod:`repro.classical.control_plane` -- full-flooding dissemination of the
  count table with per-round byte accounting,
* :mod:`repro.classical.gossip` -- the BitTorrent-like choke/unchoke
  rotation sketched in Section 6.
"""

from repro.classical.control_plane import ControlPlane, FloodingControlPlane
from repro.classical.gossip import ChokeUnchokeGossip
from repro.classical.messages import (
    ClassicalMessage,
    CountVectorMessage,
    MessageType,
    SwapCorrectionMessage,
    message_size_bits,
)

__all__ = [
    "ChokeUnchokeGossip",
    "ClassicalMessage",
    "ControlPlane",
    "CountVectorMessage",
    "FloodingControlPlane",
    "MessageType",
    "SwapCorrectionMessage",
    "message_size_bits",
]
