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

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.classical.control_plane": ("ControlPlane", "FloodingControlPlane"),
        "repro.classical.gossip": ("ChokeUnchokeGossip",),
        "repro.classical.messages": ("MessageType", "message_size_bits"),
    },
)
