"""Swapping protocols.

Round-based, count-level implementations of the protocols compared in the
paper's evaluation:

* :class:`~repro.protocols.oblivious.PathObliviousProtocol` -- the paper's
  max-min balancing protocol (§4), optionally with the hybrid fallback (§6).
* :class:`~repro.protocols.planned.connection_oriented.ConnectionOrientedProtocol`
  -- the classic planned-path baseline: one request at a time, shortest path
  reserved, nested swapping along it.
* :class:`~repro.protocols.planned.connectionless.ConnectionlessProtocol`
  -- planned paths without pair reservation: a window of requests compete
  for the link-level pairs their paths share.
* :class:`~repro.protocols.planned.ondemand.OnDemandProtocol` -- the
  "water-park" strawman: generation is only switched on for links on the
  active request's path.

The three baselines share
:class:`~repro.protocols.planned.base.PlannedPathProtocol`: the shortest
path per consumer pair, the nested build along it and one accounting of
swaps, raw pairs consumed and classical overhead (``k`` messages per hop of
each served path plus one per swap, ``k`` a constant of each baseline).

:mod:`repro.protocols.nested` provides the nested-swapping cost model that
both the baselines and the paper's overhead metric rely on.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.protocols.base": ("ProtocolResult", "SwappingProtocol"),
        "repro.protocols.nested": (
            "execute_nested",
            "nested_schedule",
            "nested_swap_count",
            "required_link_pairs",
            "sequential_swap_count",
        ),
        "repro.protocols.oblivious": ("PathObliviousProtocol",),
        "repro.protocols.planned": (
            "ConnectionOrientedProtocol",
            "ConnectionlessProtocol",
            "OnDemandProtocol",
        ),
    },
)
