"""Planned-path baseline protocols (paper, Section 1 related-work taxonomy).

All three share :class:`~repro.protocols.planned.base.PlannedPathProtocol`:
nested swapping along each request's shortest generation-graph path, with
one accounting of swaps, raw pairs consumed and classical overhead.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.protocols.planned.base": ("PlannedPathProtocol",),
        "repro.protocols.planned.connection_oriented": ("ConnectionOrientedProtocol",),
        "repro.protocols.planned.connectionless": ("ConnectionlessProtocol",),
        "repro.protocols.planned.ondemand": ("OnDemandProtocol",),
    },
)
