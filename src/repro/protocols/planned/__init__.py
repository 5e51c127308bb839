"""Planned-path baseline protocols (paper, Section 1 related-work taxonomy).

All three share :class:`~repro.protocols.planned.base.PlannedPathProtocol`:
nested swapping along each request's shortest generation-graph path, with
one accounting of swaps, raw pairs consumed and classical overhead.
"""

from repro.protocols.planned.base import PlannedPathProtocol
from repro.protocols.planned.connection_oriented import ConnectionOrientedProtocol
from repro.protocols.planned.connectionless import ConnectionlessProtocol
from repro.protocols.planned.ondemand import OnDemandProtocol

__all__ = [
    "ConnectionOrientedProtocol",
    "ConnectionlessProtocol",
    "OnDemandProtocol",
    "PlannedPathProtocol",
]
