"""Connection-oriented planned-path baseline.

The classic approach the paper positions itself against: when a consumption
request arrives, a specific path is selected (shortest path on the
generation graph here), the request *reserves* that path, and entanglement
swapping is performed along it -- in the optimal nested order -- as soon as
enough elementary pairs have accumulated on every link of the path.

Because requests are served strictly in order and the active request has
exclusive use of the network, this baseline achieves exactly the nested
(minimum) swap count per request; its cost shows up as latency (waiting for
the reserved path's links to accumulate the multiplicatively many elementary
pairs nested distillation needs) and as idle generation elsewhere.
"""

from __future__ import annotations

from repro.protocols.planned.base import PlannedPathProtocol


class ConnectionOrientedProtocol(PlannedPathProtocol):
    """One reserved shortest path at a time, nested swapping along it."""

    name = "planned-connection-oriented"
    #: Path reservation: one signalling message per hop.
    messages_per_hop = 1
