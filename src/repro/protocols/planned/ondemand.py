"""On-demand (reactive) planned-path baseline.

The "water park" strawman from the paper's Section 2.1 analogy: generation
on a link is only switched on while the link lies on the path of the
currently active (head-of-line) request; everything else stays dark.  This
wastes no generation, but pays for it in latency: every request starts from
an empty path and must wait for all the elementary pairs nested swapping
needs to accumulate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.topology import EdgeKey, edge_key
from repro.protocols.planned.base import PlannedPathProtocol


class OnDemandProtocol(PlannedPathProtocol):
    """Reactive generation: links only generate while reserved by the head request."""

    name = "planned-on-demand"
    #: Two signalling messages per hop of the active path.
    messages_per_hop = 2

    def _generated(
        self, edges: Sequence[EdgeKey], counts: np.ndarray, round_index: int
    ) -> np.ndarray:
        head = self.requests.head()
        path = (self._path_for(head.pair) if head is not None else None) or []
        active = {edge_key(a, b) for a, b in zip(path, path[1:])}
        return counts * np.fromiter((edge in active for edge in edges), bool, len(edges))
