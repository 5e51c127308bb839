"""Connectionless planned-path baseline.

The variant the paper cites (e.g. Xiao et al.): each request still follows a
pre-selected path, but link-level Bell pairs are *not* reserved -- a window
of outstanding requests compete for the pairs on any links their paths
share.  Requests are admitted in order (the paper's ordering constraint) but
may complete out of order; the request sequence is only advanced when its
head completes, so head-of-line statistics remain comparable with the other
protocols.
"""

from __future__ import annotations

from typing import List, Set

from repro.network.demand import ConsumptionRequest
from repro.protocols.planned.base import PlannedPathProtocol


class ConnectionlessProtocol(PlannedPathProtocol):
    """Fixed paths, shared (unreserved) link pairs, windowed admission."""

    name = "planned-connectionless"
    #: Maximum number of requests allowed to compete simultaneously.
    window = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Indices (into the request list) completed ahead of the head.
        self._completed_early: Set[int] = set()

    def _active_window(self) -> List[ConsumptionRequest]:
        """The head request plus the next ``window - 1`` not-yet-completed requests.

        Built from :meth:`~repro.network.demand.RequestSequence.
        pending_requests` so only *eligible* requests compete: for the
        paper's ordered sequence that is the tail from the head onward
        (unchanged behaviour); for timed sequences it is the released,
        admitted queue in policy order -- a request never races for pairs
        before it has arrived.
        """
        pending = [
            request
            for request in self.requests.pending_requests()
            if request.index not in self._completed_early
        ]
        return pending[: self.window]

    def _action_phase(self, round_index: int) -> None:
        # Every request in the window greedily tries to complete its nested
        # construction from the shared, unreserved link pools.
        for request in self._active_window():
            head = self.requests.head()
            if head is not None and request.index == head.index:
                continue  # the head is handled in the consumption phase
            if not self._build(request, round_index):
                continue
            self._completed_early.add(request.index)
            request.issued_round = request.issued_round if request.issued_round is not None else round_index
            request.satisfied_round = round_index

    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        if request.index in self._completed_early:
            # Already built by the windowed competition; just account for it.
            self._completed_early.discard(request.index)
            return True
        return self._build(request, round_index)
