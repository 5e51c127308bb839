"""The timed, policy-ordered request queue a protocol run drives.

:class:`TimedRequestSequence` keeps the
:class:`~repro.network.demand.RequestSequence` interface the protocols
already speak (``head`` / ``note_head_issued`` / ``mark_head_satisfied`` /
``all_satisfied``) but releases requests over simulated time: a request is
invisible until its arrival round, passes per-node admission control on
release, and then waits in a queue ordered by the configured policy --

* ``fifo``      -- arrival order (the closest analogue of the paper's
  ordered sequence),
* ``priority``  -- highest traffic-class priority first, arrival order
  within a class,
* ``deadline``  -- earliest absolute deadline first, and queued requests
  whose deadline has already passed are *dropped* instead of served late.

Release is driven by the protocols' round loop, which calls
:meth:`on_round` at the start of every round, before generation (like the
scenario layer).
Admission charges tokens at each request's own arrival round regardless of
when release is batched.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.network.demand import RequestSequence
from repro.network.topology import edge_key, group_key
from repro.workloads.admission import AdmissionController
from repro.workloads.base import TimedRequest

#: Queueing policies a workload spec may name (``queue=...``).
QUEUE_POLICIES: Tuple[str, ...] = ("fifo", "priority", "deadline")


def _fifo_key(request: TimedRequest) -> Tuple:
    return (request.arrival_round, request.index)


def _priority_key(request: TimedRequest) -> Tuple:
    return (-request.traffic_class.priority, request.arrival_round, request.index)


def _deadline_key(request: TimedRequest) -> Tuple:
    deadline = request.deadline_round
    return (math.inf if deadline is None else deadline, request.arrival_round, request.index)


_POLICY_KEYS: dict = {
    "fifo": _fifo_key,
    "priority": _priority_key,
    "deadline": _deadline_key,
}


class TimedRequestSequence(RequestSequence):
    """An arrival-timed, admission-controlled request stream.

    Parameters
    ----------
    requests:
        The full trace of :class:`~repro.workloads.base.TimedRequest`
        entries (any order; stored sorted by arrival round, trace index).
    policy:
        Queueing policy name from :data:`QUEUE_POLICIES`.
    admission:
        Optional per-node :class:`~repro.workloads.admission.
        AdmissionController`; ``None`` admits everything.
    """

    def __init__(
        self,
        requests: Sequence[TimedRequest],
        policy: str = "fifo",
        admission: Optional[AdmissionController] = None,
    ):
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {policy!r}; choose from {', '.join(QUEUE_POLICIES)}"
            )
        ordered = sorted(requests, key=lambda request: (request.arrival_round, request.index))
        super().__init__(ordered)
        self.policy = policy
        self.admission = admission
        self._key: Callable[[TimedRequest], Tuple] = _POLICY_KEYS[policy]
        self._cursor = 0  # next not-yet-released index into self._requests
        self._queue: List[TimedRequest] = []
        self._satisfied_n = 0
        self._released_until = -math.inf
        # Memoised head(): protocols call head / note_head_issued /
        # mark_head_satisfied back to back, so one policy scan serves all
        # three.  Invalidated on every queue mutation.
        self._head_cache: Optional[TimedRequest] = None

    # ------------------------------------------------------------------ #
    # Release (called by the round loop as simulated time advances)
    # ------------------------------------------------------------------ #
    def release_until(self, now: float) -> None:
        """Release every arrival due by ``now`` through admission control.

        Under the ``deadline`` policy, queued requests whose deadline has
        passed are dropped here too -- the deadline-aware analogue of a
        transport-layer cutoff.  A request is droppable only *strictly past*
        its deadline round: serving at ``now == deadline_round`` still gives
        latency equal to the deadline, which the SLO counts as on time.
        """
        self._released_until = max(self._released_until, now)
        self._head_cache = None
        while (
            self._cursor < len(self._requests)
            and self._requests[self._cursor].arrival_round <= now
        ):
            request = self._requests[self._cursor]
            self._cursor += 1
            if self.admission is not None and not self.admission.admit(
                request.pair, float(request.arrival_round)
            ):
                request.admitted = False
                continue
            request.admitted = True
            self._queue.append(request)
        if self.policy == "deadline":
            expired = [
                request
                for request in self._queue
                if request.deadline_round is not None
                and request.deadline_round < now
                and not request.satisfied
            ]
            for request in expired:
                request.dropped_round = int(now)
                self._queue.remove(request)

    def on_round(self, round_index: int) -> None:
        """Release the round's arrivals (called before the round's generation)."""
        self.release_until(float(round_index))
        return None

    # ------------------------------------------------------------------ #
    # The head-of-line interface the protocols drive
    # ------------------------------------------------------------------ #
    def head(self) -> Optional[TimedRequest]:
        """The next queued request under the policy (``None`` when idle)."""
        if not self._queue:
            return None
        if self._head_cache is None:
            self._head_cache = min(self._queue, key=self._key)
        return self._head_cache

    def mark_head_satisfied(self, round_index) -> TimedRequest:
        head = self.head()
        if head is None:
            raise IndexError("no queued request to satisfy")
        self._queue.remove(head)
        self._head_cache = None
        if head.satisfied_round is None:
            head.satisfied_round = round_index
        self._satisfied_n += 1
        return head

    def note_head_issued(self, round_index: int) -> None:
        head = self.head()
        if head is not None and head.issued_round is None:
            head.issued_round = round_index

    def pending_requests(self) -> List[TimedRequest]:
        """Queued (released, admitted, unserved) requests in policy order."""
        return sorted(self._queue, key=self._key)

    # ------------------------------------------------------------------ #
    # Dynamic workloads (scenario layer)
    # ------------------------------------------------------------------ #
    def remap_pending(self, mapper) -> int:
        """Demand drift over everything not yet served (queued or future)."""
        remapped = 0
        self._head_cache = None
        candidates = self._queue + list(self._requests[self._cursor :])
        for request in candidates:
            if request.satisfied:
                continue
            replacement = mapper(request)
            if replacement is None or replacement == request.pair:
                continue
            request.pair = (
                edge_key(*replacement)
                if len(replacement) == 2
                else group_key(*replacement)
            )
            remapped += 1
        return remapped

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def all_satisfied(self) -> bool:
        """Whether the run is over: arrivals exhausted and the queue drained.

        Rejected and dropped requests count as resolved -- the stream is
        "done" when nothing can ever become servable again, which is the
        semantics the round loop's stop condition needs.
        """
        return self._cursor >= len(self._requests) and not self._queue

    @property
    def satisfied_count(self) -> int:
        return self._satisfied_n

    @property
    def pending_count(self) -> int:
        return len(self._queue) + (len(self._requests) - self._cursor)

    @property
    def released_count(self) -> int:
        return self._cursor

    def rejected_requests(self) -> List[TimedRequest]:
        return [request for request in self._requests if request.rejected]

    def dropped_requests(self) -> List[TimedRequest]:
        return [request for request in self._requests if request.dropped]
