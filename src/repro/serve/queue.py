"""The daemon's job table and bounded priority queue.

A :class:`Job` is one accepted submission: the experiment name, the
resolved parameters, and everything the protocol can ask about it --
lifecycle state, progress counters, the result payload or the structured
error, and the subscriber connections streaming its progress.

:class:`JobQueue` holds the *pending* jobs in a bounded heap ordered by
``(-priority, submission sequence)``: higher ``priority`` runs first, ties
run in submission order.  The bound is part of the admission contract --
when the queue is full a submission is rejected with a ``429`` payload
instead of growing an unbounded backlog, exactly like the token buckets in
:mod:`repro.workloads.admission` shed load at the edge.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serve.protocol import JOB_STATES


class QueueFull(Exception):
    """The bounded queue rejected a push (maps to a ``429`` payload)."""


@dataclass
class Job:
    """One accepted submission and its whole lifecycle."""

    job_id: str
    experiment: str
    params: Dict[str, Any]
    digest: str
    priority: int = 0
    client: str = "anonymous"
    state: str = "queued"
    total: int = 0
    completed: int = 0
    attempts: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    #: ``time.perf_counter()`` at queue push; the worker turns the wait into
    #: a ``serve.job.queued`` telemetry span (0.0 = never queued).
    queued_at: float = 0.0
    #: Clients that coalesced onto this job (first submitter included).
    clients: List[str] = field(default_factory=list)
    #: Set once the job reaches a terminal state (done/error/cancelled).
    done_event: threading.Event = field(default_factory=threading.Event)
    #: Checked by the worker between trials; set by ``cancel``.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Streaming subscriber connections (daemon-internal objects).
    subscribers: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r}")
        if not self.clients:
            self.clients = [self.client]

    @property
    def finished(self) -> bool:
        return self.state in ("done", "error", "cancelled")

    def summary(self) -> Dict[str, Any]:
        """The row ``list`` and ``status`` responses carry."""
        return {
            "job": self.job_id,
            "experiment": self.experiment,
            "state": self.state,
            "priority": self.priority,
            "client": self.client,
            "clients": len(self.clients),
            "completed": self.completed,
            "total": self.total,
            "attempts": self.attempts,
        }


class JobQueue:
    """Bounded, thread-safe priority queue of pending jobs.

    Parameters
    ----------
    depth:
        Maximum number of *queued* jobs (running and finished jobs do not
        count).  A push beyond the bound raises :class:`QueueFull`.
    """

    def __init__(self, depth: int = 64):
        if depth < 1:
            raise ValueError(f"queue depth must be at least 1, got {depth}")
        self.depth = depth
        self._heap: List[Any] = []
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def push(self, job: Job) -> None:
        """Enqueue ``job`` (raises :class:`QueueFull` past the bound)."""
        with self._not_empty:
            if len(self._heap) >= self.depth:
                raise QueueFull(
                    f"job queue is full ({self.depth} pending job(s)); retry later"
                )
            job.queued_at = time.perf_counter()
            heapq.heappush(self._heap, (-job.priority, next(self._sequence), job))
            self._not_empty.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """The next runnable job, or ``None`` on timeout / after :meth:`close`.

        Jobs cancelled while still queued are discarded here, never handed
        to a worker.
        """
        with self._not_empty:
            while True:
                while self._heap:
                    _, _, job = heapq.heappop(self._heap)
                    if not job.cancel_event.is_set():
                        return job
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None

    def close(self) -> None:
        """Wake every blocked :meth:`pop` with ``None`` once drained."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()
