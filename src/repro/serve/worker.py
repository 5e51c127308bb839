"""The daemon's worker pool: threads executing jobs off the queue.

Each worker pops a :class:`~repro.serve.queue.Job`, resolves its experiment
through the registry, and runs it with
:meth:`~repro.experiments.api.Experiment.run` -- the same path as the CLI,
so every registered experiment is served.  The
:class:`~repro.experiments.api.RuntimeOptions` ``on_result`` hook is the
progress spine: after every unit of work (a trial, an LP program, a
scaling cell, the one classical workload) it updates the job's counters,
broadcasts a ``progress`` event to streaming subscribers, and enforces the
per-job **cancel** flag and **timeout** (raising out of the run between
units).

Crash containment: an exception escaping a run fails the *attempt*, not
the daemon.  The job is retried from its start up to ``retries`` more
times and then parked in the ``error`` state with a structured
``500``-style payload the protocol serves verbatim -- a crashed worker
surfaces as data, never as a hang.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Callable, List, Optional

from repro.experiments.api import RuntimeOptions
from repro.experiments.registry import get_experiment
from repro.experiments.schema import validate_payload
from repro.obs.metrics import MetricRegistry
from repro.obs.spans import emit as emit_span
from repro.obs.spans import span, telemetry_enabled
from repro.serve.queue import Job, JobQueue


class JobCancelled(Exception):
    """Raised inside the run when a running job's cancel flag is set."""


class JobTimeout(Exception):
    """Raised inside the run when a running job exceeds its time budget."""


class WorkerPool:
    """N daemon threads executing queued jobs through ``Experiment.run``.

    Parameters
    ----------
    queue:
        The pending-job queue (popped until :meth:`stop`).
    n_workers:
        Worker thread count -- the daemon's job-level parallelism.
    job_timeout:
        Wall-clock budget per job attempt in seconds (checked after each
        unit of work; ``None`` disables it).
    retries:
        How many times a crashed job is re-attempted before it is parked
        in the ``error`` state.
    on_event:
        ``on_event(job)`` called after every progress step and on every
        terminal transition; the daemon broadcasts from here.
    metrics:
        Optional shared :class:`MetricRegistry` (the daemon's): workers
        count job starts on ``serve.jobs.running`` there.
    """

    def __init__(
        self,
        queue: JobQueue,
        n_workers: int = 2,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        on_event: Optional[Callable[[Job], None]] = None,
        metrics: Optional[MetricRegistry] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"worker count must be at least 1, got {n_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.queue = queue
        self.n_workers = n_workers
        self.job_timeout = job_timeout
        self.retries = retries
        self.on_event = on_event
        self.metrics = metrics
        self._threads: List[threading.Thread] = []
        self._busy = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    @property
    def busy(self) -> int:
        """Workers currently executing a job (the ``serve.workers.busy`` gauge)."""
        with self._lock:
            return self._busy

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for index in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: Optional[float] = None) -> None:
        """Close the queue and join every worker thread."""
        self.queue.close()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            thread.join(remaining)
        self._threads = []

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running (the drain condition)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._busy > 0 or len(self.queue) > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                if not self._idle.wait(remaining if remaining is not None else 0.5):
                    if deadline is not None:
                        return False
        return True

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self.queue.closed and len(self.queue) == 0:
                    return
                continue
            with self._lock:
                self._busy += 1
            try:
                self._run_job(job)
            finally:
                with self._idle:
                    self._busy -= 1
                    self._idle.notify_all()

    def _emit(self, job: Job) -> None:
        if self.on_event is not None:
            self.on_event(job)

    def _run_job(self, job: Job) -> None:
        if job.cancel_event.is_set():  # cancelled between pop and start
            job.state = "cancelled"
            job.done_event.set()
            self._emit(job)
            return
        job.state = "running"
        if self.metrics is not None:
            self.metrics.counter("serve.jobs.running").increment()
        if telemetry_enabled() and job.queued_at:
            # The queue wait spans two threads (push on the acceptor, pop
            # here), so it cannot wrap a `with` block: record it as an
            # already-measured interval.
            emit_span(
                "serve.job.queued",
                job.queued_at,
                time.perf_counter() - job.queued_at,
                job=job.job_id,
                experiment=job.experiment,
            )
        started = time.monotonic()
        last_error: Optional[BaseException] = None
        for attempt in range(1 + self.retries):
            job.attempts = attempt + 1
            try:
                with span(
                    "serve.job.running",
                    job=job.job_id,
                    experiment=job.experiment,
                    attempt=attempt + 1,
                ):
                    self._run_attempt(job, started)
                return
            except JobCancelled:
                job.state = "cancelled"
                job.done_event.set()
                self._emit(job)
                return
            except JobTimeout:
                job.state = "error"
                job.error = {
                    "code": 408,
                    "kind": "wait-timeout",
                    "message": (
                        f"job {job.job_id} exceeded its {self.job_timeout:.1f}s budget "
                        f"after {job.completed}/{job.total} unit(s) of work"
                    ),
                }
                job.done_event.set()
                self._emit(job)
                return
            except Exception as error:  # crash containment: retry, then park
                last_error = error
                job.completed = 0
        job.state = "error"
        job.error = {
            "code": 500,
            "kind": "worker-error",
            "message": (
                f"job {job.job_id} ({job.experiment}) crashed after "
                f"{job.attempts} attempt(s): "
                f"{type(last_error).__name__}: {last_error}"
            ),
            "traceback": traceback.format_exception_only(type(last_error), last_error)[-1].strip(),
        }
        job.done_event.set()
        self._emit(job)

    def _run_attempt(self, job: Job, started: float) -> None:
        job.completed = 0

        def on_result(index: int, outcome) -> None:
            job.completed += 1
            if job.cancel_event.is_set():
                raise JobCancelled(job.job_id)
            if self.job_timeout is not None and time.monotonic() - started > self.job_timeout:
                raise JobTimeout(job.job_id)
            self._emit(job)

        runtime = RuntimeOptions(workers=1, on_result=on_result)
        result = get_experiment(job.experiment).run(runtime=runtime, **job.params)
        payload = result.to_payload()
        # Defence in depth: never put a schema-violating payload on the wire.
        validate_payload(payload)
        job.result = payload
        job.state = "done"
        job.done_event.set()
        self._emit(job)
