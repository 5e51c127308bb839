"""The long-running experiment service: ``repro serve``.

One persistent process owns the expensive state every one-shot CLI
invocation pays for from scratch -- imports, the experiment registry, and
above all the in-memory memo of finished results -- and serves it to any
number of clients over a Unix or TCP socket speaking the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`.

Request flow for a ``submit``:

1. **Validation** -- the experiment must be registered and the parameters
   must plan through its ParamSpec table (``normalize`` and ``build_grid``
   included), so a bad submission fails with a ``400``/``404`` payload
   before it can ever occupy a worker.  The daemon answers ``health``
   before any experiment module (or numpy) is imported; the first
   submission of an experiment imports its module here.
2. **Coalescing** -- submissions are content-addressed over
   ``(experiment, normalized params)``.  A digest that matches a finished
   job is answered from the in-memory result memo immediately (a *result
   cache hit*); one that matches a queued/running job joins it (a
   *coalesced submission*) and shares its result when it lands.  Both
   show up in ``stats``.  A job that reads a trace file when it runs (a
   ``replay`` workload) is neither: its result is not a function of its
   parameters, so every submission of it runs.
3. **Admission** -- per-client token buckets plus the bounded queue depth
   (:mod:`repro.serve.admission`); a rejected submission gets an explicit
   ``429`` payload with a ``retry_after`` hint.
4. **Execution** -- the worker pool (:mod:`repro.serve.worker`) runs the
   job through ``Experiment.run``, streams ``progress`` events to
   subscribers as its units of work complete (``total`` is ``len(grid)``
   from the submit-time plan) and parks crashes as structured ``error``
   payloads.

Lifecycle: ``SIGTERM``/``SIGINT`` (or :meth:`ServeDaemon.shutdown`) flips
the daemon to **draining** -- new submissions are rejected with ``503``,
already-admitted jobs run to completion, a final stats snapshot is
flushed -- and the process exits ``0``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.api import ParamSpec
from repro.experiments.registry import experiment_names, get_experiment
from repro.obs.metrics import MetricRegistry
from repro.serve import protocol
from repro.serve.admission import (
    DEFAULT_ADMISSION_BURST,
    DEFAULT_ADMISSION_RATE,
    ServeAdmission,
)
from repro.serve.protocol import (
    ProtocolError,
    encode,
    end_event,
    error_response,
    ok_response,
    parse_request,
    progress_event,
)
from repro.serve.queue import Job, JobQueue, QueueFull
from repro.serve.worker import WorkerPool

#: Default bound on pending submissions.
DEFAULT_QUEUE_DEPTH = 64

#: Every metric family the daemon registers, exposed through the ``metrics``
#: verb as a Prometheus-style text exposition (``repro_`` prefix, dots to
#: underscores -- see :mod:`repro.obs.exposition`).  The docs gate
#: (tests/test_docs.py) requires each name to be a backticked doc token.
SERVE_METRIC_NAMES: Tuple[str, ...] = (
    # submission counters (mirrored 1:1 into the `stats` verb payload)
    "serve.submitted",
    "serve.coalesced",
    "serve.result_cache.hits",
    "serve.result_cache.misses",
    "serve.rejected.admission",
    "serve.rejected.queue_full",
    "serve.rejected.draining",
    "serve.rejected.invalid",
    "serve.jobs.completed",
    "serve.jobs.failed",
    "serve.jobs.cancelled",
    # job-stage counters (queued -> admitted -> running -> terminal)
    "serve.jobs.queued",
    "serve.jobs.admitted",
    "serve.jobs.running",
    # point-in-time gauges, refreshed per exposition
    "serve.queue.depth",
    "serve.queue.capacity",
    "serve.workers.total",
    "serve.workers.busy",
    "serve.uptime.seconds",
)

#: ``stats`` payload key -> metric family backing it.  Insertion order is
#: the byte-compatibility contract: the ``stats`` verb has rendered these
#: keys in exactly this order since service mode landed, and the snapshot
#: below iterates this mapping to preserve that.
_STAT_METRICS: Dict[str, str] = {
    "submitted": "serve.submitted",
    "coalesced": "serve.coalesced",
    "result_cache_hits": "serve.result_cache.hits",
    "result_cache_misses": "serve.result_cache.misses",
    "rejected_admission": "serve.rejected.admission",
    "rejected_queue_full": "serve.rejected.queue_full",
    "rejected_draining": "serve.rejected.draining",
    "rejected_invalid": "serve.rejected.invalid",
    "completed": "serve.jobs.completed",
    "failed": "serve.jobs.failed",
    "cancelled": "serve.jobs.cancelled",
}


class _Connection:
    """One accepted client socket plus its send lock and identity."""

    def __init__(self, sock: socket.socket, conn_id: int):
        self.sock = sock
        self.conn_id = conn_id
        self.default_client = f"conn-{conn_id}"
        self.send_lock = threading.Lock()
        self.alive = True

    def send(self, message: Dict[str, Any]) -> bool:
        """Send one wire line; returns ``False`` (and dies) on a broken peer."""
        data = encode(message)
        with self.send_lock:
            if not self.alive:
                return False
            try:
                self.sock.sendall(data)
                return True
            except OSError:
                self.alive = False
                return False


def coerce_params(specs: Tuple[ParamSpec, ...], params: Dict[str, Any]) -> Dict[str, Any]:
    """Apply ParamSpec types to string-valued JSON fields.

    A JSON client may send ``"2.0"`` where the table wants a float; the
    spec's ``type`` callable is exactly the converter the CLI would have
    applied.  Non-string values (already-typed JSON numbers, booleans,
    lists, ``null``) pass through untouched.
    """
    table = {spec.name: spec for spec in specs}
    coerced: Dict[str, Any] = {}
    for name, value in params.items():
        spec = table.get(name)
        if spec is not None and isinstance(value, str) and not spec.is_flag:
            try:
                value = spec.type(value)
            except (TypeError, ValueError) as error:
                raise ValueError(f"parameter {name!r}: {error}") from None
        coerced[name] = value
    return coerced


def submission_digest(experiment: str, params: Dict[str, Any]) -> str:
    """The content address submissions coalesce on.

    Canonical JSON over the *normalized* parameters, so two clients
    spelling the same job differently (string vs number, omitted default)
    still land on one digest.
    """
    import hashlib

    canonical = json.dumps(
        {"experiment": experiment, "params": params}, sort_keys=True, default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


def _reads_trace_files(grid) -> bool:
    """Whether a unit of ``grid`` reads a trace file when it runs."""
    specs = [unit.workload for unit in grid if hasattr(unit, "workload")]
    if not specs:  # no trial grid: leave the workload layer unimported
        return False
    from repro.workloads.registry import reads_trace_file

    return any(reads_trace_file(spec) for spec in specs)


class ServeDaemon:
    """The experiment service (see the module docstring for the contract).

    Parameters
    ----------
    socket_path / host, port:
        Exactly one listening endpoint: a Unix socket path, or a TCP
        ``host:port`` (``port=0`` picks a free port, readable from
        :attr:`address` after :meth:`start`).
    workers:
        Worker thread count (job-level parallelism).
    queue_depth:
        Bound on pending submissions (excess is rejected, 429).
    admission_rate / admission_burst:
        Per-client token-bucket parameters (jobs/second, burst capacity).
    job_timeout:
        Per-job wall-clock budget in seconds (checked between trials).
    retries:
        Re-attempts per crashed job before it parks as ``error``.
    stats_file:
        Where the final stats snapshot is flushed on shutdown.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        workers: int = 2,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        admission_rate: float = DEFAULT_ADMISSION_RATE,
        admission_burst: float = DEFAULT_ADMISSION_BURST,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        stats_file: Optional[str] = None,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of socket_path and port must be given")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.stats_file = stats_file
        self.queue = JobQueue(depth=queue_depth)
        self.admission = ServeAdmission(rate=admission_rate, burst=admission_burst)
        self.metrics = MetricRegistry()
        self.pool = WorkerPool(
            self.queue,
            n_workers=workers,
            job_timeout=job_timeout,
            retries=retries,
            on_event=self._on_job_event,
            metrics=self.metrics,
        )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: List[_Connection] = []
        self._jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, str] = {}  # digest -> job_id (latest)
        self._lock = threading.RLock()
        self._job_counter = 0
        self._conn_counter = 0
        self._started = time.monotonic()
        self._state = "stopped"
        # Stats-key -> Counter on the shared registry: the `stats` verb
        # renders these (insertion order preserved, values int-cast) exactly
        # as the pre-registry dict of plain ints did, while the `metrics`
        # verb expositions the same counters without a second bookkeeping
        # path that could drift.
        self._stats = {
            key: self.metrics.counter(name) for key, name in _STAT_METRICS.items()
        }

    # -- lifecycle ----------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def address(self) -> str:
        """The connectable address (resolved TCP port included)."""
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        """Bind the socket and start the acceptor and worker threads."""
        if self.socket_path is not None:
            path = Path(self.socket_path)
            if path.exists():
                path.unlink()  # stale socket from a killed daemon
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(64)
        self._listener = listener
        self._started = time.monotonic()
        self._state = "serving"
        self.pool.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()

    def drain(self) -> None:
        """Stop admitting; already-accepted jobs keep running."""
        self._state = "draining"

    def shutdown(self, timeout: Optional[float] = 30.0) -> Dict[str, Any]:
        """Graceful stop: drain, finish admitted jobs, flush stats.

        Returns the final stats snapshot (also written to ``stats_file``
        when configured).
        """
        self.drain()
        self.pool.wait_idle(timeout=timeout)
        self.pool.stop(timeout=timeout)
        self._state = "stopped"
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self.socket_path is not None:
            Path(self.socket_path).unlink(missing_ok=True)
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.sock.close()
            except OSError:
                pass
        snapshot = self.stats_snapshot()
        if self.stats_file is not None:
            Path(self.stats_file).write_text(
                json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        return snapshot

    def serve_until(self, stop: threading.Event) -> Dict[str, Any]:
        """Run until ``stop`` is set (the CLI's signal handlers set it)."""
        self.start()
        while not stop.wait(0.2):
            pass
        return self.shutdown()

    # -- socket plumbing -----------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # listener closed: shutdown
                return
            with self._lock:
                self._conn_counter += 1
                connection = _Connection(sock, self._conn_counter)
                self._connections.append(connection)
            thread = threading.Thread(
                target=self._client_loop,
                args=(connection,),
                name=f"repro-serve-conn-{connection.conn_id}",
                daemon=True,
            )
            thread.start()

    def _client_loop(self, connection: _Connection) -> None:
        try:
            reader = connection.sock.makefile("r", encoding="utf-8", newline="\n")
            for line in reader:
                if not line.strip():
                    continue
                response = self._handle_line(line, connection)
                if response is not None and not connection.send(response):
                    break
        except OSError:
            pass
        finally:
            connection.alive = False
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)
                for job in self._jobs.values():
                    if connection in job.subscribers:
                        job.subscribers.remove(connection)
            try:
                connection.sock.close()
            except OSError:
                pass

    # -- dispatch ------------------------------------------------------------

    def _handle_line(self, line: str, connection: _Connection) -> Optional[Dict[str, Any]]:
        try:
            request = parse_request(line)
        except ProtocolError as error:
            self._stats["rejected_invalid"].increment()
            return error_response("invalid", error.code, str(error))
        handler = getattr(self, f"_handle_{request['op']}")
        try:
            return handler(request, connection)
        except ProtocolError as error:
            extra = {} if error.retry_after is None else {"retry_after": error.retry_after}
            return error_response(
                request["op"], error.code, str(error), request.get("id"), **extra
            )

    def _get_job(self, request: Dict[str, Any]) -> Job:
        job_id = request.get("job")
        if not job_id:
            raise ProtocolError(400, f"{request['op']} requires a 'job' field")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(404, f"unknown job {job_id!r}")
        return job

    # -- verbs ---------------------------------------------------------------

    def _handle_submit(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        request_id = request.get("id")
        client = request.get("client") or connection.default_client
        if self._state != "serving":
            self._stats["rejected_draining"].increment()
            raise ProtocolError(503, "daemon is draining; not accepting submissions")
        name = request.get("experiment")
        if not name:
            raise ProtocolError(400, "submit requires an 'experiment' field")
        try:
            experiment = get_experiment(name)
        except Exception as error:
            # Loading imports the experiment's module, which can fail with
            # any exception, a KeyError included: only an unknown name is a 404.
            if name not in experiment_names():
                raise ProtocolError(404, str(error.args[0])) from None
            raise ProtocolError(
                500, f"cannot load experiment {name!r}: {type(error).__name__}: {error}"
            ) from None
        raw_params = request.get("params") or {}
        try:
            params = coerce_params(experiment.params, dict(raw_params))
            normalized, grid = experiment.plan(params)
        except (TypeError, ValueError) as error:
            raise ProtocolError(400, f"invalid parameters for {name!r}: {error}") from None
        digest = submission_digest(name, normalized)
        memoized = not _reads_trace_files(grid)
        stream = bool(request.get("stream"))

        # One lock span from the digest lookup through the queue push:
        # two concurrent identical submissions must observe each other, or
        # the coalescing promise ("identical submissions are served from
        # the shared cache") would race away exactly when it matters.
        with self._lock:
            existing_id = self._by_digest.get(digest) if memoized else None
            existing = self._jobs.get(existing_id) if existing_id else None
            if existing is not None and existing.state in ("queued", "running", "done"):
                existing.clients.append(client)
                if existing.state == "done":
                    self._stats["result_cache_hits"].increment()
                    cached = True
                else:
                    self._stats["coalesced"].increment()
                    cached = False
                if stream and not existing.finished and connection not in existing.subscribers:
                    existing.subscribers.append(connection)
                response = ok_response(
                    "submit",
                    request_id,
                    job=existing.job_id,
                    state=existing.state,
                    cached=cached,
                )
                if stream and existing.finished:
                    connection.send(response)
                    connection.send(end_event(existing.job_id, existing.state))
                    return None
                return response
            self._stats["result_cache_misses"].increment()

            admitted, retry_after = self.admission.admit(client)
            if not admitted:
                self._stats["rejected_admission"].increment()
                raise ProtocolError(
                    429,
                    f"client {client!r} exceeded the submission rate "
                    f"({self.admission.rate:g}/s, burst {self.admission.burst:g}); "
                    f"retry in {retry_after:.2f}s",
                    retry_after=retry_after,
                )
            self.metrics.counter("serve.jobs.admitted").increment()

            self._job_counter += 1
            job = Job(
                job_id=f"j-{self._job_counter:06d}",
                experiment=name,
                params={key: value for key, value in params.items()},
                digest=digest,
                total=len(grid),
                priority=int(request.get("priority") or 0),
                client=client,
            )
            if stream:
                job.subscribers.append(connection)
            try:
                self.queue.push(job)
            except QueueFull as error:
                self._stats["rejected_queue_full"].increment()
                raise ProtocolError(429, str(error)) from None
            self._jobs[job.job_id] = job
            if memoized:
                self._by_digest[digest] = job.job_id
            self._stats["submitted"].increment()
            self.metrics.counter("serve.jobs.queued").increment()
        return ok_response(
            "submit", request_id, job=job.job_id, state=job.state, cached=False
        )

    def _handle_status(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        job = self._get_job(request)
        summary = job.summary()
        state = summary.pop("state")
        return ok_response("status", request.get("id"), state=state, **summary)

    def _handle_result(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        job = self._get_job(request)
        if request.get("wait") and not job.finished:
            timeout = request.get("timeout")
            if not job.done_event.wait(timeout):
                raise ProtocolError(
                    408, f"job {job.job_id} still {job.state} after {timeout:g}s wait"
                )
        request_id = request.get("id")
        if job.state == "done":
            return ok_response(
                "result", request_id, job=job.job_id, state="done", result=job.result
            )
        if job.state == "error":
            error = dict(job.error or {})
            return error_response(
                "result",
                int(error.get("code", 500)),
                str(error.get("message", "job failed")),
                request_id,
                job=job.job_id,
                state="error",
            )
        if job.state == "cancelled":
            return error_response(
                "result", 409, f"job {job.job_id} was cancelled", request_id,
                job=job.job_id, state="cancelled",
            )
        return error_response(
            "result",
            409,
            f"job {job.job_id} is still {job.state} (pass \"wait\": true to block)",
            request_id,
            job=job.job_id,
            state=job.state,
        )

    def _handle_cancel(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        job = self._get_job(request)
        if job.finished:
            raise ProtocolError(409, f"job {job.job_id} already {job.state}")
        job.cancel_event.set()
        if job.state == "queued":
            # The queue skips cancelled entries on pop; finalise eagerly so
            # status flips without waiting for a worker to reach it.
            job.state = "cancelled"
            job.done_event.set()
            self._on_job_event(job)
        return ok_response("cancel", request.get("id"), job=job.job_id, state=job.state)

    def _handle_list(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        with self._lock:
            jobs = [self._jobs[key].summary() for key in sorted(self._jobs)]
        return ok_response("list", request.get("id"), jobs=jobs)

    def _handle_health(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        with self._lock:
            running = sum(1 for job in self._jobs.values() if job.state == "running")
        return ok_response(
            "health",
            request.get("id"),
            state=self._state,
            stats={
                "uptime_seconds": time.monotonic() - self._started,
                "queued": len(self.queue),
                "running": running,
                "workers": self.pool.n_workers,
                "protocol_version": protocol.SERVE_PROTOCOL_VERSION,
            },
        )

    def _handle_stats(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        return ok_response("stats", request.get("id"), stats=self.stats_snapshot())

    def _handle_metrics(
        self, request: Dict[str, Any], connection: _Connection
    ) -> Dict[str, Any]:
        return ok_response(
            "metrics", request.get("id"), exposition=self.metrics_exposition()
        )

    def metrics_exposition(self) -> str:
        """The registry as a Prometheus-style text exposition.

        Counters are live; the point-in-time gauges (queue depth, busy
        workers, uptime) are refreshed here so every scrape sees current
        values.
        """
        from repro.obs.exposition import render_exposition

        self.metrics.gauge("serve.queue.depth").set(len(self.queue))
        self.metrics.gauge("serve.queue.capacity").set(self.queue.depth)
        self.metrics.gauge("serve.workers.total").set(self.pool.n_workers)
        self.metrics.gauge("serve.workers.busy").set(self.pool.busy)
        self.metrics.gauge("serve.uptime.seconds").set(time.monotonic() - self._started)
        return render_exposition(self.metrics)

    def stats_snapshot(self) -> Dict[str, Any]:
        """Every counter the daemon keeps, as one JSON-ready object."""
        with self._lock:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            # int(): the counters predate the registry as plain ints; the
            # `stats` payload stays byte-for-byte what it rendered then.
            snapshot: Dict[str, Any] = {
                key: int(counter.value) for key, counter in self._stats.items()
            }
        snapshot.update(
            {
                "state": self._state,
                "uptime_seconds": time.monotonic() - self._started,
                "workers": self.pool.n_workers,
                "queue_depth": self.queue.depth,
                "queued": len(self.queue),
                "jobs_by_state": by_state,
                "admission": {
                    "rate_per_second": self.admission.rate,
                    "burst": self.admission.burst,
                    "admitted": self.admission.admitted_count,
                    "rejected": self.admission.rejected_count,
                },
            }
        )
        return snapshot

    # -- events --------------------------------------------------------------

    def _on_job_event(self, job: Job) -> None:
        """Worker callback: update counters and push events to subscribers."""
        if job.finished:
            with self._lock:
                if not getattr(job, "_counted", False):
                    job._counted = True  # type: ignore[attr-defined]
                    key = {"done": "completed", "error": "failed", "cancelled": "cancelled"}[
                        job.state
                    ]
                    self._stats[key].increment()
            message = end_event(job.job_id, job.state)
        else:
            message = progress_event(job.job_id, job.state, job.completed, job.total)
        with self._lock:
            subscribers = list(job.subscribers)
        for connection in subscribers:
            if not connection.send(message):
                # A vanished subscriber never kills the job: drop it and
                # keep computing for everyone else.
                with self._lock:
                    if connection in job.subscribers:
                        job.subscribers.remove(connection)
