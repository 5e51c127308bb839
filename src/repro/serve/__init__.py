"""Service mode: the long-running ``repro serve`` experiment daemon.

The subsystem that turns the experiment registry into a network service:

* :mod:`repro.serve.protocol` -- the newline-delimited JSON wire protocol
  (verbs, schemas, structured errors), checked in at
  ``docs/schemas/serve-protocol.schema.json``.
* :mod:`repro.serve.queue` -- the job table and the bounded priority queue.
* :mod:`repro.serve.admission` -- per-client token-bucket admission over
  the PR-5 workloads controller.
* :mod:`repro.serve.worker` -- the worker pool executing jobs through the
  PR-1 sweep runner with progress streaming, timeouts and crash retries.
* :mod:`repro.serve.daemon` -- the socket server tying it all together,
  with submission coalescing and graceful SIGTERM drain.
* :mod:`repro.serve.client` -- the blocking client ``repro submit`` wraps.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serve.admission": ("ServeAdmission",),
        "repro.serve.client": ("ServeClient", "ServeError"),
        "repro.serve.daemon": ("ServeDaemon",),
        "repro.serve.protocol": ("JOB_STATES", "SERVE_PROTOCOL_VERSION", "VERBS", "ProtocolError"),
        "repro.serve.queue": ("Job", "JobQueue", "QueueFull"),
        "repro.serve.worker": ("WorkerPool",),
    },
)
