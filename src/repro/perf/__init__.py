"""Performance layer: kernel registry, profiling harness, BENCH trajectory.

Split across four modules:

* :mod:`repro.perf.kernels` — the (reference, accelerated) kernel pairs and
  the ``REPRO_KERNELS`` backend switch.  Import-light on purpose: the
  result cache pulls :func:`~repro.perf.kernels.active_backend` into every
  cache-key computation.
* :mod:`repro.perf.timing` — warmup + median-of-k wall-clock timing, shared
  by the benchmark suite and the BENCH emitter.
* :mod:`repro.perf.profiler` — ``repro profile <experiment>``: run a
  registered experiment under cProfile and emit a schema-validated report.
* :mod:`repro.perf.bench` — ``repro bench``: the quick deterministic
  benchmark trajectory written to ``BENCH_10.json``.

Only the kernels API is re-exported here; the profiler and bench modules
import the experiment layer and are loaded on demand by the CLI.
"""

from repro.perf.kernels import (
    DEFAULT_BACKEND,
    KERNEL_BACKENDS,
    KERNEL_REGISTRY,
    KERNELS_ENV,
    KernelPair,
    active_backend,
    available_backends,
    candidate_block,
    get_kernel,
    kernel_names,
    numba_available,
    requested_backend,
    servable_prefix,
)

__all__ = [
    "DEFAULT_BACKEND",
    "KERNEL_BACKENDS",
    "KERNEL_REGISTRY",
    "KERNELS_ENV",
    "KernelPair",
    "active_backend",
    "available_backends",
    "candidate_block",
    "get_kernel",
    "kernel_names",
    "numba_available",
    "requested_backend",
    "servable_prefix",
]
