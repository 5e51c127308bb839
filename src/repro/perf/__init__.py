"""Performance layer: the serve-prefix scan and the profiling harness.

Split across five modules:

* :mod:`repro.perf.kernels` — :func:`~repro.perf.kernels.servable_prefix`,
  the consumption phase's blockwise NumPy scan.  Import-light on purpose:
  the protocol layer imports it on every run.
* :mod:`repro.perf.timing` — warmup + median-of-k wall-clock timing for the
  ``benchmarks/`` gates.
* :mod:`repro.perf.profiler` — ``repro profile <experiment>``: run a
  registered experiment under cProfile and emit a schema-validated report.
* :mod:`repro.perf.schemas` — the profile report's JSON schema and its
  ``python -m repro.perf.schemas`` validator.
* :mod:`repro.perf.bench` — run provenance (git revision, machine
  fingerprint) for the telemetry manifest and the ``perfbench/`` reports.

Only the scan is re-exported here; the profiler imports the experiment
layer and is loaded on demand by the CLI.
"""

from repro.perf.kernels import servable_prefix

__all__ = ["servable_prefix"]
