"""Performance layer: the profiling harness and run provenance.

Split across four modules:

* :mod:`repro.perf.profiler` — ``repro profile <experiment>``: run a
  registered experiment under cProfile and emit a schema-validated report.
* :mod:`repro.perf.schemas` — the profile report's JSON schema and its
  ``python -m repro.perf.schemas`` validator.
* :mod:`repro.perf.bench` — run provenance (git revision, machine
  fingerprint) for the telemetry manifest and the ``perfbench/`` reports.
* :mod:`repro.perf.kernels` — the kernel backend name those reports record.

Nothing is re-exported here: the profiler imports the experiment layer
and is loaded on demand by the CLI.
"""
