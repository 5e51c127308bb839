"""Simulation substrate for the path-oblivious swapping reproduction.

The round loop itself is :meth:`repro.protocols.base.SwappingProtocol.run`
(generation, balancing swaps and ordered consumption proceed in lock-step
rounds, the count-level dynamics of Section 5 of the paper).  This package
holds the infrastructure it and the rest of the code share: deterministic
named RNG streams (:mod:`repro.sim.rng`), metric collectors
(:mod:`repro.sim.metrics`) and structured trace recording
(:mod:`repro.sim.tracing`).

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest (``repro serve`` and the telemetry
hub read ``sim.metrics`` before any numpy is loaded).
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sim.metrics": ("Counter", "Gauge", "Histogram", "MetricRegistry"),
        "repro.sim.rng": ("RandomStreams", "derive_seed"),
        "repro.sim.tracing": ("TraceEvent", "TraceRecorder"),
    },
)
