"""Simulation substrate for the path-oblivious swapping reproduction.

The engine is :mod:`repro.sim.rounds`, a synchronous round-based simulator
that matches the count-level dynamics described in Section 5 of the paper
(generation, balancing swaps and ordered consumption proceed in lock-step
rounds).

Shared infrastructure lives alongside it: deterministic named RNG streams
(:mod:`repro.sim.rng`), metric collectors (:mod:`repro.sim.metrics`) and
structured trace recording (:mod:`repro.sim.tracing`).

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
        "repro.sim.rounds": ("RoundBasedSimulator", "RoundHook", "RoundPhase"),
        "repro.sim.tracing": ("TraceEvent", "TraceRecorder"),
    },
)
