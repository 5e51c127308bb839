"""Simulation substrate for the path-oblivious swapping reproduction.

The engine is :mod:`repro.sim.rounds`, a synchronous round-based simulator
that matches the count-level dynamics described in Section 5 of the paper
(generation, balancing swaps and ordered consumption proceed in lock-step
rounds).

Shared infrastructure lives alongside it: deterministic named RNG streams
(:mod:`repro.sim.rng`), metric collectors (:mod:`repro.sim.metrics`) and
structured trace recording (:mod:`repro.sim.tracing`).
"""

from repro.sim.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.rounds import RoundBasedSimulator, RoundHook, RoundPhase
from repro.sim.tracing import TraceEvent, TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "RandomStreams",
    "RoundBasedSimulator",
    "RoundHook",
    "RoundPhase",
    "TraceEvent",
    "TraceRecorder",
    "derive_seed",
]
