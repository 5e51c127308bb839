"""Round-based (synchronous) simulation engine.

Section 5 of the paper evaluates the balancing protocol with count-level
dynamics: Bell pairs are generated, nodes perform balancing swaps "at an
identical rate", and an ordered sequence of consumption requests is served.
A synchronous round abstraction captures this exactly and is cheap enough
for the figure-level parameter sweeps.

Each round executes three phases in a fixed order:

1. ``GENERATION``   -- generation links add new Bell pairs,
2. ``BALANCING``    -- every node gets the chance to perform swaps,
3. ``CONSUMPTION``  -- the head-of-line consumption requests are served.

Protocol code attaches :class:`RoundHook` callbacks to phases; the simulator
owns the loop, the round count and the termination conditions; trace
records are stamped with the index of the round that made them.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.spans import telemetry_enabled
from repro.sim.metrics import MetricRegistry
from repro.sim.tracing import TraceRecorder


class RoundPhase(enum.Enum):
    """The phases executed, in order, within every simulation round."""

    GENERATION = "generation"
    BALANCING = "balancing"
    CONSUMPTION = "consumption"
    BOOKKEEPING = "bookkeeping"


#: The phases in execution order, each with its ``phase_seconds`` key
#: (``Enum.value`` is a descriptor lookup, too slow for a per-round loop).
_PHASE_ORDER = tuple((phase, phase.value) for phase in RoundPhase)

#: A phase callback.  It receives the current round index and may return
#: ``True`` to request that the simulation stop at the end of this round.
RoundHook = Callable[[int], Optional[bool]]


@dataclass
class RoundResult:
    """Summary of one completed round (used by tests and tracing)."""

    round_index: int
    stop_requested: bool


class RoundBasedSimulator:
    """Synchronous simulator executing phased rounds until a stop condition.

    Parameters
    ----------
    max_rounds:
        Hard upper bound on the number of rounds (guards against runs whose
        stop condition can never be met, e.g. an infeasible demand).
    metrics, trace:
        Optional shared metric registry and trace recorder.
    """

    def __init__(
        self,
        max_rounds: int = 1_000_000,
        metrics: Optional[MetricRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        self.max_rounds = int(max_rounds)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.trace = trace
        self._hooks: Dict[RoundPhase, List[RoundHook]] = {phase: [] for phase in RoundPhase}
        self._stop_predicates: List[Callable[[int], bool]] = []
        self.completed_rounds = 0
        #: Cumulative wall-clock seconds spent per phase, filled only while
        #: telemetry is enabled (the flag is cached once per simulator so
        #: the per-phase cost while disabled is a single branch).
        self.phase_seconds: Dict[str, float] = {phase.value: 0.0 for phase in RoundPhase}
        self._timed = telemetry_enabled()

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def add_hook(self, phase: RoundPhase, hook: RoundHook) -> None:
        """Register ``hook`` to run during ``phase`` of every round."""
        self._hooks[phase].append(hook)

    def add_stop_condition(self, predicate: Callable[[int], bool]) -> None:
        """Register a predicate evaluated after every round; ``True`` stops the run."""
        self._stop_predicates.append(predicate)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, rounds: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        rounds:
            Optional explicit number of rounds to run.  When omitted, the
            simulation runs until a stop condition (or hook) requests a stop
            or ``max_rounds`` is reached.

        Returns
        -------
        int
            The number of rounds completed during this call.
        """
        limit = self.max_rounds if rounds is None else min(rounds, self.max_rounds)
        executed = 0
        while executed < limit:
            result = self.step()
            executed += 1
            if result.stop_requested:
                break
            if any(predicate(result.round_index) for predicate in self._stop_predicates):
                break
        return executed

    def step(self) -> RoundResult:
        """Execute exactly one round and return its summary."""
        round_index = self.completed_rounds
        stop_requested = False
        for phase, key in _PHASE_ORDER:
            if self._timed:
                phase_start = time.perf_counter()
                for hook in self._hooks[phase]:
                    outcome = hook(round_index)
                    if outcome:
                        stop_requested = True
                self.phase_seconds[key] += time.perf_counter() - phase_start
            else:
                for hook in self._hooks[phase]:
                    outcome = hook(round_index)
                    if outcome:
                        stop_requested = True
            if self.trace is not None:
                self.trace.record(float(round_index), f"phase.{key}", {"round": round_index})
        self.completed_rounds += 1
        return RoundResult(round_index=round_index, stop_requested=stop_requested)
