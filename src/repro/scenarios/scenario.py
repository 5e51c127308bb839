"""The declarative :class:`Scenario` and its round-based driver.

A scenario is an ordered list of :class:`~repro.scenarios.perturbations.
Perturbation` objects.  It is pure data: building one performs no mutation,
and the same scenario can drive any number of trials.  :class:`ScenarioDriver`
runs it: a :class:`~repro.sim.rounds.RoundBasedSimulator` hook registered
*before* the generation phase, so a round's perturbations land before that
round's generation, balancing and consumption (the protocol reacts in the
same round the condition changes).

``Scenario.digest()`` is a stable content address over the declarative
description.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.scenarios.perturbations import Perturbation, ScenarioContext


class Scenario:
    """An ordered, named collection of perturbations.

    Perturbations are kept sorted by ``(trigger, insertion order)``; ties at
    the same trigger apply in the order given, which keeps runs
    deterministic.
    """

    def __init__(self, name: str, perturbations: Iterable[Perturbation] = ()):
        if not name:
            raise ValueError("a scenario needs a non-empty name")
        self.name = name
        ordered = list(perturbations)
        for perturbation in ordered:
            if perturbation.trigger < 0:
                raise ValueError(
                    f"perturbation triggers must be non-negative, got {perturbation.trigger}"
                )
        ordered.sort(key=lambda p: p.trigger)  # stable: insertion order breaks ties
        self.perturbations: Tuple[Perturbation, ...] = tuple(ordered)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.perturbations)

    def __iter__(self) -> Iterator[Perturbation]:
        return iter(self.perturbations)

    def last_trigger(self) -> float:
        """The latest trigger in the scenario (0.0 when empty)."""
        if not self.perturbations:
            return 0.0
        return max(perturbation.trigger for perturbation in self.perturbations)

    def describe(self) -> dict:
        """Plain-data description of the whole scenario."""
        return {
            "name": self.name,
            "perturbations": [perturbation.describe() for perturbation in self.perturbations],
        }

    def digest(self) -> str:
        """Stable SHA-256 content address of the scenario's description.

        Any change -- a trigger, an edge, a parameter, the ordering -- yields
        a different digest.
        """
        canonical = json.dumps(self.describe(), sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario(name={self.name!r}, perturbations={len(self.perturbations)})"


class ScenarioDriver:
    """Applies a scenario's perturbations to a round-based simulation.

    Register :meth:`on_round` as the *first* ``GENERATION`` hook; it fires
    every perturbation whose trigger has been reached and whose predicate
    (if any) holds.  Predicate-gated perturbations whose predicate is not
    yet true stay pending and are re-evaluated every subsequent round.
    """

    def __init__(self, scenario: Scenario, context: ScenarioContext):
        self.scenario = scenario
        self.context = context
        self._pending: List[Perturbation] = list(scenario.perturbations)
        self.applied: List[Perturbation] = []

    @property
    def exhausted(self) -> bool:
        """Whether every perturbation has fired."""
        return not self._pending

    def on_round(self, round_index: int) -> None:
        """Round hook: apply everything due at ``round_index``."""
        if not self._pending:
            return None
        self.context.now = float(round_index)
        still_pending: List[Perturbation] = []
        for perturbation in self._pending:
            if perturbation.trigger <= round_index and perturbation.ready(self.context):
                perturbation.apply(self.context)
                self.applied.append(perturbation)
            else:
                still_pending.append(perturbation)
        self._pending = still_pending
        return None


def merge_scenarios(name: str, scenarios: Sequence[Scenario]) -> Scenario:
    """Compose several scenarios into one (perturbations interleaved by trigger)."""
    merged: List[Perturbation] = []
    for scenario in scenarios:
        merged.extend(scenario.perturbations)
    return Scenario(name, merged)
