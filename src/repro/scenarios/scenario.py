"""The declarative :class:`Scenario` and its round-based driver.

A scenario is an ordered list of :class:`~repro.scenarios.perturbations.
Perturbation` objects.  It is pure data: building one performs no mutation,
and the same scenario can drive any number of trials.  :class:`ScenarioDriver`
runs it: :meth:`~repro.protocols.base.SwappingProtocol.run` calls
:meth:`ScenarioDriver.on_round` at the start of every round, before
generation, so a round's perturbations land before that round's
generation, balancing and consumption (the protocol reacts in the same
round the condition changes).
"""

from __future__ import annotations

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario(name={self.name!r}, perturbations={len(self.perturbations)})"


class ScenarioDriver:
    """Applies a scenario's perturbations to a protocol run.

    The run calls :meth:`on_round` first thing in every round; it fires
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
        """Apply everything due at ``round_index``."""
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
