"""Event taxonomy for time-stamped simulation traces.

Keeping the vocabulary of simulation events in one place makes traces and
metrics comparable across protocols: a planned-path run and a
path-oblivious run that record :class:`SimEvent` values emit the same event
types and can be diffed directly.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class EventType(enum.Enum):
    """The kinds of events a quantum-network simulation records."""

    #: A generation link attempts to produce a new elementary Bell pair.
    GENERATION = "generation"
    #: A repeater performs an entanglement swap.
    SWAP = "swap"
    #: A node-pair consumes a Bell pair (e.g. for teleportation).
    CONSUMPTION = "consumption"
    #: A distillation (purification) round combines two pairs into one.
    DISTILLATION = "distillation"
    #: A stored Bell pair decoheres and is discarded.
    DECOHERENCE = "decoherence"
    #: A classical control message is delivered.
    CLASSICAL_MESSAGE = "classical_message"
    #: A new end-to-end entanglement request arrives.
    REQUEST_ARRIVAL = "request_arrival"
    #: A request gives up waiting (used by timeout / cutoff policies).
    REQUEST_TIMEOUT = "request_timeout"
    #: Periodic protocol timer (e.g. a balancing round trigger).
    TIMER = "timer"
    #: A scenario perturbation fires (link failure, node churn, demand drift, ...).
    SCENARIO = "scenario"
    #: End of simulation marker.
    END_OF_SIMULATION = "end_of_simulation"


_EVENT_SEQUENCE = itertools.count()


@dataclass(order=False)
class SimEvent:
    """A time-stamped simulation event.

    Events compare by ``(time, priority, sequence)`` so that ties at the same
    timestamp are broken first by explicit priority and then by creation
    order, which keeps runs deterministic.
    """

    time: float
    event_type: EventType
    payload: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    sequence: int = field(default_factory=lambda: next(_EVENT_SEQUENCE))
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event as cancelled, so a consumer skips it."""
        self.cancelled = True

    def sort_key(self) -> tuple:
        """The total order of events."""
        return (self.time, self.priority, self.sequence)

    def __lt__(self, other: "SimEvent") -> bool:
        return self.sort_key() < other.sort_key()

    def describe(self) -> str:
        """A short human-readable description for traces and logs."""
        return f"t={self.time:.6g} {self.event_type.value} {self.payload}"


def make_timer(time: float, name: str, interval: Optional[float] = None) -> SimEvent:
    """Create a :data:`EventType.TIMER` event.

    Parameters
    ----------
    time:
        Absolute simulated time at which the timer fires.
    name:
        Identifier the handler uses to recognise the timer.
    interval:
        Optional repeat interval the handler may use to reschedule itself.
    """
    payload: Dict[str, Any] = {"name": name}
    if interval is not None:
        payload["interval"] = interval
    return SimEvent(time=time, event_type=EventType.TIMER, payload=payload)
