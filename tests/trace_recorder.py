"""Structured round-trace recorder for the golden-trace and scenario tests.

:class:`~repro.protocols.base.SwappingProtocol` and
:class:`~repro.scenarios.perturbations.ScenarioContext` take a ``trace=``
argument: any object with a ``record(time, kind, payload)`` method.  This
recorder is that object.  A trace is an append-only list of ``(time, kind,
payload)`` records; ``to_jsonl`` serialises it with sorted keys, the byte
form ``tests/golden/*.jsonl`` pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One record in a trace."""

    time: float
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise the record as one JSON line."""
        return json.dumps({"time": self.time, "kind": self.kind, **self.payload}, sort_keys=True)


class TraceRecorder:
    """Collects :class:`TraceEvent` records during a protocol run.

    ``capacity`` caps the retained records: the oldest are dropped once it
    is exceeded, and ``dropped`` counts them.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._events: List[TraceEvent] = []
        self.dropped = 0

    def record(self, time: float, kind: str, payload: Optional[Dict[str, Any]] = None) -> None:
        self._events.append(TraceEvent(time=time, kind=kind, payload=dict(payload or {})))
        if self.capacity is not None and len(self._events) > self.capacity:
            overflow = len(self._events) - self.capacity
            del self._events[:overflow]
            self.dropped += overflow

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """The retained records, optionally only those of one ``kind``."""
        return [event for event in self._events if kind is None or event.kind == kind]

    def kinds(self) -> Dict[str, int]:
        """How many retained records each kind has."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        """Serialise the retained records as JSON lines."""
        return "\n".join(event.to_json() for event in self._events)

    def __len__(self) -> int:
        return len(self._events)
