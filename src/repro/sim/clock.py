"""Simulation clock.

A tiny shared abstraction so that the round-based engine exposes the
current simulated time the same way to the metric and tracing subsystems.
"""

from __future__ import annotations


class SimulationClock:
    """A monotonically non-decreasing simulated clock.

    The clock refuses to move backwards; round-based simulators advance it
    by one unit per round.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to ``timestamp``.

        Raises
        ------
        ValueError
            If ``timestamp`` is earlier than the current time.
        """
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    def advance_by(self, delta: float) -> float:
        """Move the clock forward by a non-negative ``delta``."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        self._now += float(delta)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock to ``start`` (defaults to zero)."""
        if start < 0:
            raise ValueError(f"clock cannot reset to negative time {start}")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulationClock(now={self._now})"
