"""Tests for repro.sim.clock."""

from __future__ import annotations

import pytest

from repro.sim.clock import SimulationClock


class TestSimulationClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now == 0.0

    def test_custom_start(self):
        assert SimulationClock(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimulationClock(-1.0)

    def test_advance_to(self):
        clock = SimulationClock()
        assert clock.advance_to(3.5) == 3.5
        assert clock.now == 3.5

    def test_advance_to_same_time_is_allowed(self):
        clock = SimulationClock(2.0)
        assert clock.advance_to(2.0) == 2.0

    def test_cannot_move_backwards(self):
        clock = SimulationClock(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_advance_by(self):
        clock = SimulationClock(1.0)
        assert clock.advance_by(2.0) == 3.0

    def test_advance_by_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulationClock().advance_by(-0.1)

    def test_reset(self):
        clock = SimulationClock(9.0)
        clock.reset()
        assert clock.now == 0.0

    def test_reset_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulationClock().reset(-1.0)
