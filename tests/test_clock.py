"""Tests for the virtual clock."""

import pytest

from repro.cloud.clock import Stopwatch, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.5) == 3.0
        assert clock.now == 3.0

    def test_advance_zero_is_noop(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_advance_rejected_and_clock_unchanged(self, dt):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ValueError):
            clock.advance(dt)
        assert clock.now == 5.0
        assert clock.advance(1.0) == 6.0

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0

    def test_monotonic_under_mixed_ops(self):
        clock = VirtualClock()
        last = clock.now
        for step in (1.0, 0.0, 3.5):
            clock.advance(step)
            assert clock.now >= last
            last = clock.now
        clock.advance_to(last - 1)
        assert clock.now == last


class TestStopwatch:
    def test_elapsed(self):
        clock = VirtualClock()
        stopwatch = Stopwatch(clock)
        clock.advance(4.0)
        assert stopwatch.elapsed() == 4.0

    def test_restart(self):
        clock = VirtualClock()
        stopwatch = Stopwatch(clock)
        clock.advance(4.0)
        stopwatch.restart()
        clock.advance(1.5)
        assert stopwatch.elapsed() == 1.5
