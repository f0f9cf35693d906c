"""Virtual clock.

Every simulated service charges operation time against a shared
:class:`VirtualClock` instead of sleeping.  Benchmarks therefore complete in
milliseconds of wall time while reporting realistic elapsed seconds, and —
because the clock is deterministic — repeated runs of the same experiment
produce identical numbers unless the seed changes.
"""

from __future__ import annotations

import math


class VirtualClock:
    """A monotonically non-decreasing simulated clock, in seconds.

    The clock supports two usage styles:

    - ``advance(dt)`` — move time forward by ``dt`` seconds (sequential
      work),
    - ``advance_to(t)`` — jump to an absolute time, used by the parallel
      scheduler after it computes the makespan of a request batch.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds since the epoch of the run."""
        return self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds and return the new time.
        ``dt`` must be finite and non-negative: a NaN or infinite step
        would leave the clock at a time no read can be visible at."""
        if not 0 <= dt < math.inf:
            raise ValueError(
                f"can only advance clock by a finite dt >= 0 (got dt={dt})"
            )
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance the clock to absolute time ``t`` (no-op if in the past)."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.3f}s)"


class TimeDomain:
    """Per-process accounting of virtual time.

    The simulation kernel gives every process its own time domain: the
    shared :class:`VirtualClock` orders events globally, while the domain
    records what *this* process's timeline looked like — when it first
    ran, how much virtual time it spent executing charged work (busy)
    versus sleeping between activations (idle), and when it finished.
    The paper excludes commit-daemon time from client elapsed times;
    under the kernel that falls out naturally because the daemon's busy
    time accrues to its own domain, not the client's.
    """

    def __init__(self, name: str):
        self.name = name
        self.busy_s = 0.0
        self.idle_s = 0.0
        self.activations = 0
        self.started_at: float = -1.0
        self.finished_at: float = -1.0
        self._last_seen = 0.0

    def activate(self, now: float) -> None:
        """Record one activation at virtual time ``now``."""
        if self.started_at < 0:
            self.started_at = now
        self.activations += 1
        self._last_seen = now

    def charge_busy(self, dt: float) -> None:
        self.busy_s += dt

    def charge_idle(self, dt: float) -> None:
        self.idle_s += dt

    def finish(self, now: float) -> None:
        if self.finished_at < 0:
            self.finished_at = now
        self._last_seen = now

    @property
    def elapsed(self) -> float:
        """Virtual seconds from first activation to completion (or to the
        latest activation while still running)."""
        if self.started_at < 0:
            return 0.0
        end = self.finished_at if self.finished_at >= 0 else self._last_seen
        return end - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeDomain({self.name!r}, busy={self.busy_s:.3f}s, "
            f"idle={self.idle_s:.3f}s, activations={self.activations})"
        )


class Stopwatch:
    """Measures elapsed virtual time across a region of code.

    Example::

        sw = Stopwatch(clock)
        ... run simulated work ...
        elapsed = sw.elapsed()
    """

    def __init__(self, clock: VirtualClock):
        self._clock = clock
        self._start = clock.now

    def restart(self) -> None:
        """Reset the stopwatch origin to the current time."""
        self._start = self._clock.now

    def elapsed(self) -> float:
        """Virtual seconds since construction (or the last restart)."""
        return self._clock.now - self._start
