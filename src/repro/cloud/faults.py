"""Fault injection.

The paper's property arguments (§3, §4.3) hinge on what survives when a
client crashes between cloud requests: P1/P2 decouple data from provenance
if the crash lands between the provenance write and the data write, while
P3's WAL lets another machine finish the transaction.

:class:`FaultPlan` arms named *crash points*.  Protocol code calls
:meth:`FaultPlan.crash_point` at each step boundary; if that point is
armed (and its countdown has reached zero) a
:class:`~repro.errors.ClientCrashError` propagates, abandoning all
in-memory client state while everything already applied to the simulated
services survives — exactly a machine crash from the cloud's point of
view.

Crash point names used by the protocols:

========================  =====================================================
``p1.after_prov_put``     P1: provenance object written, data object not yet
``p1.after_data_put``     P1: both writes done (crash after completion)
``p2.after_prov_put``     P2: SimpleDB items written, data object not yet
``p2.after_data_put``     P2: both writes done
``p3.mid_log``            P3: some WAL messages sent, transaction incomplete
``p3.after_log``          P3: WAL complete, commit daemon has not run
``p3.mid_commit``         P3: commit daemon crashed between commit steps
========================  =====================================================

Beyond single crashes, :class:`FaultSchedule` (reachable as
``FaultPlan.schedule``) describes *chaos over time* for kernel runs:
recurring crashes (kill the target every N virtual seconds), respawn
policies (bring a fresh process up after its predecessor dies — the
"any other machine can run a daemon against the same queue" claim made
executable), and network-degradation windows that scale the
environment's ``extra_latency_s`` and arm SQS duplicate delivery
between two virtual times.  The schedule is declarative; the simulation
kernel is the interpreter (see :mod:`repro.sim.kernel`).

Every schedule action the kernel interprets is also *observable*: firing
a crash, spawning a respawn, or opening/closing a degradation window
emits a structured ``fault.*`` event (target, incarnation, clock time)
into the account's telemetry event log — ``SimKernel.fault_events``
lists them, and the timeline exporter renders them as instant markers on
the Perfetto fault lane (see :mod:`repro.obs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.errors import ClientCrashError


@dataclass
class _ArmedPoint:
    """Countdown until the crash fires: 0 means "next hit crashes"."""

    remaining_skips: int = 0
    fired: bool = False


@dataclass
class TimedCrash:
    """A wall-of-virtual-time trigger: kill ``target`` at time ``at``.

    Crash points fire when code *reaches* a step boundary; timed crashes
    fire when the clock reaches ``at``, whatever the target is doing —
    "crash client 7 at t=42s".  The simulation kernel materialises armed
    timed crashes as events and kills the named process when they pop
    (``scheduled`` marks a crash the kernel has already enqueued).
    """

    target: str
    at: float
    fired: bool = False
    fired_at: float = -1.0
    scheduled: bool = False


@dataclass
class RecurringCrash:
    """Kill ``target`` every ``every_s`` virtual seconds.

    The first kill lands at ``start_at`` (default: one period in), then
    every period after that, up to ``times`` kills (``None`` means
    unbounded — the schedule outlives any one process, which is what
    makes it compose with a respawn policy: the respawned process is
    killed again on the next beat).  ``fired_at`` records every kill;
    ``next_at``/``scheduled`` are kernel bookkeeping.
    """

    target: str
    every_s: float
    start_at: float
    times: Optional[int] = None
    fired_at: List[float] = field(default_factory=list)
    next_at: float = 0.0
    scheduled: bool = False

    def exhausted(self) -> bool:
        return self.times is not None and len(self.fired_at) >= self.times


@dataclass
class RespawnRecord:
    """Bookkeeping for one respawn: when the target died, the delay the
    policy chose (after backoff), and the virtual time the replacement
    was scheduled to start.  The *actual* first activation can land
    later than ``scheduled_at`` when the clock has already jumped past
    it (an experiment's settle); tests assert the scheduled-vs-actual
    gap from here plus the replacement process's time domain."""

    died_at: float
    delay_s: float
    scheduled_at: float


@dataclass
class RespawnPolicy:
    """Bring ``target`` back ``delay_s`` after it crashes.

    ``factory`` builds the replacement generator — typically a *fresh*
    object's process (e.g. a new ``CommitDaemon.process()``) resuming
    from durable service state, exactly the paper's recovery story: the
    WAL queue, not the dead process's memory, is the authority.  The
    kernel spawns the replacement under the same process name, so timed
    and recurring crashes aimed at that name keep applying to it.

    With ``base_delay_s`` set the policy backs off exponentially and
    deterministically: the n-th respawn (1-based) waits
    ``base_delay_s * multiplier**(n-1)`` seconds, capped at
    ``max_delay_s`` — a crash-looping target stops hot-respawning
    without any jitter that would break same-seed replay.  The default
    (``base_delay_s=None``) keeps the flat ``delay_s`` behaviour, so
    existing chaos schedules replay byte-identically.
    """

    target: str
    factory: Callable[[], Generator]
    delay_s: float = 1.0
    max_respawns: Optional[int] = None
    #: Backoff: first-respawn delay.  ``None`` means "no backoff, use
    #: the flat ``delay_s`` every time" (the pre-supervisor behaviour).
    base_delay_s: Optional[float] = None
    #: Backoff growth factor per successive respawn (>= 1).
    multiplier: float = 2.0
    #: Backoff ceiling; ``None`` leaves the growth uncapped.
    max_delay_s: Optional[float] = None
    #: Number of respawns performed so far (kernel bookkeeping).
    respawns: int = 0
    #: Virtual times at which replacements were scheduled.
    respawned_at: List[float] = field(default_factory=list)
    #: One :class:`RespawnRecord` per respawn — the scheduled delay (and
    #: time) each death actually got, for scheduled-vs-actual assertions.
    log: List[RespawnRecord] = field(default_factory=list)

    def exhausted(self) -> bool:
        return self.max_respawns is not None and self.respawns >= self.max_respawns

    def delay_for(self, respawn_index: int) -> float:
        """Delay the ``respawn_index``-th respawn (0-based) waits: the
        flat ``delay_s`` without backoff, else the capped exponential."""
        if self.base_delay_s is None:
            return self.delay_s
        delay = self.base_delay_s * (self.multiplier ** respawn_index)
        if self.max_delay_s is not None:
            delay = min(delay, self.max_delay_s)
        return delay


@dataclass
class DegradationWindow:
    """Degrade the network between virtual times ``t1`` and ``t2``.

    While the window is open the environment's per-request
    ``extra_latency_s`` becomes ``baseline * latency_scale +
    add_latency_s`` (both knobs exist because the EC2 baseline is 0.0 —
    a pure multiplier could never degrade it), and, when
    ``duplicate_delivery_rate`` is set, SQS delivers duplicates at that
    rate (the at-least-once behaviour a flaky network amplifies).  At
    ``t2`` the kernel restores exactly what it saved at ``t1``.
    Windows must not overlap: each restores the state it captured, so
    overlapping windows would resurrect a mid-degradation baseline.

    A window can also degrade a *single shard* instead of the whole
    network: with ``domain`` set, that SimpleDB domain's indexing
    pipeline runs ``item_scale`` times slower for the window's duration
    (the per-domain ingest ceiling of §5, temporarily collapsed on one
    shard) while every other shard keeps its baseline throughput —
    service-tier chaos for the shard-routed deployment.
    """

    t1: float
    t2: float
    latency_scale: float = 1.0
    add_latency_s: float = 0.0
    duplicate_delivery_rate: Optional[float] = None
    #: When set, only this SimpleDB domain's indexer pipeline degrades.
    domain: Optional[str] = None
    #: Per-item indexing slowdown applied to ``domain`` while open.
    item_scale: float = 1.0
    applied: bool = False
    restored: bool = False
    scheduled: bool = False
    #: What the kernel saved at t1 (restored verbatim at t2).
    saved_environment: object = None
    saved_duplicate_rate: float = 0.0
    saved_item_scale: float = 1.0


@dataclass
class FaultSchedule:
    """A declarative chaos timetable, interpreted by the kernel."""

    recurring: List[RecurringCrash] = field(default_factory=list)
    respawns: Dict[str, RespawnPolicy] = field(default_factory=dict)
    windows: List[DegradationWindow] = field(default_factory=list)

    def crash_every(
        self,
        target: str,
        every_s: float,
        start_at: Optional[float] = None,
        times: Optional[int] = None,
    ) -> RecurringCrash:
        """Arm a recurring kill of ``target``; first at ``start_at``
        (default one period in), then every ``every_s`` seconds."""
        if every_s <= 0:
            raise ValueError(f"every_s must be positive (got {every_s})")
        first = every_s if start_at is None else start_at
        if first < 0:
            raise ValueError(f"cannot schedule a crash before t=0 (at={first})")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1 when given (got {times})")
        crash = RecurringCrash(
            target=target, every_s=every_s, start_at=first, times=times,
            next_at=first,
        )
        self.recurring.append(crash)
        return crash

    def respawn(
        self,
        target: str,
        factory: Callable[[], Generator],
        delay_s: float = 1.0,
        max_respawns: Optional[int] = None,
        base_delay_s: Optional[float] = None,
        multiplier: float = 2.0,
        max_delay_s: Optional[float] = None,
    ) -> RespawnPolicy:
        """Register a respawn policy for ``target`` (one per target;
        re-registering replaces the previous policy).  Passing
        ``base_delay_s`` switches the policy to deterministic
        exponential backoff (see :class:`RespawnPolicy`)."""
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0 (got {delay_s})")
        if base_delay_s is not None and base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0 (got {base_delay_s})")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1 (got {multiplier})")
        if max_delay_s is not None:
            if base_delay_s is None:
                raise ValueError("max_delay_s needs base_delay_s")
            if max_delay_s < base_delay_s:
                raise ValueError(
                    f"max_delay_s ({max_delay_s}) must be >= base_delay_s "
                    f"({base_delay_s})"
                )
        policy = RespawnPolicy(
            target=target, factory=factory, delay_s=delay_s,
            max_respawns=max_respawns, base_delay_s=base_delay_s,
            multiplier=multiplier, max_delay_s=max_delay_s,
        )
        self.respawns[target] = policy
        return policy

    def degrade(
        self,
        t1: float,
        t2: float,
        latency_scale: float = 1.0,
        add_latency_s: float = 0.0,
        duplicate_delivery_rate: Optional[float] = None,
        domain: Optional[str] = None,
        item_scale: float = 1.0,
    ) -> DegradationWindow:
        """Arm a degradation window over [t1, t2).  With ``domain`` set,
        ``item_scale`` slows only that shard's indexing pipeline."""
        if t1 < 0 or t2 <= t1:
            raise ValueError(
                f"degradation window needs 0 <= t1 < t2 (got t1={t1}, t2={t2})"
            )
        if latency_scale < 0 or add_latency_s < 0:
            raise ValueError("degradation knobs must be non-negative")
        if item_scale < 1.0:
            raise ValueError(f"item_scale must be >= 1 (got {item_scale})")
        if item_scale != 1.0 and domain is None:
            raise ValueError("item_scale needs a target domain")
        window = DegradationWindow(
            t1=t1, t2=t2, latency_scale=latency_scale,
            add_latency_s=add_latency_s,
            duplicate_delivery_rate=duplicate_delivery_rate,
            domain=domain, item_scale=item_scale,
        )
        self.windows.append(window)
        return window


@dataclass
class FaultPlan:
    """Arms crash points and counts how often each point was passed."""

    _armed: Dict[str, _ArmedPoint] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)
    _timed: List[TimedCrash] = field(default_factory=list)
    #: The chaos timetable (recurring crashes, respawns, degradation
    #: windows), interpreted by the simulation kernel.
    schedule: FaultSchedule = field(default_factory=FaultSchedule)

    def arm_crash(self, point: str, skip: int = 0) -> None:
        """Arm ``point`` so that its ``skip+1``-th hit raises
        :class:`ClientCrashError`."""
        self._armed[point] = _ArmedPoint(remaining_skips=skip)

    def disarm(self, point: str) -> None:
        """Remove the armed crash at ``point`` (idempotent)."""
        self._armed.pop(point, None)

    def disarm_all(self) -> None:
        self._armed.clear()

    def crash_point(self, point: str) -> None:
        """Called by protocol code at each step boundary."""
        self.hits[point] = self.hits.get(point, 0) + 1
        armed = self._armed.get(point)
        if armed is None or armed.fired:
            return
        if armed.remaining_skips > 0:
            armed.remaining_skips -= 1
            return
        armed.fired = True
        raise ClientCrashError(point)

    def fired(self, point: str) -> bool:
        """Whether the armed crash at ``point`` has already gone off."""
        armed = self._armed.get(point)
        return armed is not None and armed.fired

    # -- timed crashes ("crash client 7 at t=42s") ---------------------------

    def arm_timed_crash(self, target: str, at: float) -> TimedCrash:
        """Arm a crash that kills process ``target`` at virtual time
        ``at``.  Consumed by the simulation kernel."""
        if at < 0:
            raise ValueError(f"cannot arm a crash before t=0 (at={at})")
        crash = TimedCrash(target=target, at=at)
        self._timed.append(crash)
        return crash

    def timed_crashes_for(self, target: str) -> List[TimedCrash]:
        """Armed timed crashes naming ``target``, in arming order."""
        return [crash for crash in self._timed if crash.target == target]

    def fire_timed_crash(self, target: str, now: float) -> None:
        """Mark every due timed crash for ``target`` as fired."""
        for crash in self._timed:
            if crash.target == target and not crash.fired and crash.at <= now:
                crash.fired = True
                crash.fired_at = now


#: A plan with nothing armed — the default for healthy runs.
NO_FAULTS = FaultPlan()
