"""The discrete-event simulation kernel.

:class:`SimKernel` owns an event heap of scheduled process activations
over one :class:`~repro.cloud.account.CloudAccount`'s virtual clock and
makespan scheduler (the clock and scheduler are the kernel's services —
processes never touch them directly).  A process is a generator yielding
:class:`~repro.sim.events.Delay` and :class:`~repro.sim.events.Batch`
effects; the kernel interprets each effect, schedules the resume, and
sends the result back in.

Semantics:

- The heap orders activations by ``(time, sequence)``; the sequence
  number is assigned in program order, so runs are deterministic — a
  fixed seed plus a fixed process set replays bit for bit.
- A charged ``Batch`` is placed by the shared scheduler starting at the
  process's current time and the process resumes at the batch's finish
  time; the *global* clock only ever moves when the kernel pops the next
  event, so other processes scheduled in between run in between — this
  is what makes daemons, clients, and monitors genuinely overlap.
- Shared-resource contention (client NIC, per-domain SimpleDB indexer)
  is inherited from the scheduler: a daemon that saturates a resource
  delays the requests placed after it in event order.
- Requests within one batch are applied when the batch is placed;
  cross-process visibility is therefore resolved at *activation*
  granularity.  Processes that interact through shared service state
  (e.g. a daemon polling a queue) should issue small batches on an
  interval, which is also how the real daemons behave.
- Crashes: a :class:`~repro.errors.ClientCrashError` escaping a process
  (an armed crash point firing inside its code) marks the process
  ``CRASHED`` and abandons its in-memory state — everything already
  applied to the services survives, exactly a machine crash.  Timed
  crashes (:meth:`~repro.cloud.faults.FaultPlan.arm_timed_crash`,
  "crash client 7 at t=42s") are materialised as kernel events that kill
  the target process at the armed virtual time, even mid-sleep.
- Chaos schedules: the kernel is the interpreter for
  :class:`~repro.cloud.faults.FaultSchedule` (``account.faults.schedule``).
  Recurring crashes become self-rescheduling kill events; degradation
  windows swap the scheduler's environment (and SQS's duplicate-delivery
  rate) at ``t1`` and restore the saved baseline at ``t2``; a respawn
  policy reacts to *any* death of its target — timed, recurring, or an
  in-code crash point — by spawning the policy's factory-built
  replacement under the same name after ``delay_s``.  Respawned
  processes share their predecessor's name (crash schedules keep
  applying); :meth:`SimKernel.processes_named` lists every incarnation.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field, replace as dc_replace
from typing import Any, Callable, Generator, List, Optional

from repro.cloud.account import CloudAccount
from repro.cloud.clock import TimeDomain
from repro.cloud.faults import DegradationWindow, RecurringCrash, RespawnRecord
from repro.errors import ClientCrashError, CloudServiceError

from repro.sim.events import Batch, Delay


class ProcessState(enum.Enum):
    """Lifecycle of a kernel process."""

    READY = "ready"
    WAITING = "waiting"
    DONE = "done"
    CRASHED = "crashed"


class Process:
    """One generator-based process and its per-process time domain."""

    def __init__(
        self, name: str, generator: Generator, daemon: bool, incarnation: int = 0
    ):
        self.name = name
        self.generator = generator
        #: Daemon processes (commit/cleaner daemons, gateways, monitors)
        #: do not keep the simulation alive: ``run()`` returns once every
        #: non-daemon process has finished.
        self.daemon = daemon
        #: 0 for the first process under this name; respawns count up.
        self.incarnation = incarnation
        self.state = ProcessState.READY
        self.domain = TimeDomain(name)
        #: Return value of the generator once DONE.
        self.result: Any = None
        #: The crash that killed the process, if CRASHED.
        self.crash: Optional[ClientCrashError] = None
        self._pending_value: Any = None
        self._pending_exc: Optional[BaseException] = None

    @property
    def alive(self) -> bool:
        return self.state in (ProcessState.READY, ProcessState.WAITING)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, {self.state.value})"


@dataclass(order=True, slots=True)
class _Event:
    """One heap entry: activate ``process``, fire a timed crash, or run
    a schedule action (recurring crash, window edge, respawn)."""

    time: float
    seq: int
    process: Optional[Process] = field(compare=False, default=None)
    crash_target: Optional[str] = field(compare=False, default=None)
    action: Optional[Callable[[float], None]] = field(compare=False, default=None)


class SimKernel:
    """Interleaves generator processes on one account's virtual clock."""

    def __init__(self, account: CloudAccount):
        self.account = account
        #: Kernel services, adopted from the account: every process's
        #: time flows through this clock, every batch through this
        #: scheduler.
        self.clock = account.clock
        self.scheduler = account.scheduler
        #: The account's telemetry hub; the kernel feeds its event log
        #: (process lifecycle, fault injections) and its scraper drives
        #: the metrics time series.  Purely observational — disabled
        #: telemetry leaves the schedule byte-identical.
        self.telemetry = account.telemetry
        self._heap: List[_Event] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []

    # -- spawning ------------------------------------------------------------

    def spawn(
        self,
        generator: Generator,
        name: Optional[str] = None,
        at: Optional[float] = None,
        daemon: bool = False,
    ) -> Process:
        """Register a process; its first activation is at ``at``
        (default: now).  Timed crashes armed against ``name`` are
        materialised as kernel events here."""
        resolved = name if name is not None else f"proc-{len(self._processes)}"
        process = Process(
            name=resolved,
            generator=generator,
            daemon=daemon,
            incarnation=sum(1 for p in self._processes if p.name == resolved),
        )
        start = self.clock.now if at is None else at
        if start < self.clock.now:
            raise ValueError(
                f"cannot spawn {process.name!r} in the past "
                f"(at={start}, now={self.clock.now})"
            )
        self._processes.append(process)
        self.telemetry.events.emit(
            "proc.spawn",
            start,
            name=process.name,
            incarnation=process.incarnation,
            daemon=daemon,
        )
        self._push(_Event(start, next(self._seq), process=process))
        self._schedule_timed_crashes(process.name)
        self._schedule_chaos()
        return process

    def _schedule_timed_crashes(self, target: str) -> None:
        for crash in self.account.faults.timed_crashes_for(target):
            if not crash.scheduled and not crash.fired:
                crash.scheduled = True
                self._push(
                    _Event(crash.at, next(self._seq), crash_target=crash.target)
                )

    # -- chaos schedules (FaultSchedule interpretation) ------------------------

    def _schedule_chaos(self) -> None:
        """Materialise pending FaultSchedule entries as heap events
        (idempotent — each entry is marked once scheduled)."""
        schedule = self.account.faults.schedule
        for crash in schedule.recurring:
            if not crash.scheduled and not crash.exhausted():
                crash.scheduled = True
                self._push_recurring(crash)
        for window in schedule.windows:
            if not window.scheduled:
                window.scheduled = True
                self._push(_Event(
                    window.t1, next(self._seq),
                    action=lambda now, w=window: self._open_window(w, now),
                ))
                self._push(_Event(
                    window.t2, next(self._seq),
                    action=lambda now, w=window: self._close_window(w, now),
                ))

    def _push_recurring(self, crash: RecurringCrash) -> None:
        self._push(_Event(
            crash.next_at, next(self._seq),
            action=lambda now, c=crash: self._fire_recurring(c, now),
        ))

    def _fire_recurring(self, crash: RecurringCrash, now: float) -> None:
        crash.fired_at.append(now)
        # Snapshot: killing can respawn a same-named replacement, which
        # must survive this firing (it models a new machine coming up).
        for process in list(self._processes):
            if process.name == crash.target and process.alive:
                self._kill(
                    process,
                    ClientCrashError(f"recurring@{now:.3f}s"),
                    now,
                    source="recurring",
                )
        if not crash.exhausted():
            crash.next_at += crash.every_s
            # If the clock jumped past queued beats (an experiment's
            # settle), fast-forward to the cadence instead of replaying
            # every missed beat as a same-instant kill burst.
            while crash.next_at <= now:
                crash.next_at += crash.every_s
            self._push_recurring(crash)

    def _open_window(self, window: DegradationWindow, now: float) -> None:
        self.telemetry.events.emit(
            "fault.degrade.open",
            now,
            t1=window.t1,
            t2=window.t2,
            latency_scale=window.latency_scale,
            add_latency_s=window.add_latency_s,
            duplicate_delivery_rate=window.duplicate_delivery_rate,
            domain=window.domain,
            item_scale=window.item_scale,
        )
        env = self.scheduler.environment
        window.saved_environment = env
        window.saved_duplicate_rate = self.account.sqs.duplicate_delivery_rate
        self.scheduler.set_environment(dc_replace(
            env,
            extra_latency_s=(
                env.extra_latency_s * window.latency_scale
                + window.add_latency_s
            ),
        ))
        if window.duplicate_delivery_rate is not None:
            self.account.sqs.duplicate_delivery_rate = (
                window.duplicate_delivery_rate
            )
        if window.domain is not None:
            key = f"simpledb:{window.domain}"
            window.saved_item_scale = self.scheduler.pipeline_item_scale(key)
            self.scheduler.set_pipeline_item_scale(
                key, window.saved_item_scale * window.item_scale
            )
        window.applied = True

    def _close_window(self, window: DegradationWindow, now: float) -> None:
        if not window.applied or window.restored:
            return
        self.scheduler.set_environment(window.saved_environment)
        self.account.sqs.duplicate_delivery_rate = window.saved_duplicate_rate
        if window.domain is not None:
            self.scheduler.set_pipeline_item_scale(
                f"simpledb:{window.domain}", window.saved_item_scale
            )
        window.restored = True
        self.telemetry.events.emit(
            "fault.degrade.close", now, t1=window.t1, t2=window.t2
        )

    def _maybe_respawn(self, process: Process, now: float) -> None:
        """Consult the schedule's respawn policy for a freshly dead
        process; spawn the factory-built replacement under the same
        name (and daemon flag) after the policy's delay."""
        policy = self.account.faults.schedule.respawns.get(process.name)
        if policy is None or policy.exhausted():
            return
        delay = policy.delay_for(policy.respawns)
        policy.respawns += 1
        respawn_at = now + delay
        policy.respawned_at.append(respawn_at)
        policy.log.append(
            RespawnRecord(died_at=now, delay_s=delay, scheduled_at=respawn_at)
        )
        replacement = self.spawn(
            policy.factory(),
            name=process.name,
            at=respawn_at,
            daemon=process.daemon,
        )
        self.telemetry.events.emit(
            "fault.respawn",
            respawn_at,
            target=process.name,
            incarnation=replacement.incarnation,
            died_at=now,
            delay_s=delay,
        )

    def every(
        self,
        interval: float,
        fn: Callable[[float], None],
        name: str = "monitor",
        at: Optional[float] = None,
    ) -> Process:
        """Spawn a daemon process calling ``fn(now)`` every ``interval``
        virtual seconds — the sampling hook for over-time metrics."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def monitor() -> Generator:
            while True:
                fn(self.clock.now)
                yield Delay(interval)

        return self.spawn(monitor(), name=name, at=at, daemon=True)

    def scrape_every(self, interval: float, at: Optional[float] = None) -> Process:
        """Spawn the metrics scraper: samples every registered metric into
        the telemetry time series each ``interval`` virtual seconds."""
        return self.every(
            interval, self.telemetry.scrape, name="metrics-scraper", at=at
        )

    # -- introspection --------------------------------------------------------

    @property
    def fault_events(self) -> List:
        """Structured ``fault.*`` events (crash / respawn / degrade)
        recorded so far — target, incarnation, and clock time for each
        FaultSchedule action, in firing order."""
        return self.telemetry.events.of_kind("fault.")

    @property
    def processes(self) -> List[Process]:
        return list(self._processes)

    def process(self, name: str) -> Process:
        """First process registered under ``name`` (respawns append later
        incarnations; use :meth:`processes_named` to see them all)."""
        for candidate in self._processes:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no process named {name!r}")

    def processes_named(self, name: str) -> List[Process]:
        """Every incarnation registered under ``name``, in spawn order —
        the original plus any schedule-driven respawns."""
        return [p for p in self._processes if p.name == name]

    # -- the event loop -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events; returns the final virtual time.

        Without ``until``, runs until every non-daemon process has
        finished (daemon activations stay queued for a later ``run``).
        With ``until``, processes every event up to and including that
        time — liveness of clients does not matter — then advances the
        clock to ``until``; this is how an experiment lets daemons drain
        after the clients are done.
        """
        # Materialise crashes and schedule entries armed after their
        # target was spawned (a crash armed for a past time fires on the
        # next event pop).
        for process in self._processes:
            self._schedule_timed_crashes(process.name)
        self._schedule_chaos()
        while self._heap:
            if until is None and not self._live_nondaemon():
                break
            event = self._heap[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(self._heap)
            self.clock.advance_to(event.time)
            # Handlers get the *clock's* time: when the clock jumped past
            # a queued event (an experiment's settle), the event fires
            # late, at the current time, not retroactively.
            if event.action is not None:
                event.action(self.clock.now)
                continue
            if event.crash_target is not None:
                self._fire_timed_crash(event.crash_target, self.clock.now)
                continue
            process = event.process
            assert process is not None
            if not process.alive:
                continue
            self._activate(process)
        if until is not None:
            self.clock.advance_to(until)
        return self.clock.now

    def _live_nondaemon(self) -> bool:
        return any(p.alive and not p.daemon for p in self._processes)

    def _push(self, event: _Event) -> None:
        heapq.heappush(self._heap, event)

    def _fire_timed_crash(self, target: str, now: float) -> None:
        self.account.faults.fire_timed_crash(target, now)
        # Snapshot: _kill can respawn a same-named replacement that must
        # not be swept up by this same firing.
        for process in list(self._processes):
            if process.name == target and process.alive:
                self._kill(
                    process,
                    ClientCrashError(f"timed@{now:.3f}s"),
                    now,
                    source="timed",
                )

    def _kill(
        self,
        process: Process,
        crash: ClientCrashError,
        now: float,
        source: str = "kill",
    ) -> None:
        process.state = ProcessState.CRASHED
        process.crash = crash
        process.domain.finish(now)
        process.generator.close()
        self.telemetry.events.emit(
            "fault.crash",
            now,
            target=process.name,
            incarnation=process.incarnation,
            source=source,
            reason=str(crash),
        )
        self._maybe_respawn(process, now)

    # -- stepping one process --------------------------------------------------

    def _activate(self, process: Process) -> None:
        now = self.clock.now
        process.domain.activate(now)
        value, exc = process._pending_value, process._pending_exc
        process._pending_value, process._pending_exc = None, None
        try:
            if exc is not None:
                effect = process.generator.throw(exc)
            else:
                effect = process.generator.send(value)
        except StopIteration as stop:
            process.state = ProcessState.DONE
            process.result = stop.value
            process.domain.finish(now)
            self.telemetry.events.emit(
                "proc.done",
                now,
                name=process.name,
                incarnation=process.incarnation,
            )
            return
        except ClientCrashError as crash:
            process.state = ProcessState.CRASHED
            process.crash = crash
            process.domain.finish(now)
            self.telemetry.events.emit(
                "fault.crash",
                now,
                target=process.name,
                incarnation=process.incarnation,
                source="crash_point",
                reason=str(crash),
            )
            self._maybe_respawn(process, now)
            return
        self._interpret(process, effect, now)

    def _interpret(self, process: Process, effect: Any, now: float) -> None:
        if isinstance(effect, Delay):
            process.state = ProcessState.WAITING
            process.domain.charge_idle(effect.seconds)
            self._push(_Event(now + effect.seconds, next(self._seq), process))
            return
        if isinstance(effect, Batch):
            process.state = ProcessState.WAITING
            try:
                result = self.scheduler.execute_batch(
                    effect.requests, effect.connections, advance_clock=False
                )
            except ClientCrashError as crash:
                # A crash point fired while the batch was being applied:
                # the requests already placed survive, the process dies.
                self._kill(process, crash, now)
                return
            except CloudServiceError as error:
                process._pending_exc = error
                self._push(_Event(now, next(self._seq), process))
                return
            if effect.charge:
                process.domain.charge_busy(result.makespan)
                resume_at = result.finished_at
                self.telemetry.events.emit(
                    "proc.slice",
                    resume_at,
                    name=process.name,
                    incarnation=process.incarnation,
                    start=result.started_at,
                    requests=len(effect.requests),
                )
            else:
                resume_at = now
            process._pending_value = result
            self._push(_Event(resume_at, next(self._seq), process))
            return
        raise TypeError(
            f"process {process.name!r} yielded unknown effect {effect!r}"
        )
