"""The SLO-driven autoscaling supervisor.

``BENCH_chaos_slo.json`` proves a negative: under recurring daemon
crashes *no static* daemon count meets the p99 commit-lag SLO, because
the tail is not capacity — it is the stock 30 s SQS visibility timeout
stranding whatever a killed daemon had received but not deleted.  The
supervisor is the control plane that closes the loop the paper leaves
open (§4.3.3 runs a fixed daemon set):

- **Observe.**  Each control tick polls the WAL queue depth and the
  telemetry registry's ``daemon.commit_lag_s`` histograms (windowed
  mean over the tick, via count/sum watermarks — the registry is the
  only lag source; the supervisor never reads daemon internals).
- **Scale the pool.**  Target size is ``ceil(depth /
  backlog_per_daemon)`` clamped to ``[min_daemons, max_daemons]``;
  growth spawns fresh :class:`~repro.core.commit_daemon.CommitDaemon`
  incarnations.  After ``calm_ticks`` consecutive quiet ticks (empty
  WAL, no pending transactions, low windowed lag) one member retires
  gracefully: its respawn policy is deregistered and
  :meth:`~repro.core.commit_daemon.CommitDaemon.request_stop` lets it
  commit complete transactions and hand incomplete ones straight back
  to the WAL (``ChangeMessageVisibility 0``).
- **Lease tight, respawn with backoff.**  Pool members receive with a
  short visibility timeout (``visibility_timeout_s``, default 12 s):
  the supervisor guarantees a replacement consumer, so a crashed
  member's in-flight messages strand for seconds instead of 30 — the
  lever that fills the static fleet's ``null`` SLO cells.  The members'
  respawn policies use deterministic exponential backoff
  (``base_delay_s * multiplier^n``, capped at ``max_delay_s``) so a
  crash-looping target stops hot-respawning.
- **Drive the gateway.**  When an :class:`IngestGateway` is attached,
  its coalescing window halves while submissions pile up past
  ``window_high_pending`` and doubles back once the backlog clears —
  latency under load, batching efficiency at rest — clamped to
  ``[min_window_s, max_window_s]``.

Every decision is emitted as a structured ``supervisor.*`` event
(``scale_up`` / ``scale_down`` / ``window_adjust`` / ``backoff``) and
the ``supervisor.pool_size`` / ``supervisor.target_window_s`` gauges
feed the scraper, so the control loop is replayable from telemetry
alone.  All inputs are virtual-clock state — runs stay deterministic
per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cloud.account import CloudAccount
from repro.core.commit_daemon import CommitDaemon
from repro.sim.events import Delay


@dataclass
class SupervisorConfig:
    """Thresholds of the control loop (see the module docstring)."""

    #: Seconds between control ticks.
    control_interval_s: float = 2.0
    #: Pool size bounds.
    min_daemons: int = 1
    max_daemons: int = 4
    #: WAL messages one daemon is trusted to chew through per tick;
    #: the pool targets ``ceil(depth / backlog_per_daemon)``.  A daemon
    #: sizes its receive fan-out to the backlog (1, doubling while every
    #: receive comes back full, up to its connections and to the group
    #: it can commit in half a lease), so its capacity is not a constant:
    #: ten messages commit in about 2.3 virtual seconds, eighty in about
    #: 8.  4 a tick is far below either — on purpose.  The depth signal
    #: sizes the pool for the time a member spends *not* receiving — in
    #: a commit round; a straggler's temp object no longer stops it —
    #: when only another member can pick up new work.
    backlog_per_daemon: int = 4
    #: Consecutive quiet ticks before one member retires.
    calm_ticks: int = 3
    #: Windowed mean commit lag above this marks the tick busy.
    lag_high_s: float = 10.0
    #: Poll interval handed to spawned daemons' ``process()``.
    poll_interval_s: float = 1.0
    #: Visibility timeout pool members receive with (None: SQS default).
    #: Long enough that a healthy commit (including its
    #: eventual-consistency retries) finishes inside one lease, short
    #: enough that a killed member's in-flight messages redeliver in
    #: seconds.
    visibility_timeout_s: Optional[float] = 12.0
    #: Respawn backoff for pool members (None base: flat 1 s delays).
    respawn_base_delay_s: Optional[float] = 1.0
    respawn_multiplier: float = 2.0
    respawn_max_delay_s: Optional[float] = 8.0
    #: Gateway coalescing-window bounds and thresholds.
    min_window_s: float = 0.0625
    max_window_s: float = 1.0
    #: Pending submissions above this halve the window...
    window_high_pending: int = 8
    #: ...and at or below this double it back.
    window_low_pending: int = 2


class Supervisor:
    """Scales a commit-daemon pool and a gateway window from observed
    WAL depth and commit lag.  Spawn :meth:`process` on the kernel with
    ``daemon=True``; call :meth:`start` first to provision the floor."""

    def __init__(
        self,
        account: CloudAccount,
        kernel,
        daemon_factory: Callable[[], CommitDaemon],
        queue_url: str,
        gateway=None,
        config: Optional[SupervisorConfig] = None,
        name_prefix: str = "pool",
    ):
        self.account = account
        self.kernel = kernel
        self.daemon_factory = daemon_factory
        self.queue_url = queue_url
        self.gateway = gateway
        self.config = config if config is not None else SupervisorConfig()
        if self.config.min_daemons < 1:
            raise ValueError("min_daemons must be >= 1")
        if self.config.max_daemons < self.config.min_daemons:
            raise ValueError("max_daemons must be >= min_daemons")
        self.name_prefix = name_prefix
        #: Member name -> its *current* daemon object (respawns replace
        #: the entry; retirement removes it).
        self.pool: Dict[str, CommitDaemon] = {}
        #: Every daemon object this supervisor ever created, in creation
        #: order — the commit-log/daemon-seconds accounting surface.
        self.all_daemons: List[CommitDaemon] = []
        self._next_index = 0
        self._calm = 0
        self._events = account.telemetry.events
        self._hist_marks: Dict[int, Tuple[int, float]] = {}
        label = f"supervisor-{account.telemetry.instance_id('supervisor')}"
        metrics = account.telemetry.metrics
        metrics.gauge_fn("supervisor.pool_size", lambda: len(self.pool),
                         supervisor=label)
        metrics.gauge_fn(
            "supervisor.target_window_s",
            lambda: self.gateway.window_s if self.gateway is not None else 0.0,
            supervisor=label,
        )

    # -- pool membership ------------------------------------------------------

    def _new_daemon(self) -> CommitDaemon:
        daemon = self.daemon_factory()
        if self.config.visibility_timeout_s is not None:
            daemon.set_visibility_timeout(self.config.visibility_timeout_s)
        self.all_daemons.append(daemon)
        return daemon

    def _spawn_member(self, now: float) -> str:
        name = f"{self.name_prefix}-{self._next_index}"
        self._next_index += 1
        daemon = self._new_daemon()
        self.pool[name] = daemon
        self.kernel.spawn(
            daemon.process(poll_interval=self.config.poll_interval_s),
            name=name,
            daemon=True,
        )
        schedule = self.account.faults.schedule

        def respawn_member(name=name):
            # Called by the kernel the moment an incarnation dies; the
            # policy's log already holds this respawn's backoff delay.
            policy = schedule.respawns.get(name)
            if policy is not None and policy.log:
                record = policy.log[-1]
                self._events.emit(
                    "supervisor.backoff",
                    record.died_at,
                    target=name,
                    delay_s=record.delay_s,
                    respawn_index=policy.respawns - 1,
                )
            replacement = self._new_daemon()
            self.pool[name] = replacement
            return replacement.process(
                poll_interval=self.config.poll_interval_s
            )

        schedule.respawn(
            name,
            respawn_member,
            delay_s=(
                self.config.respawn_base_delay_s
                if self.config.respawn_base_delay_s is not None
                else 1.0
            ),
            base_delay_s=self.config.respawn_base_delay_s,
            multiplier=self.config.respawn_multiplier,
            max_delay_s=self.config.respawn_max_delay_s,
        )
        return name

    def _retire_member(self, now: float) -> str:
        # Retire the youngest member: deregister its respawn policy so
        # the name stays down, then let the daemon drain gracefully.
        name = sorted(
            self.pool, key=lambda n: int(n.rsplit("-", 1)[1])
        )[-1]
        daemon = self.pool.pop(name)
        self.account.faults.schedule.respawns.pop(name, None)
        daemon.request_stop()
        return name

    def start(self, initial: Optional[int] = None) -> List[str]:
        """Provision the initial pool (default: ``min_daemons``)."""
        count = self.config.min_daemons if initial is None else initial
        if not self.config.min_daemons <= count <= self.config.max_daemons:
            raise ValueError(
                f"initial pool {count} outside "
                f"[{self.config.min_daemons}, {self.config.max_daemons}]"
            )
        now = self.account.now
        names = [self._spawn_member(now) for _ in range(count)]
        return names

    # -- observation ----------------------------------------------------------

    def _windowed_lag(self) -> Tuple[int, float]:
        """Commits and mean commit lag observed since the previous tick,
        pooled over every ``daemon.commit_lag_s`` histogram (count/sum
        watermarks make the cumulative histograms windowed)."""
        commits = 0
        lag_sum = 0.0
        for hist in self.account.telemetry.metrics.histograms_named(
            "daemon.commit_lag_s"
        ):
            prev_count, prev_sum = self._hist_marks.get(id(hist), (0, 0.0))
            commits += hist.count - prev_count
            lag_sum += hist.sum - prev_sum
            self._hist_marks[id(hist)] = (hist.count, hist.sum)
        mean = lag_sum / commits if commits else 0.0
        return commits, mean

    def _pool_pending(self) -> int:
        return sum(len(d.pending_transactions()) for d in self.pool.values())

    # -- the control loop ------------------------------------------------------

    def control_tick(self, now: float) -> None:
        """One observe-decide-act pass (exposed for unit tests)."""
        config = self.config
        depth = self.account.sqs.pending_count(self.queue_url, now=now)
        _commits, lag_mean = self._windowed_lag()

        target = max(
            config.min_daemons,
            min(
                config.max_daemons,
                math.ceil(depth / config.backlog_per_daemon),
            ),
        )
        if target > len(self.pool):
            added = [
                self._spawn_member(now)
                for _ in range(target - len(self.pool))
            ]
            self._calm = 0
            self._events.emit(
                "supervisor.scale_up",
                now,
                depth=depth,
                target=target,
                pool=len(self.pool),
                added=",".join(added),
            )

        quiet = (
            depth == 0
            and self._pool_pending() == 0
            and lag_mean <= config.lag_high_s
        )
        if quiet and len(self.pool) > config.min_daemons:
            self._calm += 1
            if self._calm >= config.calm_ticks:
                retired = self._retire_member(now)
                self._calm = 0
                self._events.emit(
                    "supervisor.scale_down",
                    now,
                    depth=depth,
                    pool=len(self.pool),
                    retired=retired,
                )
        elif not quiet:
            self._calm = 0

        if self.gateway is not None:
            pending = self.gateway.pending_count()
            window = self.gateway.window_s
            if (
                pending > config.window_high_pending
                and window > config.min_window_s
            ):
                new_window = max(config.min_window_s, window / 2.0)
            elif (
                pending <= config.window_low_pending
                and window < config.max_window_s
            ):
                new_window = min(config.max_window_s, window * 2.0)
            else:
                new_window = window
            if new_window != window:
                self.gateway.set_window(new_window)
                self._events.emit(
                    "supervisor.window_adjust",
                    now,
                    pending=pending,
                    window_s=new_window,
                    previous_s=window,
                )

    def process(self):
        """The supervisor as a kernel process.  Spawn with
        ``daemon=True`` — it ticks forever; the experiment's run horizon
        stops it."""
        while True:
            yield Delay(self.config.control_interval_s)
            self.control_tick(self.account.now)
