"""The SLO-driven autoscaling supervisor and the machinery it rides on:
graceful daemon retirement (commit what is complete, hand the rest back
to the WAL), deterministic exponential respawn backoff, and the adaptive
gateway window.

The control loop's end-to-end payoff — filling the static fleets' null
SLO cells — is pinned by ``benchmarks/test_autoscale_slo.py``; these
tests pin each mechanism in isolation and the supervisor's kernel
behaviour at unit scale.
"""

import pytest

from repro.cloud.account import CloudAccount
from repro.cloud.sqs import DEFAULT_VISIBILITY_TIMEOUT
from repro.core import PAS3fs, ProtocolP3, UploadMode
from repro.core.commit_daemon import CommitDaemon
from repro.obs.timeline import chrome_trace
from repro.provenance.syscalls import TraceBuilder
from repro.service import IngestGateway, Supervisor, SupervisorConfig
from repro.sim import Delay, ProcessState, SimKernel
from repro.sim.compat import run_plan_phased
from repro.workloads.base import MOUNT
from repro.workloads.fleet import make_fleet


def _sleeper():
    while True:
        yield Delay(1.0)


def _single_file_trace(size=64 * 1024):
    builder = TraceBuilder()
    writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/writer")
    builder.read(writer, "/local/input.dat", 1024)
    builder.write_close(writer, f"{MOUNT}out/result.dat", size)
    builder.exit(writer)
    return builder.trace


def _wide_provenance_trace(cycles=64):
    """Provenance spanning several 8 KB WAL messages, so a daemon stopped
    mid-assembly genuinely holds an incomplete transaction."""
    builder = TraceBuilder()
    xform = builder.spawn(
        "transform",
        argv=["transform", "--passes", str(cycles)],
        env=(("TRANSFORM_OPTS", "x" * 512),),
        exec_path="/bin/transform",
    )
    for cycle in range(cycles):
        builder.read(xform, f"{MOUNT}wide/input.dat", 16 * 1024)
        builder.write(xform, f"{MOUNT}wide/output.dat", (cycle + 1) * 1024)
    builder.close(xform, f"{MOUNT}wide/output.dat")
    builder.exit(xform)
    return builder.trace


def _many_files_trace(files):
    builder = TraceBuilder()
    writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/w")
    for index in range(files):
        builder.write_close(writer, f"{MOUNT}pool/f{index:02d}.dat", 4096)
    builder.exit(writer)
    return builder.trace


def _state_snapshot(account, protocol):
    """Byte-comparable committed state (same yardstick as the takeover
    test): every SimpleDB item in every shard domain plus every surviving
    S3 object's digest and metadata.  Timestamps deliberately excluded."""
    domains = {
        domain: {
            name: account.simpledb.peek_item(domain, name)
            for name in account.simpledb.peek_item_names(domain)
        }
        for domain in protocol.router.domains
    }
    objects = {
        key: (
            account.s3.peek_latest(protocol.bucket, key).blob.digest,
            tuple(
                sorted(account.s3.peek_latest(protocol.bucket, key).metadata.items())
            ),
        )
        for key in account.s3.peek_keys(protocol.bucket)
    }
    return repr((domains, objects))


def _fresh_daemon(account, protocol):
    return CommitDaemon(
        account=account,
        queue_url=protocol.queue_url,
        bucket=protocol.bucket,
        domain=protocol.domain,
        router=protocol.router,
    )


class TestRespawnBackoff:
    """Satellite: deterministic exponential backoff on respawn policies,
    defaulting to the old flat-delay behaviour."""

    def test_backoff_delays_grow_and_cap_deterministically(self):
        account = CloudAccount(seed=0)
        account.faults.schedule.crash_every(
            "svc", every_s=20.0, start_at=20.0, times=5
        )
        policy = account.faults.schedule.respawn(
            "svc", _sleeper, base_delay_s=1.0, multiplier=2.0, max_delay_s=8.0
        )
        kernel = SimKernel(account)
        kernel.spawn(_sleeper(), name="svc", daemon=True)
        kernel.run(until=110.0)

        # The n-th respawn waits base * 2**n seconds, capped at 8.
        assert [record.delay_s for record in policy.log] == [
            1.0, 2.0, 4.0, 8.0, 8.0,
        ]
        assert [record.died_at for record in policy.log] == [
            20.0, 40.0, 60.0, 80.0, 100.0,
        ]
        for record in policy.log:
            assert record.scheduled_at == record.died_at + record.delay_s
        assert policy.respawned_at == [
            record.scheduled_at for record in policy.log
        ]
        # Scheduled-vs-actual: an idle kernel activates each replacement
        # exactly when the policy scheduled it.
        incarnations = kernel.processes_named("svc")
        assert len(incarnations) == 6
        for record, replacement in zip(policy.log, incarnations[1:]):
            assert replacement.domain.started_at == pytest.approx(
                record.scheduled_at
            )

    def test_default_policy_keeps_flat_delays(self):
        account = CloudAccount(seed=0)
        account.faults.schedule.crash_every("svc", every_s=10.0, times=3)
        policy = account.faults.schedule.respawn("svc", _sleeper, delay_s=3.0)
        kernel = SimKernel(account)
        kernel.spawn(_sleeper(), name="svc", daemon=True)
        kernel.run(until=45.0)
        # No base_delay_s: every respawn waits the flat delay, exactly the
        # pre-backoff behaviour existing chaos schedules rely on.
        assert [record.delay_s for record in policy.log] == [3.0, 3.0, 3.0]
        assert policy.delay_for(0) == policy.delay_for(7) == 3.0

    def test_backoff_validation(self):
        schedule = CloudAccount(seed=0).faults.schedule
        with pytest.raises(ValueError):
            schedule.respawn("svc", _sleeper, base_delay_s=-1.0)
        with pytest.raises(ValueError):
            schedule.respawn("svc", _sleeper, base_delay_s=1.0, multiplier=0.5)
        with pytest.raises(ValueError):
            schedule.respawn("svc", _sleeper, max_delay_s=5.0)
        with pytest.raises(ValueError):
            schedule.respawn(
                "svc", _sleeper, base_delay_s=2.0, max_delay_s=1.0
            )


class TestGracefulRetirement:
    """Satellite: a daemon stopped mid-stream either finishes what it
    holds or hands it back to the WAL — never strands it behind its
    visibility timeout."""

    def test_retirement_commits_a_complete_pending_transaction(self):
        account = CloudAccount(seed=21)
        protocol = ProtocolP3(account)
        PAS3fs(account, protocol).run(_single_file_trace())
        daemon = _fresh_daemon(account, protocol)
        for message in account.sqs.receive_messages(
            protocol.queue_url, max_messages=10
        ):
            daemon._ingest(message)
        assert daemon.pending_transactions()

        run_plan_phased(account, daemon.retire_plan())
        assert daemon.retired
        assert daemon.committed_count() == 1
        assert daemon.pending_transactions() == []
        assert account.sqs.pending_count(protocol.queue_url) == 0
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")

        # Byte-identical to a daemon that was never asked to stop.
        ref_account = CloudAccount(seed=21)
        ref_protocol = ProtocolP3(ref_account)
        PAS3fs(ref_account, ref_protocol).run(_single_file_trace())
        ref_protocol.commit_daemon.drain()
        assert _state_snapshot(account, protocol) == _state_snapshot(
            ref_account, ref_protocol
        )

    def test_retirement_hands_an_incomplete_transaction_back_immediately(self):
        account = CloudAccount(seed=13)
        protocol = ProtocolP3(account, mode=UploadMode.CAUSAL)
        PAS3fs(account, protocol).run(_wide_provenance_trace())
        total = account.sqs.pending_count(protocol.queue_url)
        assert total > 1

        daemon = _fresh_daemon(account, protocol)
        messages = account.sqs.receive_messages(
            protocol.queue_url, max_messages=1
        )
        daemon._ingest(messages[0])

        stopped_at = account.now
        run_plan_phased(account, daemon.retire_plan())
        assert daemon.retired
        assert daemon.committed_count() == 0
        assert daemon.pending_transactions() == []
        assert daemon._logged_at == {}
        assert account.sqs.pending_count(protocol.queue_url) == total

        # ChangeMessageVisibility 0: the handed-back message is receivable
        # right now.  The phased drain below never advances the clock, so
        # without the handback the leased message would stay invisible
        # forever and the transaction could never complete.
        second = _fresh_daemon(account, protocol)
        stats = second.drain()
        assert stats.transactions_committed == 1
        assert stats.transactions_pending == 0
        assert account.now - stopped_at < DEFAULT_VISIBILITY_TIMEOUT

    def test_kernel_retirement_hands_over_byte_identically(self):
        """The takeover test's graceful twin: daemon A is *stopped* (not
        crashed) mid-assembly; daemon B finishes the transaction without
        waiting out A's visibility timeout, ending byte-identical."""
        # 256 cycles span six WAL messages, so one in-flight receive after
        # the stop request cannot complete the transaction by itself.
        ref_account = CloudAccount(seed=13)
        ref_protocol = ProtocolP3(ref_account, mode=UploadMode.CAUSAL)
        PAS3fs(ref_account, ref_protocol).run(_wide_provenance_trace(256))
        ref_protocol.commit_daemon.drain()
        reference = _state_snapshot(ref_account, ref_protocol)

        account = CloudAccount(seed=13)
        protocol = ProtocolP3(account, mode=UploadMode.CAUSAL)
        PAS3fs(account, protocol).run(_wide_provenance_trace(256))
        kernel = SimKernel(account)
        daemon_a = _fresh_daemon(account, protocol)
        kernel.spawn(
            daemon_a.process(poll_interval=1.0, max_messages=1),
            name="daemon-a",
            daemon=True,
        )
        guard = 0
        while not daemon_a.pending_transactions() and guard < 200:
            kernel.run(until=account.now + 0.05)
            guard += 1
        assert daemon_a.pending_transactions()

        daemon_a.request_stop()
        stopped_at = account.now
        kernel.run(until=account.now + 5.0)
        assert kernel.process("daemon-a").state is ProcessState.DONE
        assert daemon_a.retired
        assert daemon_a.committed_count() == 0

        daemon_b = _fresh_daemon(account, protocol)
        kernel.spawn(
            daemon_b.process(poll_interval=1.0), name="daemon-b", daemon=True
        )
        guard = 0
        while account.sqs.pending_count(protocol.queue_url) > 0 and guard < 200:
            kernel.run(until=account.now + 5.0)
            guard += 1
        kernel.run(until=account.now + 5.0)

        assert daemon_b.committed_count() == 1
        # The handback made the takeover immediate — B finished well
        # inside the lease A's receives would otherwise have held.
        assert account.now < stopped_at + DEFAULT_VISIBILITY_TIMEOUT
        assert _state_snapshot(account, protocol) == reference
        assert account.sqs.pending_count(protocol.queue_url) == 0
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")


def _supervised_run(seed=5, files=24, crash_at=None):
    """A WAL backlog drained by a supervised pool on the kernel; returns
    everything the control-loop assertions need."""
    account = CloudAccount(seed=seed)
    protocol = ProtocolP3(account)
    PAS3fs(account, protocol).run(_many_files_trace(files))
    kernel = SimKernel(account)
    config = SupervisorConfig(
        control_interval_s=1.0,
        min_daemons=1,
        max_daemons=3,
        backlog_per_daemon=4,
        calm_ticks=2,
        respawn_base_delay_s=0.5,
        respawn_multiplier=2.0,
        respawn_max_delay_s=2.0,
        # The whole backlog lands in one burst before the pool starts, so
        # a member's first receive holds ten sequential commits; a lease
        # shorter than that window would redeliver mid-commit.  Lease
        # tuning is the benchmark's subject, not this test's.
        visibility_timeout_s=60.0,
    )
    supervisor = Supervisor(
        account,
        kernel,
        lambda: _fresh_daemon(account, protocol),
        protocol.queue_url,
        config=config,
    )
    supervisor.start()
    kernel.spawn(supervisor.process(), name="supervisor", daemon=True)
    if crash_at is not None:
        account.faults.arm_timed_crash("pool-0", at=account.now + crash_at)
    guard = 0
    while account.sqs.pending_count(protocol.queue_url) > 0 and guard < 100:
        kernel.run(until=account.now + 5.0)
        guard += 1
    # Enough further control ticks for the calm counter to retire the
    # surge members back down to the floor.
    kernel.run(until=account.now + 10.0)
    return account, protocol, kernel, supervisor


class TestSupervisorControlLoop:
    def test_scales_up_on_backlog_and_back_down_after_calm(self):
        account, protocol, kernel, supervisor = _supervised_run()
        events = account.telemetry.events

        # The backlog drove the pool up to its ceiling...
        ups = events.of_kind("supervisor.scale_up")
        assert ups
        assert ups[0]["depth"] > 0
        assert max(event["pool"] for event in ups) == 3
        # ...and calm ticks retired it back to the floor.
        downs = events.of_kind("supervisor.scale_down")
        assert len(downs) == 2
        assert {event["retired"] for event in downs} == {"pool-1", "pool-2"}
        assert sorted(supervisor.pool) == ["pool-0"]

        # Retirement was graceful: the retired incarnations returned
        # (DONE, not CRASHED/killed) and flagged themselves retired.
        for name in ("pool-1", "pool-2"):
            assert kernel.process(name).state is ProcessState.DONE
        retired = [
            daemon
            for daemon in supervisor.all_daemons
            if daemon not in supervisor.pool.values()
        ]
        assert retired and all(daemon.retired for daemon in retired)

        # Nothing lost, nothing duplicated across the elastic pool.
        committed = sum(
            daemon.committed_count() for daemon in supervisor.all_daemons
        )
        assert committed == 24
        assert account.sqs.pending_count(protocol.queue_url) == 0
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")

        # The pool-size gauge reflects the settled floor.
        snapshot = account.telemetry.metrics.snapshot()
        pool_sizes = [
            value
            for key, value in snapshot.items()
            if key.startswith("supervisor.pool_size")
        ]
        assert pool_sizes == [1]

    def test_member_crash_respawns_with_backoff_and_identical_state(self):
        reference_account, reference_protocol, _, _ = _supervised_run()
        reference = _state_snapshot(reference_account, reference_protocol)

        account, protocol, kernel, supervisor = _supervised_run(crash_at=2.5)
        policy = account.faults.schedule.respawns["pool-0"]
        assert policy.respawns == 1
        record = policy.log[0]
        assert record.delay_s == 0.5  # the configured backoff base
        assert record.scheduled_at == record.died_at + 0.5

        backoffs = account.telemetry.events.of_kind("supervisor.backoff")
        assert len(backoffs) == 1
        assert backoffs[0]["target"] == "pool-0"
        assert backoffs[0]["delay_s"] == 0.5
        assert backoffs[0]["respawn_index"] == 0

        # The kill cost nothing: the replacement (plus the surge members)
        # committed everything, byte-identical to the uncrashed run.
        committed = sum(
            daemon.committed_count() for daemon in supervisor.all_daemons
        )
        assert committed == 24
        assert _state_snapshot(account, protocol) == reference

    def test_pool_target_clamps_to_max(self):
        account = CloudAccount(seed=3)
        kernel = SimKernel(account)
        queue_url = account.sqs.create_queue("wal")
        for index in range(30):
            account.sqs.send_message(queue_url, f"backlog-{index}")
        config = SupervisorConfig(max_daemons=3, backlog_per_daemon=4)
        supervisor = Supervisor(
            account,
            kernel,
            lambda: CommitDaemon(
                account=account, queue_url=queue_url, bucket="b", domain="d"
            ),
            queue_url,
            config=config,
        )
        supervisor.start()
        supervisor.control_tick(account.now)
        # ceil(30 / 4) = 8, clamped to the ceiling of 3.
        assert sorted(supervisor.pool) == ["pool-0", "pool-1", "pool-2"]
        assert set(account.faults.schedule.respawns) >= set(supervisor.pool)
        ups = account.telemetry.events.of_kind("supervisor.scale_up")
        assert ups[-1]["target"] == 3

    def test_configuration_validation(self):
        account = CloudAccount(seed=0)
        kernel = SimKernel(account)
        queue_url = account.sqs.create_queue("wal")
        factory = lambda: CommitDaemon(
            account=account, queue_url=queue_url, bucket="b", domain="d"
        )
        with pytest.raises(ValueError):
            Supervisor(
                account, kernel, factory, queue_url,
                config=SupervisorConfig(min_daemons=0),
            )
        with pytest.raises(ValueError):
            Supervisor(
                account, kernel, factory, queue_url,
                config=SupervisorConfig(min_daemons=3, max_daemons=2),
            )
        supervisor = Supervisor(account, kernel, factory, queue_url)
        with pytest.raises(ValueError):
            supervisor.start(initial=0)
        with pytest.raises(ValueError):
            supervisor.start(initial=99)


class TestAdaptiveGatewayWindow:
    def test_window_halves_under_backlog_and_doubles_back(self):
        account = CloudAccount(seed=7)
        kernel = SimKernel(account)
        queue_url = account.sqs.create_queue("wal")
        gateway = IngestGateway(account)
        config = SupervisorConfig(
            window_high_pending=4,
            window_low_pending=1,
            min_window_s=0.0625,
            max_window_s=0.5,
        )
        supervisor = Supervisor(
            account,
            kernel,
            lambda: CommitDaemon(
                account=account, queue_url=queue_url, bucket="b", domain="d"
            ),
            queue_url,
            gateway=gateway,
            config=config,
        )
        supervisor.start()
        assert gateway.window_s == 0.25

        for client in make_fleet(clients=6, files_per_client=1, seed=7):
            gateway.submit(client.client_id, client.works[0])
        assert gateway.pending_count() == 6

        supervisor.control_tick(account.now)
        assert gateway.window_s == 0.125
        supervisor.control_tick(account.now)
        assert gateway.window_s == 0.0625
        supervisor.control_tick(account.now)
        assert gateway.window_s == 0.0625  # clamped at the floor

        gateway.flush_pending()
        assert gateway.pending_count() == 0
        supervisor.control_tick(account.now)
        assert gateway.window_s == 0.125
        supervisor.control_tick(account.now)
        assert gateway.window_s == 0.25
        supervisor.control_tick(account.now)
        assert gateway.window_s == 0.5
        supervisor.control_tick(account.now)
        assert gateway.window_s == 0.5  # clamped at the ceiling

        adjusts = account.telemetry.events.of_kind("supervisor.window_adjust")
        assert [event["window_s"] for event in adjusts] == [
            0.125, 0.0625, 0.125, 0.25, 0.5,
        ]
        for event in adjusts:
            assert event["previous_s"] != event["window_s"]

        snapshot = account.telemetry.metrics.snapshot()
        windows = [
            value
            for key, value in snapshot.items()
            if key.startswith("supervisor.target_window_s")
        ]
        assert windows == [0.5]

    def test_set_window_rejects_nonpositive(self):
        account = CloudAccount(seed=0)
        gateway = IngestGateway(account)
        with pytest.raises(ValueError):
            gateway.set_window(0.0)
        with pytest.raises(ValueError):
            gateway.set_window(-1.0)


class TestSupervisorTimeline:
    def test_chrome_trace_grows_a_supervisor_lane(self):
        account, _, _, _ = _supervised_run(crash_at=2.5)
        doc = chrome_trace(account.telemetry)
        events = doc["traceEvents"]

        lane_names = {
            event["args"]["name"]: event["tid"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "supervisor" in lane_names
        supervisor_tid = lane_names["supervisor"]
        # The respawned member shows up as a fresh lane beside its
        # ancestor, like any other chaos run.
        assert "pool-0" in lane_names and "pool-0#1" in lane_names

        marks = [
            event
            for event in events
            if event.get("cat") == "supervisor"
        ]
        assert marks
        assert {event["ph"] for event in marks} == {"i"}
        assert {event["tid"] for event in marks} == {supervisor_tid}
        kinds = {event["name"] for event in marks}
        assert "supervisor.scale_up" in kinds
        assert "supervisor.scale_down" in kinds
        assert "supervisor.backoff" in kinds
