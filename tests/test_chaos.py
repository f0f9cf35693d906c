"""Chaos schedules: recurring crashes, respawn policies, degradation
windows, and the query-side readers that watch a store being written.

The paper's recovery claims are about *what survives a death*, whenever
it lands: the WAL queue outlives any daemon (§4.3.3), idempotent
commits make at-least-once delivery safe, and eventual consistency means
acknowledged writes can stay invisible for a while.  These tests pin the
schedule machinery that turns those claims into repeatable scenarios.
"""

import random

import pytest

from repro.cloud.account import CloudAccount
from repro.core import PAS3fs, ProtocolP1, ProtocolP2, ProtocolP3, collect
from repro.core.commit_daemon import CommitDaemon
from repro.errors import ClientCrashError
from repro.provenance.syscalls import TraceBuilder
from repro.sim import Delay, ProcessState, SimKernel
from repro.workloads.base import MOUNT
from repro.workloads.fleet import (
    FLEET_PROGRAM,
    FleetWatch,
    make_fleet,
    protocol_client_process,
    reader_process,
)

from daemon_drive import drain


def _state_snapshot(account, protocol) -> str:
    """repr of the fully propagated provenance/data state (items +
    object digests/metadata) — the byte-identity yardstick."""
    items = {}
    if hasattr(protocol, "domain"):
        items = {
            name: account.simpledb.peek_item(protocol.domain, name)
            for name in account.simpledb.peek_item_names(protocol.domain)
        }
    objects = {
        key: (
            record.blob.digest,
            tuple(sorted(record.metadata.items())),
        )
        for key in account.s3.peek_keys(protocol.bucket)
        for record in [account.s3.peek_latest(protocol.bucket, key)]
    }
    return repr((items, objects))


def _sleeper():
    while True:
        yield Delay(1.0)


class TestRecurringCrashes:
    def test_recurring_schedule_fires_repeatedly_and_respawns(self):
        account = CloudAccount(seed=0)
        crash = account.faults.schedule.crash_every(
            "svc", every_s=5.0, start_at=5.0
        )
        policy = account.faults.schedule.respawn(
            "svc", _sleeper, delay_s=1.0
        )
        kernel = SimKernel(account)
        kernel.spawn(_sleeper(), name="svc", daemon=True)
        kernel.run(until=22.0)

        # The schedule fired on every beat, not once: 5, 10, 15, 20.
        assert crash.fired_at == [5.0, 10.0, 15.0, 20.0]
        # Every kill was answered by a respawn; each incarnation died on
        # the next beat except the last, which is still up.
        incarnations = kernel.processes_named("svc")
        assert len(incarnations) == 5
        assert policy.respawns == 4
        assert [p.state for p in incarnations[:-1]] == (
            [ProcessState.CRASHED] * 4
        )
        assert incarnations[-1].alive

    def test_times_bound_stops_the_schedule(self):
        account = CloudAccount(seed=0)
        crash = account.faults.schedule.crash_every(
            "svc", every_s=5.0, times=2
        )
        account.faults.schedule.respawn("svc", _sleeper, delay_s=1.0)
        kernel = SimKernel(account)
        kernel.spawn(_sleeper(), name="svc", daemon=True)
        kernel.run(until=60.0)
        assert crash.fired_at == [5.0, 10.0]
        assert crash.exhausted()
        assert kernel.processes_named("svc")[-1].alive

    def test_without_respawn_the_target_stays_dead(self):
        account = CloudAccount(seed=0)
        account.faults.schedule.crash_every("svc", every_s=5.0)
        kernel = SimKernel(account)
        kernel.spawn(_sleeper(), name="svc", daemon=True)
        kernel.run(until=30.0)
        incarnations = kernel.processes_named("svc")
        assert len(incarnations) == 1
        assert incarnations[0].state is ProcessState.CRASHED

    def test_schedule_validation(self):
        account = CloudAccount(seed=0)
        with pytest.raises(ValueError):
            account.faults.schedule.crash_every("svc", every_s=0.0)
        with pytest.raises(ValueError):
            account.faults.schedule.crash_every("svc", every_s=5.0, start_at=-1.0)
        with pytest.raises(ValueError):
            account.faults.schedule.respawn("svc", _sleeper, delay_s=-1.0)
        with pytest.raises(ValueError):
            account.faults.schedule.degrade(10.0, 10.0)


class TestDegradationWindows:
    def test_window_degrades_then_restores_baseline(self):
        account = CloudAccount(seed=0)
        baseline_latency = account.scheduler.environment.extra_latency_s
        baseline_rate = account.sqs.duplicate_delivery_rate
        account.faults.schedule.degrade(
            10.0, 20.0, add_latency_s=0.5, duplicate_delivery_rate=0.4
        )
        kernel = SimKernel(account)
        observed = {}

        def probe(now):
            observed[now] = (
                account.scheduler.environment.extra_latency_s,
                account.sqs.duplicate_delivery_rate,
            )

        kernel.every(5.0, probe, name="probe")
        kernel.run(until=30.0)

        assert observed[5.0] == (baseline_latency, baseline_rate)
        # Inside [t1, t2): latency stretched, duplicates armed.
        assert observed[10.0] == (baseline_latency + 0.5, 0.4)
        assert observed[15.0] == (baseline_latency + 0.5, 0.4)
        # At t2 the saved baseline is restored exactly.
        assert observed[20.0] == (baseline_latency, baseline_rate)
        assert observed[25.0] == (baseline_latency, baseline_rate)

    def test_latency_scale_multiplies_a_nonzero_baseline(self):
        from repro.cloud.profiles import LOCAL_ENV, SimulationProfile

        account = CloudAccount(
            profile=SimulationProfile().with_environment(LOCAL_ENV), seed=0
        )
        baseline = account.scheduler.environment.extra_latency_s
        assert baseline > 0
        account.faults.schedule.degrade(5.0, 10.0, latency_scale=3.0)
        kernel = SimKernel(account)
        observed = {}
        kernel.every(
            2.5,
            lambda now: observed.__setitem__(
                now, account.scheduler.environment.extra_latency_s
            ),
            name="probe",
        )
        kernel.run(until=12.5)
        assert observed[5.0] == pytest.approx(3.0 * baseline)
        assert observed[10.0] == pytest.approx(baseline)


class TestRespawnAfterMidBacklogCrash:
    def test_fresh_daemon_finishes_after_a_mid_backlog_crash(self):
        account = CloudAccount(seed=9)
        protocol = ProtocolP3(account)
        fs = PAS3fs(account, protocol)
        builder = TraceBuilder()
        writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/w")
        for index in range(15):
            builder.write_close(writer, f"{MOUNT}many/f{index:02d}.dat", 4096)
        builder.exit(writer)
        fs.run(collect(builder.trace))
        total = account.sqs.pending_count(protocol.queue_url)
        assert total > 10

        # The first daemon commits its first group and dies in the
        # middle of its second, with the backlog only part committed.
        account.faults.arm_crash("p3.mid_commit", skip=1)
        with pytest.raises(ClientCrashError):
            protocol.finalize()
        account.faults.disarm_all()
        first_committed = protocol.commit_daemon.committed_count()
        assert 0 < first_committed < 15

        # The messages the dead daemon received are invisible until the
        # visibility timeout lapses; SQS then redelivers them to anyone.
        account.settle(35.0)

        fresh = CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=protocol.router,
        )
        committed, pending = drain(fresh)
        assert first_committed + committed == 15
        assert pending == 0
        assert account.sqs.pending_count(protocol.queue_url) == 0
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")


class TestDuplicateDeliveryIdempotence:
    def _run(self, duplicate_rate: float) -> str:
        account = CloudAccount(seed=11)
        account.sqs.duplicate_delivery_rate = duplicate_rate
        protocol = ProtocolP3(account)
        fs = PAS3fs(account, protocol)
        builder = TraceBuilder()
        writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/w")
        for index in range(4):
            builder.write_close(writer, f"{MOUNT}dup/f{index}.dat", 8192)
        builder.exit(writer)
        fs.run(collect(builder.trace))
        protocol.finalize()
        assert protocol.commit_daemon.committed_count() == 4
        account.settle(120.0)
        return _state_snapshot(account, protocol)

    def test_recommits_under_duplicate_delivery_are_idempotent(self):
        # At-least-once delivery re-hands messages to the daemon; the
        # re-issued writes are set-semantics no-ops, so the settled
        # store is byte-identical to the exactly-once run.
        assert self._run(0.6) == self._run(0.0)


class TestMixedProtocolFleet:
    def test_p1_p2_p3_clients_interleave_on_one_kernel(self):
        account = CloudAccount(seed=2)
        protocols = [
            ProtocolP1(account),
            ProtocolP2(account),
            ProtocolP3(account),
        ]
        fleet = make_fleet(clients=3, files_per_client=2, seed=2)
        kernel = SimKernel(account)
        for client, protocol in zip(fleet, protocols):
            kernel.spawn(
                protocol_client_process(
                    protocol, client, think_s=1.0, rng=random.Random(7)
                ),
                name=client.client_id,
            )
        kernel.run()
        protocols[2].finalize()
        account.settle(120.0)

        done = [kernel.process(c.client_id) for c in fleet]
        assert all(p.state is ProcessState.DONE for p in done)
        # The clients genuinely overlapped in virtual time.
        starts = [p.domain.started_at for p in done]
        ends = [p.domain.finished_at for p in done]
        assert max(starts) < min(ends)

        # Each backend holds its protocol's provenance: P1's uuid-named
        # S3 objects, P2's directly-put items, P3's daemon-committed
        # items — all from one interleaved run.
        assert account.s3.peek_keys(protocols[0].bucket, "prov/c0000")
        assert account.simpledb.peek_item(protocols[1].domain, "c0001-f000_1")
        assert account.simpledb.peek_item(protocols[2].domain, "c0002-f000_1")


class TestConcurrentReaders:
    def test_reader_observes_staleness_then_convergence(self):
        account = CloudAccount(seed=3)
        protocol = ProtocolP3(account, client_id="fleet-shared")
        fleet = make_fleet(
            clients=2, files_per_client=3, file_bytes=8 * 1024,
            extra_attributes=4, seed=3,
        )
        kernel = SimKernel(account)
        daemon = CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=protocol.router,
        )
        kernel.spawn(daemon.process(poll_interval=1.0), name="d", daemon=True)
        watch = FleetWatch()
        master = random.Random(3)
        for client in fleet:
            kernel.spawn(
                protocol_client_process(
                    protocol, client, 2.0,
                    random.Random(master.randrange(1 << 30)), watch,
                ),
                name=client.client_id,
            )
        samples = []
        kernel.spawn(
            reader_process(
                account, protocol.router.domains, FLEET_PROGRAM, watch,
                samples, interval_s=3.0, queries=("q1",),
                rng=random.Random(master.randrange(1 << 30)),
            ),
            name="reader",
            daemon=True,
        )
        kernel.run()
        guard = 0
        while (
            account.sqs.pending_count(protocol.queue_url) > 0 and guard < 100
        ):
            kernel.run(until=account.now + 5.0)
            guard += 1
        account.settle(120.0)
        kernel.run(until=account.now + 6.0)

        q1 = [s for s in samples if s.query == "q1"]
        assert q1
        # Mid-run the reader saw acknowledged-but-invisible writes (WAL
        # backlog + propagation): read-your-writes staleness is real.
        assert max(s.stale for s in q1) > 0
        # After the drain settled, the reader's view converged.
        assert q1[-1].stale == 0
        assert q1[-1].visible == len(watch.flushed) == 6
