"""Service-tier chaos: the recovery story extended from the daemon tier
to the whole service tier.

The daemon-tier chaos tests pin what survives a *commit daemon* death;
these pin the other moving parts of the multi-tenant deployment —  the
ingest gateway killed mid-coalescing-window, one shard's indexing
pipeline collapsing while the others stay healthy, and query-side
readers crashing and respawning — all under the same yardstick: the
settled store, Q1-Q4 answers, and their billing end byte-identical to
the fault-free run, deterministically per seed.
"""

import random

import pytest

from repro.backends.parity import store_fingerprint
from repro.cloud.account import CloudAccount
from repro.core import ProtocolP3
from repro.core.commit_daemon import CommitDaemon
from repro.service import IngestGateway, ShardRouter
from repro.sim import Batch, Delay, ProcessState, SimKernel
from repro.workloads.base import MOUNT
from repro.workloads.fleet import (
    FLEET_PROGRAM,
    FleetWatch,
    make_fleet,
    protocol_client_process,
    reader_process,
    run_fleet_kernel,
)


def _service_snapshot(account, router, bucket) -> str:
    """Byte-comparable settled service state: every item in every shard
    domain plus every S3 object's digest and metadata (no timestamps)."""
    domains = {
        domain: {
            name: account.simpledb.peek_item(domain, name)
            for name in account.simpledb.peek_item_names(domain)
        }
        for domain in router.domains
    }
    objects = {
        key: (
            account.s3.peek_latest(bucket, key).blob.digest,
            tuple(sorted(account.s3.peek_latest(bucket, key).metadata.items())),
        )
        for key in account.s3.peek_keys(bucket)
    }
    return repr((domains, objects))


def _query_fingerprint(account, gateway, router):
    """repr of Q1 rows per shard plus the engine's Q2/Q3/Q4, and the
    operations/bytes those queries billed."""
    q1_rows = [
        account.simpledb.select(f"select * from {domain}")
        for domain in router.domains
    ]
    engine = gateway.query_engine()
    target = f"{MOUNT}fleet/c0000/f000.dat"
    ops_before = account.billing.operation_count()
    bytes_before = (
        account.billing.bytes_received() + account.billing.bytes_transmitted()
    )
    q2, _ = engine.q2_object_provenance(target)
    q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
    q4, _ = engine.q4_all_descendants(FLEET_PROGRAM)
    billing = (
        account.billing.operation_count() - ops_before,
        account.billing.bytes_received()
        + account.billing.bytes_transmitted()
        - bytes_before,
    )
    return repr((q1_rows, q2, q3, q4)), billing


def _gateway_fleet_run(seed=5, schedule=None):
    """A sharded gateway fleet on the kernel; ``schedule(account, router,
    gateway)`` arms chaos before the run starts."""
    account = CloudAccount(seed=seed)
    router = ShardRouter(shards=3)
    gateway = IngestGateway(account, router=router)
    fleet = make_fleet(
        clients=6, files_per_client=3, file_bytes=8 * 1024,
        extra_attributes=8, seed=seed,
    )
    if schedule is not None:
        schedule(account, router, gateway)
    result = run_fleet_kernel(
        account, gateway, fleet, seed=seed, think_s=0.5, window_s=0.25
    )
    account.settle(120.0)
    return account, router, gateway, result


class TestGatewayKillRespawn:
    def test_kill_mid_window_drops_and_duplicates_nothing(self):
        clean_account, clean_router, clean_gateway, clean_result = (
            _gateway_fleet_run()
        )
        clean_snapshot = _service_snapshot(
            clean_account, clean_router, clean_gateway.bucket
        )
        clean_queries = _query_fingerprint(
            clean_account, clean_gateway, clean_router
        )

        def arm(account, router, gateway):
            account.faults.schedule.crash_every(
                "gateway", every_s=1.2, start_at=0.9, times=2
            )
            # The respawn resumes the *same* gateway object — it is the
            # durable intake log; only the process incarnation died.
            account.faults.schedule.respawn(
                "gateway",
                lambda: gateway.process(gateway.window_s),
                delay_s=0.5,
            )

        account, router, gateway, result = _gateway_fleet_run(schedule=arm)

        # The chaos genuinely happened: two kills, two respawns.
        recurring = account.faults.schedule.recurring[0]
        assert recurring.fired_at == [0.9, 2.1]
        assert account.faults.schedule.respawns["gateway"].respawns == 2
        crashes = account.telemetry.events.of_kind("fault.crash")
        assert [event["target"] for event in crashes] == ["gateway"] * 2
        # Both kills landed inside a window, after its data batch: the
        # killed incarnation's provenance batch was placed before the
        # kill and due after it.
        slices = account.telemetry.events.of_kind("proc.slice")
        for crash in crashes:
            assert any(
                piece["name"] == "gateway"
                and piece["incarnation"] == crash["incarnation"]
                and piece["start"] < crash.t < piece.t
                for piece in slices
            )

        # Every submitted flush shipped exactly once: no batch lost with
        # a killed window, no data PUT sent twice by a re-issued one.
        assert result.flushes == clean_result.flushes == 18
        assert gateway.stats.flushes == gateway.stats.data_puts == 18
        assert (
            account.billing.snapshot()["s3"]["PUT"]
            == clean_account.billing.snapshot()["s3"]["PUT"]
        )
        assert not gateway.busy
        assert _service_snapshot(
            account, router, gateway.bucket
        ) == clean_snapshot
        assert _query_fingerprint(account, gateway, router) == clean_queries

    def test_flush_plan_hands_claimed_window_back_on_kill(self):
        account = CloudAccount(seed=2)
        gateway = IngestGateway(account)
        fleet = make_fleet(clients=2, files_per_client=1, seed=2)
        for client in fleet:
            gateway.submit(client.client_id, client.works[0])
        assert gateway.pending_count() == 2

        # Start a window flush, then kill it before the batch ships (the
        # kernel closes the generator exactly like this on a crash).
        plan = gateway.flush_plan()
        next(plan)
        plan.close()

        # The claimed window is back in the intake log, nothing shipped.
        assert gateway.pending_count() == 2
        assert gateway.stats.sdb_batches == 0
        assert gateway.stats.data_puts == 0
        flushed = gateway.flush_pending()
        assert flushed > 0
        assert gateway.pending_count() == 0

    def test_kill_after_the_data_batch_hands_back_provenance_only(self):
        def run(kill):
            account = CloudAccount(seed=2)
            gateway = IngestGateway(account)
            for client in make_fleet(clients=4, files_per_client=1, seed=2):
                gateway.submit(client.client_id, client.works[0])
            if kill:
                # Place the data batch and resume the plan into its
                # marshalling delay, then kill it there, before the
                # provenance batch.
                plan = gateway.flush_plan()
                data = next(plan)
                assert isinstance(data, Batch) and not data.charge
                placed = account.scheduler.execute_batch(
                    data.requests, data.connections, advance_clock=False
                )
                assert isinstance(plan.send(placed), Delay)
                plan.close()
                handed_back = [work for _client, work in gateway._pending]
                assert len(handed_back) == 4
                assert not any(work.include_data for work in handed_back)
            gateway.flush_pending()
            account.settle(120.0)
            return account, gateway

        clean_account, clean_gateway = run(kill=False)
        account, gateway = run(kill=True)

        # The retry re-put provenance only: one data PUT per flush, and
        # the same requests billed and the same store as the clean run.
        assert gateway.stats.data_puts == gateway.stats.flushes == 4
        assert account.billing.snapshot() == clean_account.billing.snapshot()
        assert store_fingerprint(account) == store_fingerprint(clean_account)
        assert _service_snapshot(
            account, gateway.router, gateway.bucket
        ) == _service_snapshot(
            clean_account, clean_gateway.router, clean_gateway.bucket
        )


class TestSingleShardDegradation:
    def test_one_degraded_shard_slows_the_run_but_not_the_answers(self):
        clean_account, clean_router, clean_gateway, clean_result = (
            _gateway_fleet_run()
        )
        clean_snapshot = _service_snapshot(
            clean_account, clean_router, clean_gateway.bucket
        )
        clean_queries = _query_fingerprint(
            clean_account, clean_gateway, clean_router
        )
        degraded_domain = clean_router.domains[1]

        def arm(account, router, gateway):
            account.faults.schedule.degrade(
                0.5, 4.0, domain=degraded_domain, item_scale=500.0
            )

        account, router, gateway, result = _gateway_fleet_run(schedule=arm)

        # The window genuinely degraded one shard's indexing pipeline...
        window = account.faults.schedule.windows[0]
        assert window.applied and window.restored
        opened = account.telemetry.events.of_kind("fault.degrade.open")
        assert opened[0]["domain"] == degraded_domain
        assert opened[0]["item_scale"] == 500.0
        assert result.elapsed_seconds > clean_result.elapsed_seconds
        # ...and restored its baseline throughput exactly at t2.
        assert (
            account.scheduler.pipeline_item_scale(
                f"simpledb:{degraded_domain}"
            )
            == 1.0
        )

        # Slower, never different: the settled store and every query
        # answer (and its billing) match the healthy run byte for byte.
        assert _service_snapshot(
            account, router, gateway.bucket
        ) == clean_snapshot
        assert _query_fingerprint(account, gateway, router) == clean_queries

    def test_degrade_validation(self):
        schedule = CloudAccount(seed=0).faults.schedule
        with pytest.raises(ValueError):
            schedule.degrade(0.0, 5.0, item_scale=0.5, domain="d")
        with pytest.raises(ValueError):
            schedule.degrade(0.0, 5.0, item_scale=2.0)  # no target domain


class TestReaderChaos:
    @staticmethod
    def _run(seed=3):
        account = CloudAccount(seed=seed)
        protocol = ProtocolP3(account, client_id="fleet-shared")
        fleet = make_fleet(
            clients=2, files_per_client=3, file_bytes=8 * 1024,
            extra_attributes=4, seed=seed,
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
        master = random.Random(seed)
        for client in fleet:
            kernel.spawn(
                protocol_client_process(
                    protocol, client, 2.0,
                    random.Random(master.randrange(1 << 30)), watch,
                ),
                name=client.client_id,
            )
        samples = []

        def reader_factory():
            # A fresh incarnation restarts its query rotation from the
            # same seeded RNG — crash recovery, deterministically.
            return reader_process(
                account, protocol.router.domains, FLEET_PROGRAM, watch,
                samples, interval_s=3.0, queries=("q1",),
                rng=random.Random(1234), label="reader",
            )

        kernel.spawn(reader_factory(), name="reader", daemon=True)
        account.faults.schedule.crash_every(
            "reader", every_s=7.0, start_at=7.0, times=1
        )
        account.faults.schedule.respawn("reader", reader_factory, delay_s=1.0)

        kernel.run()
        guard = 0
        while (
            account.sqs.pending_count(protocol.queue_url) > 0 and guard < 100
        ):
            kernel.run(until=account.now + 5.0)
            guard += 1
        account.settle(120.0)
        kernel.run(until=account.now + 6.0)
        return account, kernel, samples, watch

    def test_reader_crash_respawn_keeps_sampling_deterministically(self):
        account, kernel, samples, watch = self._run()

        # The kill landed and the respawn answered it.
        assert account.faults.schedule.recurring[0].fired_at == [7.0]
        incarnations = kernel.processes_named("reader")
        assert len(incarnations) == 2
        assert incarnations[0].state is ProcessState.CRASHED
        assert incarnations[-1].alive

        # The replacement kept observing: samples exist from after the
        # crash, and the final settled view converged on everything the
        # fleet flushed.
        assert any(sample.t > 8.0 for sample in samples)
        q1 = [s for s in samples if s.query == "q1"]
        assert q1[-1].stale == 0
        assert q1[-1].visible == len(watch.flushed) == 6

        # Same seed, same chaos, same samples — byte for byte.
        _, _, replay, _ = self._run()
        key = lambda s: (s.t, s.query, s.rows, s.flushed, s.visible)
        assert [key(s) for s in replay] == [key(s) for s in samples]
