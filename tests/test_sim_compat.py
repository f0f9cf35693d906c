"""The two drivers of an effect plan agree byte for byte.

Every protocol flush and gateway window is one plan.  The phased driver
(``protocol.flush``, ``run_fleet``) and a one-process ``SimKernel`` must
leave the same clock, bill and store; if these tests fail, a driver
changed the physics, not just the execution model.  The Figure 3 tool's
upload batch is held to the same numbers on both drivers by
``TestMicrobenchmarkEquivalence``; its request collector is pinned by the
golden results under ``benchmarks/`` and by ``TestMicrobenchCollector``."""

import random

import pytest

from repro.backends.parity import store_fingerprint
from repro.cloud.account import CloudAccount
from repro.cloud.profiles import SimulationProfile
from repro.core import ProtocolP1, ProtocolP2, ProtocolP3, UploadMode
from repro.core.protocol_base import FlushWork
from repro.obs.tracing import CLIENT_EMIT, WAL_LOGGED
from repro.provenance.pass_collector import FlushIntent, PassCollector
from repro.provenance.syscalls import TraceBuilder
from repro.service import IngestGateway, ShardRouter
from repro.sim import Delay, SimKernel, run_plan_phased
from repro.sim.events import Batch
from repro.workloads import make_blast_workload
from repro.workloads.base import MOUNT
from repro.workloads.fleet import make_fleet, run_fleet
from repro.workloads.microbench import (
    MicrobenchResult,
    _prepare_run,
    _upload_requests,
    run_microbenchmark,
)

PROTOCOLS = {"p1": ProtocolP1, "p2": ProtocolP2, "p3": ProtocolP3}


def _capture_works():
    """The flush works a PAS3fs run of a small writer would issue,
    collected without executing any cloud traffic."""
    builder = TraceBuilder()
    proc = builder.spawn("writer", argv=["writer"], exec_path="/bin/writer")
    builder.read(proc, "/local/in.dat", 2048)
    for index in range(3):
        builder.write_close(proc, f"{MOUNT}eq/f{index}.dat", 48 * 1024)
    builder.exit(proc)

    collector = PassCollector()
    works = []
    for event in builder.trace:
        for intent in collector.feed(event):
            if isinstance(intent, FlushIntent) and intent.path.startswith(MOUNT):
                works.append(
                    FlushWork(
                        primary=intent,
                        bundles=collector.pop_pending_closure(intent.uuid),
                    )
                )
    return works


def _snapshot(account, domains, bucket):
    """Every stored item and object, value order included."""
    items = {
        (domain, name): account.simpledb.peek_item(domain, name)
        for domain in domains
        for name in account.simpledb.peek_item_names(domain)
    }
    objects = {
        key: (record.blob.digest, tuple(sorted(record.metadata.items())))
        for key in account.s3.peek_keys(bucket)
        for record in [account.s3.peek_latest(bucket, key)]
    }
    return repr((items, objects)), store_fingerprint(account)


def _bill(account):
    billing = account.billing
    return (
        billing.operation_count(),
        billing.bytes_transmitted(),
        billing.cost(),
    )


def _run_alone(account, plan):
    """Run ``plan`` as the only process on a fresh kernel."""
    kernel = SimKernel(account)
    kernel.spawn(plan, name="driver")
    kernel.run()


def _protocol_run(protocol_name, mode, on_kernel):
    account = CloudAccount(seed=5)
    protocol = PROTOCOLS[protocol_name](account, mode=mode)
    works = _capture_works()
    if on_kernel:

        def client():
            for work in works:
                yield from protocol.flush_plan(work)

        _run_alone(account, client())
    else:
        for work in works:
            protocol.flush(work)
    # Client elapsed time excludes P3's commit daemon, drained after.
    elapsed = account.now
    protocol.finalize()
    domains = protocol.router.domains if hasattr(protocol, "router") else ()
    return elapsed, _bill(account), _snapshot(account, domains, protocol.bucket)


def _fleet_rounds(gateway, fleet, seed):
    """``run_fleet``'s seeded round-robin loop, as one plan."""
    rng = random.Random(seed)
    queues = {client.client_id: list(client.works) for client in fleet}
    while True:
        live = [cid for cid, queue in queues.items() if queue]
        if not live:
            return
        rng.shuffle(live)
        for cid in live:
            gateway.submit(cid, queues[cid].pop(0))
        yield from gateway.flush_plan()


def _gateway_run(shards, on_kernel):
    account = CloudAccount(seed=0)
    gateway = IngestGateway(account, ShardRouter(shards=shards))
    fleet = make_fleet(clients=8, files_per_client=3, extra_attributes=16, seed=0)
    if on_kernel:
        _run_alone(account, _fleet_rounds(gateway, fleet, seed=0))
    else:
        run_fleet(account, gateway, fleet, seed=0)
    stats = gateway.stats
    return (
        account.now,
        _bill(account),
        (stats.windows, stats.sdb_batches, stats.sdb_batches_saved),
        _snapshot(account, gateway.router.domains, gateway.bucket),
    )


DRIVER_CASES = [
    pytest.param(_protocol_run, (protocol, mode), id=f"{protocol}-{mode.value}")
    for protocol in PROTOCOLS
    for mode in (UploadMode.PARALLEL, UploadMode.CAUSAL)
] + [
    pytest.param(_gateway_run, (shards,), id=f"gateway-{shards}-shards")
    for shards in (1, 2)
]


@pytest.mark.parametrize("run, args", DRIVER_CASES)
def test_phased_and_kernel_drivers_agree(run, args):
    """Same plans, two drivers: equal clock, operations, bytes, cost,
    gateway batching and stored state."""
    phased = run(*args, on_kernel=False)
    kernel = run(*args, on_kernel=True)
    assert kernel == phased


class TestMicrobenchmarkEquivalence:
    """The Figure 3 tool's one upload batch gives identical numbers on the
    phased scheduler and as a ``Batch`` on a one-process kernel."""

    @pytest.mark.parametrize("configuration", ["s3fs", "p1", "p2", "p3"])
    def test_fig3_numbers_identical(self, configuration):
        workload = make_blast_workload(jobs=2, queries_per_job=30)
        phased = run_microbenchmark(workload, configuration, seed=0)

        connections = 150
        account, works = _prepare_run(
            workload, configuration, SimulationProfile(), 0, None
        )
        stopwatch = account.stopwatch()
        requests = _upload_requests(account, works, configuration, connections)

        def uploader():
            yield Batch(requests, connections)

        _run_alone(account, uploader())
        kernel = MicrobenchResult(
            configuration=configuration,
            elapsed_seconds=stopwatch.elapsed(),
            operations=account.billing.operation_count(),
            bytes_transmitted=account.billing.bytes_transmitted(),
            cost_usd=account.billing.cost(),
        )
        assert kernel == phased  # every field, including elapsed seconds


class TestMicrobenchCollector:
    """The Figure 3 tool walks flush plans only to collect their
    requests, so no plan may see a batch result that does not exist."""

    def test_p3_collection_marks_no_wal_logged(self):
        account = CloudAccount(seed=0)
        workload = make_blast_workload(jobs=2, queries_per_job=30)
        run_microbenchmark(workload, "p3", seed=0, account=account)
        traces = account.telemetry.tracer.traces()
        assert any(CLIENT_EMIT in trace.first for trace in traces)
        assert not any(WAL_LOGGED in trace.first for trace in traces)


class TestPhasedPlanDriver:
    """run_plan_phased maps effects onto the pre-kernel semantics."""

    def test_delay_advances_clock_and_batch_respects_advance_clock(self):
        account = CloudAccount()
        account.s3.create_bucket("b")

        def plan():
            from repro.cloud.blob import Blob

            yield Delay(3.0)
            yield Batch(
                [account.s3.put_request("b", "k", Blob.synthetic(512, "k"))],
                connections=1,
            )
            return "done"

        result = run_plan_phased(account, plan(), advance_clock=False)
        assert result == "done"
        # The delay advanced the clock; the uncharged batch did not.
        assert account.now == pytest.approx(3.0)
        assert account.billing.operation_count() == 1

    def test_unknown_effect_rejected(self):
        account = CloudAccount()

        def plan():
            yield object()

        with pytest.raises(TypeError):
            run_plan_phased(account, plan())
