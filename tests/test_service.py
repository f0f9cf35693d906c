"""The multi-tenant service tier: shard routing, the ingest gateway,
the query cache, and the client-fleet simulator."""

from dataclasses import replace

import pytest

from repro.cloud.account import CloudAccount
from repro.core import PAS3fs, ProtocolP2, ProtocolP3, collect
from repro.core.protocol_base import PROVENANCE_DOMAIN, DomainRouter, UploadMode
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.provenance.graph import NodeRef
from repro.provenance.syscalls import TraceBuilder
from repro.query.engine import SimpleDBQueryEngine
from repro.service import IngestGateway, LRUCache, ShardRouter
from repro.sim import Batch, Delay, run_plan_phased
from repro.workloads.base import MOUNT
from repro.workloads.fleet import FLEET_PROGRAM, make_fleet, run_fleet


class TestShardRouter:
    def test_one_shard_keeps_legacy_domain(self):
        router = ShardRouter(shards=1)
        assert router.domains == (PROVENANCE_DOMAIN,)
        assert router.domain_for("anything") == PROVENANCE_DOMAIN

    def test_mapping_is_stable_across_instances(self):
        a = ShardRouter(shards=8)
        b = ShardRouter(shards=8)
        for uuid in ("f-000001", "p-000002", "c0003-f001"):
            assert a.domain_for(uuid) == b.domain_for(uuid)

    def test_all_versions_of_an_object_share_a_shard(self):
        router = ShardRouter(shards=4)
        domains = {router.domain_for("f-000042") for _ in range(10)}
        assert len(domains) == 1

    def test_spreads_across_shards(self):
        router = ShardRouter(shards=4)
        hit = {router.domain_for(f"f-{i:06d}") for i in range(200)}
        assert hit == set(router.domains)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardRouter(shards=0)

    def test_group_by_domain_preserves_order(self):
        router = DomainRouter("d")
        bundles = [ProvenanceBundle(uuid=f"u{i}") for i in range(3)]
        grouped = router.group_by_domain(bundles)
        assert grouped == [("d", bundles)]


def _small_fleet(clients=4, files_per_client=2, seed=7):
    return make_fleet(
        clients=clients,
        files_per_client=files_per_client,
        extra_attributes=4,
        seed=seed,
    )


class TestIngestGateway:
    def test_coalesces_batches_across_clients(self):
        account = CloudAccount(seed=1)
        gateway = IngestGateway(account)
        for client in _small_fleet():
            gateway.submit(client.client_id, client.works[0])
        gateway.flush_pending()
        # Four lone clients would each pay their own BatchPutAttributes;
        # the gateway fills one shared batch (4 clients x 2 items < 25).
        assert gateway.stats.sdb_batches == 1
        assert gateway.stats.sdb_batches_unbatched == 4
        assert gateway.stats.sdb_batches_saved == 3
        assert len(gateway.stats.clients) == 4

    def test_store_is_queryable_after_ingest(self):
        account = CloudAccount(seed=1)
        gateway = IngestGateway(account)
        fleet = _small_fleet()
        run_fleet(account, gateway, fleet, seed=7)
        account.settle(60.0)
        engine = SimpleDBQueryEngine(account)
        path = fleet[0].works[0].primary.path
        attributes, stats = engine.q2_object_provenance(path)
        assert attributes["type"] == ["file"]
        assert "sha1" in attributes  # the coupling record rode along
        assert stats.operations > 0
        outputs, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
        assert len(outputs) == sum(len(c.works) for c in fleet)

    def test_flush_pending_empty_window_is_free(self):
        account = CloudAccount(seed=1)
        gateway = IngestGateway(account)
        before = account.billing.operation_count()
        assert gateway.flush_pending() == 0
        assert account.billing.operation_count() == before


def _recorded(plan, log):
    """Pass ``plan``'s effects through, logging each with what was sent
    back for it."""
    value = None
    while True:
        try:
            effect = plan.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield effect
        log.append((effect, value))


def _window_timeline():
    """One 64-client window on 4 shards, driven phased: the virtual time
    it opened, its effects with their results, and the account."""
    account = CloudAccount(seed=0)
    gateway = IngestGateway(account, ShardRouter(shards=4))
    fleet = make_fleet(
        clients=64, files_per_client=1, extra_attributes=24, seed=0
    )
    for client in fleet:
        gateway.submit(client.client_id, client.works[0])
    opened = account.now
    log = []
    run_plan_phased(account, _recorded(gateway.flush_plan(), log))
    return opened, log, account


class TestGatewayWindowTimeline:
    """The data PUTs leave as a window opens and fly while the
    provenance is marshalled; only provenance requests are charged."""

    def test_one_flush_window_charges_what_p2_charges(self):
        work = _small_fleet(clients=1, files_per_client=1)[0].works[0]
        delays = {}
        for name in ("gateway", "p2"):
            account = CloudAccount(seed=1)
            if name == "gateway":
                gateway = IngestGateway(account)
                gateway.submit("c0", work)
                plan = gateway.flush_plan()
            else:
                plan = ProtocolP2(account, mode=UploadMode.PARALLEL).flush_plan(
                    work
                )
            log = []
            run_plan_phased(account, _recorded(plan, log))
            # The marshalling charge: every delay before the first
            # charged batch.
            delays[name] = []
            for effect, _result in log:
                if isinstance(effect, Batch) and effect.charge:
                    break
                if isinstance(effect, Delay):
                    delays[name].append(effect.seconds)
        assert len(delays["p2"]) == 2
        assert delays["gateway"] == delays["p2"]

    def test_data_puts_commit_before_marshalling_ends(self):
        opened, log, _account = _window_timeline()
        (data_batch, data), (first, _), (second, _) = log[:3]
        assert isinstance(data_batch, Batch) and not data_batch.charge
        assert len(data_batch.requests) == 64
        assert isinstance(first, Delay) and isinstance(second, Delay)
        assert data.started_at == opened
        assert data.finished_at < opened + first.seconds + second.seconds

    def test_window_ends_when_data_and_provenance_are_both_done(self):
        opened, log, account = _window_timeline()
        data, provenance = [
            result for effect, result in log if isinstance(effect, Batch)
        ]
        marshal = log[1][0].seconds + log[2][0].seconds
        assert provenance.started_at == pytest.approx(opened + marshal)
        assert account.now == pytest.approx(
            max(data.finished_at, provenance.finished_at)
        )

    def test_window_without_provenance_waits_for_its_data(self):
        account = CloudAccount(seed=0)
        gateway = IngestGateway(account)
        work = _small_fleet(clients=1, files_per_client=1)[0].works[0]
        gateway.submit("c0", replace(work, bundles=[]))
        log = []
        run_plan_phased(account, _recorded(gateway.flush_plan(), log))
        (data_batch, data), (wait, _) = log
        assert not data_batch.charge and isinstance(wait, Delay)
        assert account.now == pytest.approx(data.finished_at)


class TestFleetDeterminism:
    def _run(self, shards, seed):
        account = CloudAccount(seed=seed)
        router = ShardRouter(shards=shards)
        gateway = IngestGateway(account, router)
        fleet = make_fleet(clients=6, files_per_client=3, seed=seed)
        result = run_fleet(account, gateway, fleet, seed=seed)
        account.settle(60.0)
        engine = SimpleDBQueryEngine(account, router=router)
        q2, _ = engine.q2_object_provenance(fleet[0].works[0].primary.path)
        q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
        q4, _ = engine.q4_all_descendants(FLEET_PROGRAM)
        billing = (
            result.operations,
            result.bytes_transmitted,
            result.cost_usd,
            result.elapsed_seconds,
        )
        return billing, repr((q2, q3, q4))

    def test_same_seed_same_shards_is_identical(self):
        # Acceptance: same seed + same shard count => identical billing
        # totals and query answers across two runs.
        assert self._run(shards=4, seed=11) == self._run(shards=4, seed=11)

    def test_shard_count_does_not_change_answers(self):
        # Acceptance: Q2-Q4 through the shard-aware path are
        # byte-identical to the single-domain path for the same seed.
        _, single = self._run(shards=1, seed=11)
        _, sharded = self._run(shards=4, seed=11)
        assert single == sharded

    def test_q4_reaches_beyond_direct_outputs(self):
        account = CloudAccount(seed=3)
        gateway = IngestGateway(account)
        fleet = make_fleet(clients=6, files_per_client=4, seed=3)
        run_fleet(account, gateway, fleet, seed=3)
        account.settle(60.0)
        engine = SimpleDBQueryEngine(account)
        q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
        q4, _ = engine.q4_all_descendants(FLEET_PROGRAM)
        # Every file derives from the worker, so Q3 == Q4 as sets here;
        # the closure must at least cover the direct outputs.
        assert set(q3) <= set(q4)


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.evictions == 1

    def test_generation_invalidates_everything(self):
        cache = LRUCache(capacity=8)
        cache.put("k", "v")
        cache.note_write()
        assert cache.get("k") is None
        assert cache.stats.invalidations == 1

    def test_generation_bump_drops_stale_entries(self):
        # A generation bump makes every stored entry unreachable, so it
        # must also leave the map: dead entries inflated the size gauge
        # and pinned their answer objects.
        cache = LRUCache(capacity=8)
        for index in range(8):
            cache.put(f"k{index}", index)
        assert len(cache) == 8
        cache.note_write()
        assert len(cache) == 0
        cache.put("fresh", "v")
        assert len(cache) == 1
        assert cache.get("fresh") == "v"

    def test_no_spurious_evictions_after_write(self):
        # Refilling a full cache after a write must not evict anything:
        # the old generation's entries are gone, so the new generation's
        # working set has the whole capacity to itself.  Before the fix,
        # stranded dead entries burned `capacity` evictions per bump.
        cache = LRUCache(capacity=4)
        for index in range(4):
            cache.put(f"k{index}", index)
        cache.note_write()
        for index in range(4):
            cache.put(f"k{index}", index)
        assert cache.stats.evictions == 0
        assert len(cache) == 4

    def test_write_heavy_interleaving_keeps_hit_rate(self):
        # Read-repeat-write cycles: each cycle misses once per key and
        # then hits; generation bumps never cost extra misses beyond the
        # cold reload, so the hit rate stays at the workload's ceiling.
        cache = LRUCache(capacity=8)
        keys = [f"q{index}" for index in range(4)]
        for _ in range(10):
            for key in keys:
                if cache.get(key) is None:
                    cache.put(key, key.upper())
            for key in keys:
                assert cache.get(key) == key.upper()
            cache.note_write()
        # Per cycle: 4 cold misses + 4 warm hits from the reload loop's
        # second pass -> exactly half the lookups hit, every cycle.
        assert cache.stats.misses == 40
        assert cache.stats.hits == 40
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.evictions == 0


class TestCachedQueryEngine:
    def _populated_gateway(self):
        account = CloudAccount(seed=5)
        gateway = IngestGateway(account, ShardRouter(shards=2))
        fleet = _small_fleet(seed=5)
        run_fleet(account, gateway, fleet, seed=5)
        account.settle(60.0)
        return account, gateway, fleet[0].works[0].primary.path

    def test_repeated_q2_hits_cache_with_zero_cloud_ops(self):
        account, gateway, path = self._populated_gateway()
        engine = gateway.query_engine()
        before = account.billing.operation_count()
        cold, cold_stats = engine.q2_object_provenance(path)
        cold_ops = account.billing.operation_count() - before
        before = account.billing.operation_count()
        warm, warm_stats = engine.q2_object_provenance(path)
        warm_ops = account.billing.operation_count() - before
        assert cold_ops > 0
        assert warm_ops == 0
        assert warm_stats.operations == 0
        assert warm_stats.elapsed_seconds == 0.0
        assert repr(warm) == repr(cold)
        assert engine.stats.hits == 1
        assert engine.stats.misses == 1

    def test_ingest_invalidates_cached_answers(self):
        account, gateway, path = self._populated_gateway()
        engine = gateway.query_engine()
        engine.q2_object_provenance(path)
        engine.q2_object_provenance(path)
        assert engine.stats.hits == 1
        # New data arrives through the gateway: the cache generation
        # bumps, so the next lookup goes back to the cloud.
        extra = make_fleet(clients=1, files_per_client=1, seed=99)[0]
        gateway.submit(extra.client_id, extra.works[0])
        gateway.flush_pending()
        account.settle(60.0)
        engine.q2_object_provenance(path)
        assert engine.stats.hits == 1
        assert engine.stats.misses == 2


def _pipeline_trace():
    """A tiny two-stage pipeline touching the mount."""
    builder = TraceBuilder()
    gen = builder.spawn("generate", argv=["generate"], exec_path="/bin/generate")
    builder.read(gen, "/local/seed.dat", 1024)
    builder.write_close(gen, f"{MOUNT}pipe/stage1.out", 64 * 1024)
    builder.exit(gen)
    xform = builder.spawn("transform", argv=["transform"], exec_path="/bin/transform")
    builder.read(xform, f"{MOUNT}pipe/stage1.out", 64 * 1024)
    builder.write_close(xform, f"{MOUNT}pipe/stage2.out", 32 * 1024)
    builder.exit(xform)
    return builder.trace


class TestRoutedProtocols:
    """P2/P3 with a shard router store the same provenance the paper's
    single-domain configuration stores — just spread over domains."""

    def _answers(self, protocol_cls, router, seed=21, **kwargs):
        account = CloudAccount(seed=seed)
        protocol = protocol_cls(account, router=router, **kwargs)
        fs = PAS3fs(account, protocol)
        fs.run(collect(_pipeline_trace()))
        fs.finalize()
        account.settle(120.0)
        engine = SimpleDBQueryEngine(account, router=router)
        q2, _ = engine.q2_object_provenance(f"{MOUNT}pipe/stage2.out")
        q4, _ = engine.q4_all_descendants("generate")
        return repr((q2, q4))

    def test_p2_sharded_matches_single_domain(self):
        single = self._answers(ProtocolP2, None)
        sharded = self._answers(ProtocolP2, ShardRouter(shards=3))
        assert single == sharded

    def test_p3_sharded_matches_single_domain(self):
        single = self._answers(ProtocolP3, None)
        sharded = self._answers(ProtocolP3, ShardRouter(shards=3))
        assert single == sharded

    def test_p3_routed_commit_spreads_items(self):
        account = CloudAccount(seed=21)
        router = ShardRouter(shards=3)
        protocol = ProtocolP3(account, router=router)
        fs = PAS3fs(account, protocol)
        fs.run(collect(_pipeline_trace()))
        fs.finalize()
        populated = [
            domain
            for domain in router.domains
            if account.simpledb.peek_item_names(domain)
        ]
        assert len(populated) > 1


class TestTimeBasedWindows:
    """On the kernel the gateway's coalescing window is *time-based*:
    whoever submits within the same window_s shares one cloud batch,
    regardless of which client called what."""

    def test_submissions_within_a_window_coalesce_across_clients(self):
        from repro.sim import Delay, SimKernel

        account = CloudAccount(seed=0)
        gateway = IngestGateway(account, ShardRouter(shards=2))
        fleet = _small_fleet(clients=4, files_per_client=1)
        kernel = SimKernel(account)
        kernel.spawn(gateway.process(window_s=1.0), name="gateway", daemon=True)

        def client(c, offset):
            # All four clients land inside the first 1-second window,
            # staggered in time — something the call-based gateway could
            # not express.
            yield Delay(offset)
            gateway.submit(c.client_id, c.works[0])

        for index, c in enumerate(fleet):
            kernel.spawn(client(c, 0.1 + index * 0.2), name=c.client_id)
        kernel.run()
        while gateway.busy:
            kernel.run(until=account.now + 1.0)

        assert gateway.stats.flushes == 4
        assert gateway.stats.windows == 1
        assert len(gateway.stats.clients) == 4
        assert gateway.stats.sdb_batches_saved > 0

    def test_submissions_in_different_windows_do_not_coalesce(self):
        from repro.sim import Delay, SimKernel

        account = CloudAccount(seed=0)
        gateway = IngestGateway(account, ShardRouter(shards=1))
        fleet = _small_fleet(clients=2, files_per_client=1)
        kernel = SimKernel(account)
        kernel.spawn(gateway.process(window_s=0.5), name="gateway", daemon=True)

        def client(c, offset):
            yield Delay(offset)
            gateway.submit(c.client_id, c.works[0])

        kernel.spawn(client(fleet[0], 0.1), name="early")
        kernel.spawn(client(fleet[1], 4.0), name="late")
        kernel.run()
        while gateway.busy:
            kernel.run(until=account.now + 0.5)

        assert gateway.stats.flushes == 2
        assert gateway.stats.windows == 2

    def test_kernel_fleet_run_is_deterministic_and_complete(self):
        from repro.workloads.fleet import run_fleet_kernel

        def once():
            account = CloudAccount(seed=11)
            gateway = IngestGateway(account, ShardRouter(shards=2))
            fleet = _small_fleet(clients=5, files_per_client=3)
            result = run_fleet_kernel(
                account, gateway, fleet, seed=11, think_s=0.5, window_s=0.25
            )
            return result, gateway.stats.windows, gateway.stats.data_puts

        first, first_windows, first_puts = once()
        second, second_windows, second_puts = once()
        assert first == second
        assert first_windows == second_windows
        # Every flush's data object shipped despite the window cadence.
        assert first_puts == sum(
            1 for c in _small_fleet(clients=5, files_per_client=3)
            for w in c.works if w.include_data
        )
