"""Shard routing: itemName-rooted chunks hit one shard, the rest fan out.

The routing contract on the multitenant fixture: a chunked
``itemName() IN (...)`` select's names all hash to a known shard, so
the sharded engine contacts exactly that shard (asserted through the
service's per-domain chain counters, not just the engine's own stats);
attribute-rooted lookups visit every shard; and routing never changes
answers — the routed engine returns byte-identical results to a naive
fan-to-every-shard engine.  Routing is the uuid hash alone, so a router
answers the same after a restart or beside a second writer.
"""

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.cloud.account import CloudAccount
from repro.core.sdb_items import build_item_plan, build_routed_requests
from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.query.engine import SimpleDBQueryEngine
from repro.service import IngestGateway, ShardRouter
from repro.workloads.fleet import FLEET_PROGRAM, make_fleet, run_fleet

TARGET = "/mnt/s3/fleet/c0000/f000.dat"
TARGET_UUID = "c0000-f000"


def _fixture(shards=3, seed=5):
    account = CloudAccount(seed=seed)
    router = ShardRouter(shards=shards)
    gateway = IngestGateway(account, router)
    fleet = make_fleet(clients=6, files_per_client=3, seed=seed)
    run_fleet(account, gateway, fleet, seed=seed)
    account.settle(120.0)
    return account, router


def _chains_delta(account, before) -> Dict[str, int]:
    after = account.simpledb.select_stats.chains_by_domain
    return {
        domain: count - before.get(domain, 0)
        for domain, count in after.items()
        if count != before.get(domain, 0)
    }


class _NaiveFanoutRouter(ShardRouter):
    """The pre-routing behaviour: every itemName chunk to every shard."""

    def domains_for_names(
        self, names: Sequence[str]
    ) -> List[Tuple[str, List[str]]]:
        return [(domain, list(names)) for domain in self.domains]


def test_itemname_rooted_chunks_hit_exactly_one_shard():
    account, router = _fixture()
    engine = SimpleDBQueryEngine(account, router=router)
    before = dict(account.simpledb.select_stats.chains_by_domain)
    answer, _ = engine.q2_version_range(TARGET, 0, 3)
    assert answer  # the target's provenance is really there
    delta = _chains_delta(account, before)
    owning = router.domain_for(TARGET_UUID)
    assert list(delta) == [owning], delta
    assert engine.fanout.single_shard_chunks >= 1
    assert engine.fanout.fanned_out_selects == 0


def test_non_rooted_queries_still_fan_out():
    account, router = _fixture()
    engine = SimpleDBQueryEngine(account, router=router)
    before = dict(account.simpledb.select_stats.chains_by_domain)
    q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
    assert q3
    delta = _chains_delta(account, before)
    # The proc lookup and the reference lookup both visit every shard.
    assert sorted(delta) == sorted(router.domains)
    assert engine.fanout.fanned_out_selects >= len(router.domains)


def test_bloom_routing_matches_naive_fanout_answers():
    """The router that wrote the store answers Q3/Q4 byte for byte like
    a fresh router of the same layout, select for select: with Bloom
    pruning gone, what a router wrote no longer changes where it reads."""
    account, router = _fixture()
    writer = SimpleDBQueryEngine(account, router=router)
    fresh = SimpleDBQueryEngine(
        account, router=ShardRouter(router.base_domain, router.shards)
    )
    w3, _ = writer.q3_direct_outputs(FLEET_PROGRAM)
    f3, _ = fresh.q3_direct_outputs(FLEET_PROGRAM)
    assert w3
    assert repr(w3) == repr(f3)
    w4, _ = writer.q4_all_descendants(FLEET_PROGRAM)
    f4, _ = fresh.q4_all_descendants(FLEET_PROGRAM)
    assert repr(w4) == repr(f4)
    assert writer.fanout.fanned_out_selects == fresh.fanout.fanned_out_selects


def test_routed_answers_byte_identical_to_naive_fanout():
    account, router = _fixture()
    routed = SimpleDBQueryEngine(account, router=router)
    naive = SimpleDBQueryEngine(
        account, router=_NaiveFanoutRouter(shards=len(router.domains))
    )

    routed_answer, _ = routed.q2_version_range(TARGET, 0, 3)
    before = dict(account.simpledb.select_stats.chains_by_domain)
    naive_answer, _ = naive.q2_version_range(TARGET, 0, 3)
    # The naive engine really did contact every shard...
    assert sorted(_chains_delta(account, before)) == sorted(router.domains)
    # ...for the same bytes the routed single-shard lookup returned.
    assert repr(routed_answer) == repr(naive_answer)


def test_version_range_covers_q2_on_single_version_objects():
    """A range spanning every version of the object returns exactly the
    full Q2 answer (merged attributes, same order)."""
    account, router = _fixture()
    engine = SimpleDBQueryEngine(account, router=router)
    full, _ = engine.q2_object_provenance(TARGET)
    ranged, _ = engine.q2_version_range(TARGET, 0, 3)
    assert repr(ranged) == repr(full)


def test_single_shard_router_degenerates_cleanly():
    account = CloudAccount(seed=5)
    router = ShardRouter(shards=1)
    gateway = IngestGateway(account, router)
    fleet = make_fleet(clients=3, files_per_client=2, seed=5)
    run_fleet(account, gateway, fleet, seed=5)
    account.settle(120.0)
    engine = SimpleDBQueryEngine(account, router=router)
    ranged, _ = engine.q2_version_range(TARGET, 0, 3)
    full, _ = engine.q2_object_provenance(TARGET)
    assert repr(ranged) == repr(full)
    assert engine.fanout.single_shard_chunks >= 1


class _RecordingRouter(ShardRouter):
    """Records every write-path hook call instead of ignoring it."""

    def __init__(self, shards):
        super().__init__(shards=shards)
        self.noted = []

    def note_indexed_items(self, domain, items):
        self.noted.append((domain, items))


def test_build_routed_requests_notes_each_shard_group():
    """The write path hands the router each shard group's built items,
    once per group, in group order: the hook ``perf/``'s tracer counts
    ingest items and pairs per shard by."""
    account = CloudAccount(seed=5)
    router = _RecordingRouter(shards=3)
    for domain in router.domains:
        account.simpledb.create_domain(domain)
    bundles = []
    for i in range(12):
        ref = NodeRef(f"u{i:02d}", 0)
        bundle = ProvenanceBundle(uuid=ref.uuid)
        bundle.add(ProvenanceRecord(ref, "type", "file"))
        bundle.add(ProvenanceRecord(ref, "name", f"f{i}"))
        bundles.append(bundle)
    _, _, pairs = build_routed_requests(router, bundles, account, "pass-data")
    expected = [
        (domain, build_item_plan(group, account.s3, "pass-data").items)
        for domain, group in router.group_by_domain(bundles)
    ]
    assert len(expected) == len(router.domains)  # every shard got a group
    assert router.noted == expected
    assert pairs == sum(len(p) for _, items in expected for _, p in items)


# -- Routing across restarts and writers ------------------------------------
#
# Routing is a pure function of the uuid: a router keeps no record of
# what it wrote.  So a router over a store it did not fill — a reopened
# local root, a second router over the same account — and a router
# that writes after another writer filled the store all reach every
# item, and answer exactly as a fresh router of the same layout does.

def _open(backend, root, seed=5):
    if backend == "local":
        return CloudAccount(seed=seed, backend="local", backend_root=str(root))
    return CloudAccount(seed=seed)


def _write(account, router, clients, seed=5):
    run_fleet(account, IngestGateway(account, router), clients, seed=seed)
    account.settle(120.0)


def _answers(account, router, fleet):
    """Q3, Q4 and every fleet file's version-range Q2 through ``router``."""
    engine = SimpleDBQueryEngine(account, router=router)
    q3, _ = engine.q3_direct_outputs(FLEET_PROGRAM)
    q4, _ = engine.q4_all_descendants(FLEET_PROGRAM)
    q2 = [
        engine.q2_version_range(path, 0, 3)[0]
        for client in fleet
        for path in client.file_paths()
    ]
    return q3, q4, q2


def _assert_full_fanout_answers(account, router, fleet):
    routed = _answers(account, router, fleet)
    full = _answers(account, ShardRouter(router.base_domain, router.shards), fleet)
    assert repr(routed) == repr(full)
    q3, _q4, q2 = routed
    assert len(q3) == sum(len(client.works) for client in fleet)
    assert all(q2)


@pytest.mark.parametrize("backend", ["sim", "local"])
@pytest.mark.parametrize("shards", [1, 2])
def test_second_router_over_a_filled_store_fans_out(backend, shards, tmp_path):
    fleet = make_fleet(clients=4, files_per_client=2, seed=5)
    account = _open(backend, tmp_path)
    _write(account, ShardRouter(shards=shards), fleet)
    _assert_full_fanout_answers(account, ShardRouter(shards=shards), fleet)
    account.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_router_over_a_reopened_store_fans_out(shards, tmp_path):
    fleet = make_fleet(clients=4, files_per_client=2, seed=5)
    account = _open("local", tmp_path)
    _write(account, ShardRouter(shards=shards), fleet)
    account.close()
    reopened = _open("local", tmp_path)
    reopened.settle(120.0)
    _assert_full_fanout_answers(reopened, ShardRouter(shards=shards), fleet)
    reopened.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_reopen_then_write_through_the_new_router(shards, tmp_path):
    fleet = make_fleet(clients=6, files_per_client=2, seed=5)
    account = _open("local", tmp_path)
    _write(account, ShardRouter(shards=shards), fleet[:4])
    account.close()
    reopened = _open("local", tmp_path)
    router = ShardRouter(shards=shards)
    _write(reopened, router, fleet[4:])
    try:
        _assert_full_fanout_answers(reopened, router, fleet)
    finally:
        reopened.close()


@pytest.mark.parametrize("backend", ["sim", "local"])
@pytest.mark.parametrize("shards", [1, 2])
def test_two_writers_over_one_store(backend, shards, tmp_path):
    fleet = make_fleet(clients=6, files_per_client=2, seed=5)
    account = _open(backend, tmp_path)
    _write(account, ShardRouter(shards=shards), fleet[:3])
    second = ShardRouter(shards=shards)
    _write(account, second, fleet[3:])
    try:
        _assert_full_fanout_answers(account, second, fleet)
    finally:
        account.close()
