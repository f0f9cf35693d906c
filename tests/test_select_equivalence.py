"""Indexed-vs-scan equivalence on the real workloads.

The acceptance contract for the indexed select engine: over provenance
produced by the paper's own pipelines — the Figure 3 Blast microbenchmark
and the multi-tenant fleet — Q1–Q4 answers, row ordering, and billed
request/byte counts are byte-identical between the indexed planner and
the ``use_indexes=False`` scan fallback.
"""

from repro.cloud.account import CloudAccount
from repro.query.engine import SimpleDBQueryEngine
from repro.service import IngestGateway, ShardRouter
from repro.workloads import make_blast_workload, run_microbenchmark
from repro.workloads.fleet import FLEET_PROGRAM, make_fleet, run_fleet


def _query_fingerprint(account, engine, target_path, program):
    """(answers repr, simpledb Select count delta, byte delta) for one
    full Q1–Q4 pass."""
    ops_before = account.billing.snapshot().get("simpledb", {}).get("Select", 0)
    bytes_before = account.billing.bytes_received() + account.billing.bytes_transmitted()
    q1, _ = engine.q1_all_provenance()
    q2, _ = engine.q2_object_provenance(target_path)
    q3, _ = engine.q3_direct_outputs(program)
    q4, _ = engine.q4_all_descendants(program)
    answers = repr(
        (
            sorted((str(ref), engine_attrs) for ref in q1.refs()
                   for engine_attrs in [q1.attributes(ref)]),
            q2,
            q3,
            q4,
        )
    )
    ops = account.billing.snapshot()["simpledb"]["Select"] - ops_before
    moved = (
        account.billing.bytes_received()
        + account.billing.bytes_transmitted()
        - bytes_before
    )
    return answers, ops, moved


def test_fig3_queries_identical_indexed_vs_scan():
    account = CloudAccount(seed=7)
    workload = make_blast_workload(jobs=3, queries_per_job=40)
    run_microbenchmark(workload, "p2", account=account)
    account.settle(120.0)
    engine = SimpleDBQueryEngine(account)
    target = "/mnt/s3/blast/job-000/raw.hits"

    account.simpledb.use_indexes = True
    indexed = _query_fingerprint(account, engine, target, "blastall")
    account.simpledb.use_indexes = False
    scanned = _query_fingerprint(account, engine, target, "blastall")
    account.simpledb.use_indexes = True

    assert indexed == scanned
    # The planner really ran: the selective Q2–Q4 chains were indexed.
    assert account.simpledb.select_stats.indexed > 0
    assert account.simpledb.select_stats.scanned > 0  # the scan pass


def test_multitenant_sharded_queries_identical_indexed_vs_scan():
    account = CloudAccount(seed=3)
    router = ShardRouter(shards=2)
    gateway = IngestGateway(account, router)
    fleet = make_fleet(clients=8, files_per_client=3, seed=3)
    run_fleet(account, gateway, fleet, seed=3)
    account.settle(120.0)
    engine = SimpleDBQueryEngine(account, router=router)
    target = "/mnt/s3/fleet/c0000/f000.dat"

    account.simpledb.use_indexes = True
    indexed = _query_fingerprint(account, engine, target, FLEET_PROGRAM)
    account.simpledb.use_indexes = False
    scanned = _query_fingerprint(account, engine, target, FLEET_PROGRAM)
    account.simpledb.use_indexes = True

    assert indexed == scanned
