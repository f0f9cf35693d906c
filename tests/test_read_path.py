"""One read path: every SimpleDB query is one effect plan, and both
drivers run it identically.

:class:`~repro.query.engine.SimpleDBQueryEngine` runs a query's plan
synchronously (``run_plan_phased``); a kernel process — the fleet's
readers — runs the same plan with ``yield from``.  On two identically
built stores, the answer, the billed operations and bytes, and the
elapsed virtual time must match between the two, at one shard and at
three.  And in a P3 fleet run the readers' answers over the settled
store must be the engine's (``P3FleetRun.settled_fingerprint`` raises
otherwise; the last test here makes sure that check is not vacuous).
"""

import pytest

from repro.cloud.account import CloudAccount
from repro.errors import NoSuchKeyError
from repro.query.engine import SimpleDBQueryEngine, SimpleDBQueryPlans
from repro.service import IngestGateway, ShardRouter
from repro.sim import SimKernel
from repro.workloads.fleet import (
    FLEET_PROGRAM,
    P3FleetRun,
    make_fleet,
    run_fleet,
)

TARGET = "/mnt/s3/fleet/c0000/f000.dat"

#: (synchronous method, plan method, arguments) for every query shape.
QUERIES = [
    ("q1_all_provenance", "q1_plan", ()),
    ("q1_all_provenance", "q1_plan", (True,)),
    ("q2_object_provenance", "q2_plan", (TARGET,)),
    ("q2_version_range", "q2_version_range_plan", (TARGET, 0, 3)),
    ("q2_version_range", "q2_version_range_plan", (TARGET, 0, 3, True)),
    ("q2_version_range", "q2_version_range_plan", (TARGET, 50, 60)),
    ("q3_direct_outputs", "q3_plan", (FLEET_PROGRAM,)),
    ("q3_direct_outputs", "q3_plan", (FLEET_PROGRAM, True)),
    ("q3_direct_outputs", "q3_plan", ("no-such-program",)),
    ("q4_all_descendants", "q4_plan", (FLEET_PROGRAM,)),
    ("q4_all_descendants", "q4_plan", (FLEET_PROGRAM, True)),
]


def _store(shards):
    account = CloudAccount(seed=5)
    router = ShardRouter(shards=shards)
    gateway = IngestGateway(account, router)
    run_fleet(account, gateway, make_fleet(clients=6, files_per_client=3, seed=5), seed=5)
    account.settle(120.0)
    return account, router


def _totals(account):
    billing = account.billing
    return (
        billing.operation_count(),
        billing.bytes_received() + billing.bytes_transmitted(),
    )


def _on_kernel(account, router, plan_name, args):
    """Run one plan as the only process on a fresh kernel."""
    plans = SimpleDBQueryPlans(account, router)
    ops, moved = _totals(account)
    out = {}

    def reader():
        started = account.now
        out["answer"] = yield from getattr(plans, plan_name)(*args)
        out["elapsed"] = account.now - started

    kernel = SimKernel(account)
    kernel.spawn(reader(), name="reader")
    kernel.run()
    after_ops, after_moved = _totals(account)
    return out["answer"], after_ops - ops, after_moved - moved, out["elapsed"]


@pytest.mark.parametrize("shards", [1, 3])
def test_kernel_plans_equal_synchronous_engine(shards):
    sync_account, sync_router = _store(shards)
    kernel_account, kernel_router = _store(shards)
    engine = SimpleDBQueryEngine(sync_account, router=sync_router)
    nonempty = 0
    for method, plan_name, args in QUERIES:
        answer, stats = getattr(engine, method)(*args)
        kernel_answer, ops, moved, elapsed = _on_kernel(
            kernel_account, kernel_router, plan_name, args
        )
        label = (shards, method, args)
        if method == "q1_all_provenance":
            answer, kernel_answer = answer.refs(), kernel_answer.refs()
        assert repr(kernel_answer) == repr(answer), label
        assert (ops, moved) == (stats.operations, stats.bytes_transferred), label
        assert elapsed == stats.elapsed_seconds, label
        nonempty += bool(answer)
    assert nonempty >= 8

    # A missing object's HEAD fails the same way under both drivers.
    missing = "/mnt/s3/fleet/none.dat"
    with pytest.raises(NoSuchKeyError):
        engine.q2_object_provenance(missing)
    with pytest.raises(NoSuchKeyError):
        _on_kernel(kernel_account, kernel_router, "q2_plan", (missing,))


def test_fleet_readers_agree_with_engine_after_settle():
    account = CloudAccount(seed=0)
    fleet = make_fleet(clients=3, files_per_client=2, seed=0)
    run = P3FleetRun(account, fleet, readers=2, seed=0)
    run.drain()
    settled_at = account.now + 120.0
    outcome = run.settled_fingerprint()  # raises if a reader disagrees
    after = {}
    for sample in run.samples:
        if sample.t >= settled_at:
            after.setdefault(sample.query, set()).add(sample.rows)
    # Three clients: one proc item and two files each.
    assert after == {"q1": {9}, "q3": {6}}
    assert outcome.answers[2].count("NodeRef(") == 6
