"""Cost planner over sharded fan-out — the planner_fanout contract.

Asserted on every sweep point:

- rows, ``Select`` operations, and billed bytes identical between the
  cost planner and the index-off scan (planning moves Python cost,
  never billing),
- attribute-rooted Q3/Q4 lookups visit every shard: routing is the
  uuid hash alone, so each chunk's select chains are a whole multiple
  of the shard count, and the rows and bytes do not depend on it.

``REPRO_PLANNER_FANOUT_SHARDS`` / ``REPRO_PLANNER_FANOUT_PROGRAMS``
override the swept shard counts and tree count for CI's perf-smoke job.
"""

import os

from repro.bench.experiments import planner_fanout
from repro.bench.reporting import write_bench_json


def _shard_counts():
    raw = os.environ.get("REPRO_PLANNER_FANOUT_SHARDS", "")
    if raw:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return (1, 2, 4)


def _programs():
    return int(os.environ.get("REPRO_PLANNER_FANOUT_PROGRAMS", "18"))


def test_planner_fanout(once, benchmark, golden):
    result = once(
        benchmark,
        planner_fanout,
        shard_counts=_shard_counts(),
        programs=_programs(),
    )
    print("\n" + result.render())
    print(
        "results json:",
        write_bench_json(
            "planner_fanout", result.as_json(), telemetry=result.telemetry
        ),
    )

    if (_shard_counts(), _programs()) == ((1, 2, 4), 18):
        golden("planner_fanout", result.as_json()["points"])

    for point in result.points:
        for cell in point.cells:
            assert cell.rows > 0, (point.shards, point.children, cell.query)
            # Every attribute-rooted chunk visits every shard.
            assert cell.selects % point.shards == 0, (point.shards, cell)
        # Planner axis: rows, Select ops, and bytes identical between
        # cost and scan.
        assert point.billing_identical, (point.shards, point.children)

    # Sharding spreads the same answer: rows and bytes of a query do
    # not depend on the shard count.
    by_tree = {}
    for point in result.points:
        for cell in point.cells:
            by_tree.setdefault((point.children, cell.query), set()).add(
                (cell.rows, cell.bytes_moved)
            )
    assert all(len(seen) == 1 for seen in by_tree.values()), by_tree
