"""Cost planner + Bloom shard routing — the fan-out contract.

The tentpole acceptance criteria, asserted on every sweep point:

- rows and billed bytes byte-identical between the Bloom-routed engine
  and the full-fan-out baseline (a Bloom decision may skip a shard,
  never change an answer),
- rows, ``Select`` operations, and billed bytes identical between the
  cost planner and the index-off scan (planning moves Python cost,
  never billing),
- attribute-rooted Q3/Q4 lookups contact strictly fewer shards than
  full fan-out at two or more swept shard counts (Q4's leaf frontier is
  provably absent everywhere, so its chunks collapse to zero selects).

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


def test_planner_fanout(once, benchmark):
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

    for point in result.points:
        # Routing axis: same rows, same billed bytes, never more chains.
        for cell in point.cells:
            assert cell.identical, (point.shards, point.children, cell.query)
            assert cell.rows > 0, (point.shards, point.children, cell.query)
            assert cell.bloom_selects <= cell.naive_selects
        # Planner axis: rows, Select ops, and bytes identical between
        # cost and scan.
        assert point.billing_identical, (point.shards, point.children)

    # The headline: Q4's attribute-rooted lookups issue strictly fewer
    # select chains than full fan-out at >= 2 swept shard counts.
    winning_shards = {
        point.shards
        for point in result.points
        if point.cell("q4").bloom_selects < point.cell("q4").naive_selects
    }
    assert len(winning_shards) >= 2, winning_shards

    # And the pruning is real work avoided, not relabelling: skipped
    # chains appear wherever the win does.
    for point in result.points:
        q4 = point.cell("q4")
        if q4.bloom_selects < q4.naive_selects:
            assert q4.bloom_skipped > 0
