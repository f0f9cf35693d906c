"""Select scaling — the indexed SimpleDB engine vs the scan fallback.

Beyond the paper: §5.3 measures Q1–Q4 once, at one domain size.  The
ROADMAP's fleet-scale workloads put millions of items behind the same
``Select`` path, so the simulator grows the real service's design — every
attribute indexed — and this benchmark pins the contract: indexed
answers, row order, and billing byte-identical to the scan fallback at
every size, with the items a select walks dropping from O(domain) to
O(matches) for equality/prefix/IN selects.  The walk is counted from the
planner's plan (``SimpleDBService.explain``), so every number repeats
exactly; the host-clock cost of the index code is ``perf/``'s
``select-read-sim`` workload.

``REPRO_SELECT_SCALING_SIZES`` (comma-separated item counts) overrides
the swept domain sizes — CI's perf-smoke job runs a small sweep on every
push; the default sweep ends at 100k items, and the ≥5x work-ratio
floor holds from 2k items up.  The opt-in nightly job sets
``100000,1000000`` to push the sweep to a million items, where the index
store's ``memory_bytes_per_item`` series must chart below 0.85x of
:data:`ARRAY_BYTES_PER_ITEM_100K`, the recorded figure of the
value-dict layout the sorted value tables replaced (itself strictly
below :data:`LEGACY_BYTES_PER_ITEM_100K`, the dict-of-sets store's).
"""

import os

from repro.bench.experiments import select_scaling
from repro.bench.reporting import write_bench_json

#: ``legacy_memory_bytes_per_item`` of the 100k point in
#: ``bench-results/BENCH_select_scaling.json`` as committed before the
#: dict-of-sets index store was deleted (the same items replayed into
#: it; the array store read 222.6 B/item on that run).
LEGACY_BYTES_PER_ITEM_100K = 516.8

#: ``memory_bytes_per_item`` of the 100k point with a ``value ->
#: posting`` dict per attribute and a separate sorted run of its values,
#: before one sorted value table per attribute replaced both (CPython
#: 3.11; the value tables read 160.1 B/item on the same items).
ARRAY_BYTES_PER_ITEM_100K = 222.6

#: Queries whose speedup the acceptance criterion floors at >= 5x.
_INDEXED_QUERIES = ("equality", "prefix", "in", "conjunction")


#: The default sweep, the one the golden records.
DEFAULT_SIZES = (1_000, 10_000, 100_000)


def _domain_sizes():
    raw = os.environ.get("REPRO_SELECT_SCALING_SIZES", "")
    if raw:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return DEFAULT_SIZES


#: Point fields that measure the interpreter rather than the run: the
#: index memory sums ``sys.getsizeof``, which differs across CPython
#: versions.
INTERPRETER_FIELDS = frozenset({"index_memory_bytes", "memory_bytes_per_item"})


def deterministic(result):
    """The sweep's points less :data:`INTERPRETER_FIELDS`: every field
    left replays bit for bit."""
    return [
        {key: value for key, value in point.items() if key not in INTERPRETER_FIELDS}
        for point in result.as_json()["points"]
    ]


def test_select_scaling(once, benchmark, golden):
    result = once(benchmark, select_scaling, domain_sizes=_domain_sizes())
    print("\n" + result.render())
    print(
        "results json:",
        write_bench_json(
            "select_scaling", result.as_json(), telemetry=result.telemetry
        ),
    )

    if _domain_sizes() == DEFAULT_SIZES:
        golden("select_scaling", deterministic(result))

    for point in result.points:
        for cell in point.cells:
            # The regression contract: rows, row order, simulated request
            # counts, and billed bytes identical in both modes.
            assert cell.identical, (point.items, cell.query)
            assert cell.rows > 0, (point.items, cell.query)

    # The planner serves the selective queries from the indexes and falls
    # back to scan for the != control.
    top = result.points[-1]
    for query in _INDEXED_QUERIES:
        assert top.cell(query).used_index
    assert not top.cell("negation-scan").used_index

    # The index walks >= 5x fewer items than the scan on equality/prefix
    # selects once the domain is large enough for O(matches) vs O(domain)
    # to show.
    if top.items >= 2_000:
        for query in ("equality", "prefix"):
            cell = top.cell(query)
            assert cell.speedup >= 5.0, (query, cell.speedup)

    # The memory series is charted at every size; from 100k items up the
    # index store must sit below 0.85x of the value-dict layout's
    # recorded bytes per item (the 1M nightly sweeps the full gap).
    ceiling = 0.85 * ARRAY_BYTES_PER_ITEM_100K
    for point in result.points:
        assert point.index_memory_bytes > 0
        if point.items >= 100_000:
            assert point.memory_bytes_per_item < ceiling, (
                point.items,
                point.memory_bytes_per_item,
            )
