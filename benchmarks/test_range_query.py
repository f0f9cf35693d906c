"""Range queries — sorted-value indexes vs the scan fallback.

The tentpole contract for the range grammar: version-range and
time-window selects over growing stores return rows, order, and billing
byte-identical to the ``use_indexes=False`` scan, while the items the
indexed select walks stay O(matches) — the windows match a fixed number
of rows at every domain size, so the scan must walk ≥5x more items from
10k items up (sublinear growth).  The walk is counted from the
planner's plan, so every number repeats exactly.  The OR-with-``!=``
control scans in both modes and stays at parity.

``REPRO_RANGE_QUERY_SIZES`` (comma-separated item counts) overrides the
swept domain sizes — CI's perf-smoke job runs a small sweep on every
push; the default sweep ends at 60k items.
"""

import os

from repro.bench.experiments import range_query
from repro.bench.reporting import write_bench_json

from test_select_scaling import deterministic

#: Queries the planner must serve from the indexes.
_INDEXED_QUERIES = ("time-window", "time-between", "version-slice", "itemname-range")

#: Pure range windows whose work ratio the acceptance criterion floors
#: at >= 5x from 10k items up.
_WINDOW_QUERIES = ("time-window", "time-between", "itemname-range")


#: The default sweep, the one the golden records.
DEFAULT_SIZES = (1_000, 10_000, 60_000)


def _domain_sizes():
    raw = os.environ.get("REPRO_RANGE_QUERY_SIZES", "")
    if raw:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return DEFAULT_SIZES


def test_range_query(once, benchmark, golden):
    result = once(benchmark, range_query, domain_sizes=_domain_sizes())
    print("\n" + result.render())
    print(
        "results json:",
        write_bench_json(
            "range_query", result.as_json(), telemetry=result.telemetry
        ),
    )

    if _domain_sizes() == DEFAULT_SIZES:
        golden("range_query", deterministic(result))

    for point in result.points:
        for cell in point.cells:
            # The regression contract: rows, row order, simulated request
            # counts, and billed bytes identical in both modes.
            assert cell.identical, (point.items, cell.query)
            assert cell.rows > 0, (point.items, cell.query)

    # The planner serves every range query from the sorted-value indexes
    # and falls back to scan for the OR-with-!= control.
    top = result.points[-1]
    for query in _INDEXED_QUERIES:
        assert top.cell(query).used_index, query
    assert not top.cell("range-scan-control").used_index

    # Sublinear growth: the windows match ~constant rows at every size,
    # so from 10k items up the scan must walk >= 5x the indexed items.
    for point in result.points:
        if point.items < 10_000:
            continue
        for query in _WINDOW_QUERIES:
            cell = point.cell(query)
            assert cell.speedup >= 5.0, (point.items, query, cell.speedup)
