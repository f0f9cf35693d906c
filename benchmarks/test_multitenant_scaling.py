"""Multi-tenant service tier — shard scaling with a fixed client fleet.

Beyond the paper: §5 measures one client against one SimpleDB domain and
observes the per-domain ingest ceiling.  The service tier turns that
observation into the scaling unit — a fixed fleet driven through the
ingest gateway should commit strictly faster as the shard count grows,
while the shard-aware query path answers Q2–Q4 byte-identically to the
single-domain path and the read cache absorbs repeated queries.
"""

from repro.bench.experiments import multitenant_scaling
from repro.bench.reporting import write_bench_json


def test_multitenant_shard_scaling(once, benchmark, golden):
    result = once(benchmark, multitenant_scaling)
    print("\n" + result.render())
    print("results json:", write_bench_json(
        "multitenant_scaling", result.as_json(), telemetry=result.telemetry
    ))
    # Every point's numbers, to the last bit.
    golden("multitenant_scaling", result.as_json())

    throughputs = [point.throughput for point in result.points]
    # Fixed fleet, 1 -> 4 shards: total commit throughput improves
    # monotonically (per-domain indexing pipelines run in parallel).
    for slower, faster in zip(throughputs, throughputs[1:]):
        assert faster >= slower
    assert throughputs[-1] > throughputs[0] * 1.1

    # The shard-aware query path is answer-identical to single-domain.
    assert result.queries_match

    # Cross-client batch coalescing saves BatchPutAttributes calls at
    # every shard count.
    for point in result.points:
        assert point.sdb_batches_saved > 0

    # The service cache turns a repeated Q2 into zero cloud operations.
    assert result.cache_cold_ops > 0
    assert result.cache_warm_ops == 0
    assert result.cache_hits > 0
