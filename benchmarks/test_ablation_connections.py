"""Ablation — connection-count sweep per service (§5.1 prose).

The paper: "S3 and SQS scaled well as the number of connections
increased (we stopped at 150) while SimpleDB peaked at around 40
concurrent connections."
"""

from repro.bench.experiments import ablation_connection_sweep


def test_ablation_connection_sweep(once, benchmark, golden):
    result = once(benchmark, ablation_connection_sweep)
    print("\n" + result.render())
    golden("ablation_connection_sweep", result.series)

    def speedup(service, low, high):
        points = dict(result.series[service])
        return points[low] / points[high]

    # S3 and SQS keep improving all the way to 150 connections.
    assert speedup("s3", 40, 150) > 2.0
    assert speedup("sqs", 40, 150) > 2.0
    # SimpleDB gains little beyond 40 (its indexing pipeline saturates).
    assert speedup("simpledb", 40, 150) < 1.3
    # But every service benefits from the first few connections.
    for service in ("s3", "simpledb", "sqs"):
        assert speedup(service, 1, 10) > 2.0, service
