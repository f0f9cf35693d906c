"""Table 2 — time to upload 50 MB of Linux-compile provenance to each
service.

Paper: S3 324.7 s, SimpleDB 537.1 s, SQS 36.2 s (150/40/150 connections).
The shape to hold: SQS is dramatically the fastest; SimpleDB is the
slowest; S3 sits in between.
"""

from repro.bench.experiments import table2_service_throughput


def test_table2_service_throughput(once, benchmark, golden):
    result = once(benchmark, table2_service_throughput)
    print("\n" + result.render())
    golden(
        "table2_service_throughput",
        {"seconds": result.seconds, "operations": result.operations},
    )

    s3 = result.seconds["s3"]
    sdb = result.seconds["simpledb"]
    sqs = result.seconds["sqs"]
    # Ordering: SQS << S3 < SimpleDB.
    assert sqs < s3 < sdb
    # Rough factors: the paper has S3/SQS ~9x and SimpleDB/SQS ~15x.
    assert 4.0 < s3 / sqs < 20.0
    assert 8.0 < sdb / sqs < 30.0
    # Absolute numbers within a factor of two of the paper.
    assert 160 < s3 < 650
    assert 270 < sdb < 1100
    assert 18 < sqs < 75
