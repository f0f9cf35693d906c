"""Table 5 — query performance on the Blast provenance.

Paper: Q1/Q3/Q4 require a full scan on S3 (~48.6 s sequential, ~7 s
parallel) but run an order of magnitude faster on SimpleDB's indexes;
Q2 is comparable on both backends (~0.06 s — one HEAD plus one lookup);
parallelism helps S3's independent GETs but cannot help SimpleDB Q1's
next-token chain.
"""

from dataclasses import asdict

from repro.bench.experiments import table5_queries


def _by(result, query, backend):
    for row in result.rows:
        if row.query == query and row.backend == backend:
            return row
    raise AssertionError(f"missing row {query}/{backend}")


def test_table5_queries(once, benchmark, golden):
    result = once(benchmark, table5_queries, scale=0.5)
    print("\n" + result.render())
    # Every row frozen: sequential/parallel seconds, MB and operations
    # per query and backend, to the last bit.
    golden("table5_queries", [asdict(row) for row in result.rows])

    # Q1: SimpleDB beats the S3 scan by an order of magnitude.
    q1_s3 = _by(result, "Q1", "s3")
    q1_sdb = _by(result, "Q1", "simpledb")
    assert q1_sdb.sequential_s * 5 < q1_s3.sequential_s
    # Parallelism helps the S3 scan substantially.
    assert q1_s3.parallel_s < q1_s3.sequential_s / 3

    # Q2: comparable on both backends, both well under a second.
    q2_s3 = _by(result, "Q2", "s3")
    q2_sdb = _by(result, "Q2", "simpledb")
    assert q2_s3.sequential_s < 0.5
    assert q2_sdb.sequential_s < 0.5

    # Q3/Q4: SimpleDB is selective; S3 pays the full scan.
    for query in ("Q3", "Q4"):
        s3_row = _by(result, query, "s3")
        sdb_row = _by(result, query, "simpledb")
        assert sdb_row.sequential_s < s3_row.sequential_s
        assert sdb_row.mb < s3_row.mb

    # Q4 costs at least as much as Q3 (recursive closure).
    assert _by(result, "Q4", "simpledb").operations >= _by(
        result, "Q3", "simpledb"
    ).operations

    # Both engines give the same answers, sequentially and in parallel.
    s3, sdb = result.answers["s3"], result.answers["simpledb"]
    assert s3["Q1"] == sdb["Q1"] == 4489
    assert s3["Q2"] == sdb["Q2"]
    for query, refs in (("Q3", 140), ("Q4", 238)):
        assert len(s3[query]) == refs, query
        assert s3[query] == sdb[query], query
        for answers in (s3, sdb):
            assert answers[f"{query} parallel"] == answers[query], query
