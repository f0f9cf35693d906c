"""Table 1 — properties comparison under crash injection.

Paper: data-coupling is not provided by P1/P2 but is (eventually) by P3;
multi-object causal ordering holds for all three; efficient query holds
for P2/P3 only.
"""

from repro.bench.experiments import table1_properties


def test_table1_properties(once, benchmark, golden):
    result = once(benchmark, table1_properties)
    print("\n" + result.render())
    golden("table1_properties", result.matrix.rows)

    matrix = result.matrix
    assert matrix.get("p1", "provenance-data-coupling") is False
    assert matrix.get("p2", "provenance-data-coupling") is False
    assert matrix.get("p3", "provenance-data-coupling") is True
    for protocol in ("p1", "p2", "p3"):
        assert matrix.get(protocol, "multi-object-causal-ordering") is True
    assert matrix.get("p1", "efficient-query") is False
    assert matrix.get("p2", "efficient-query") is True
    assert matrix.get("p3", "efficient-query") is True
