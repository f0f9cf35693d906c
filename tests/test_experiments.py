"""Smoke tests for the benchmark experiments (scaled down).

The full-scale runs live in ``benchmarks/``; these verify the experiment
plumbing produces sane structures quickly.
"""

import pytest

from repro.bench.experiments import (
    ablation_chunk_size,
    fig3_microbenchmark,
    fig4_workloads,
    table1_properties,
    table2_service_throughput,
    table4_cost,
    table5_queries,
)
from repro.bench.harness import Aggregate, aggregate, repeat_with_seeds
from repro.bench.reporting import render_series, render_table
from repro.provenance.pass_collector import PassCollector


class TestHarness:
    def test_aggregate(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.mean == pytest.approx(2.0)
        assert agg.stddev == pytest.approx(1.0)
        assert agg.error_bar > 0

    def test_aggregate_single_sample(self):
        agg = aggregate([5.0])
        assert agg.mean == 5.0
        assert agg.error_bar == 0.0

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_repeat_with_seeds_varies_seed(self):
        seeds = []
        repeat_with_seeds(lambda seed: seeds.append(seed) or 1.0, repeats=3)
        assert len(set(seeds)) == 3


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(("A", "Blah"), [("x", 1), ("longer", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "longer" in text
        assert len({len(l) for l in lines[2:]}) <= 2

    def test_render_series(self):
        text = render_series("S", ["a", "b"], [1.0, 2.0])
        assert "#" in text and "a" in text


class TestExperimentsSmoke:
    def test_table1(self):
        result = table1_properties()
        assert "P1" in result.render().upper()

    def test_table2_small(self):
        result = table2_service_throughput(target_bytes=1024 * 1024)
        assert result.seconds["sqs"] < result.seconds["s3"]
        assert result.seconds["s3"] < result.seconds["simpledb"]

    def test_fig4_tiny(self):
        result = fig4_workloads(
            scale=0.08,
            workloads=("nightly",),
            environments=("uml",),
            periods=("dec09",),
        )
        assert len(result.cells) == 1
        below, total = result.overhead_summary()
        assert total == 3
        assert "nightly" in result.render()

    def test_table4_tiny(self):
        result = table4_cost(scale=0.08)
        for workload in ("nightly", "blast", "challenge"):
            for config in ("s3fs", "p1", "p2", "p3"):
                assert result.costs[workload][config] > 0

    def test_chunk_ablation_small(self):
        result = ablation_chunk_size(target_bytes=512 * 1024)
        sizes = [chunk for chunk, _, _ in result.points]
        assert sizes == sorted(sizes)
        assert "8192" in result.render()


@pytest.fixture
def collectors_built(monkeypatch):
    """A list that grows by one per ``PassCollector`` constructed."""
    built = []
    init = PassCollector.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(PassCollector, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "experiment, kwargs, traces",
    [
        (fig3_microbenchmark, {"scale": 0.02}, 1),
        (fig4_workloads, {"scale": 0.02}, 3),
        (table4_cost, {"scale": 0.02}, 3),
        (table5_queries, {"scale": 0.02}, 1),
        (table1_properties, {}, 1),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_each_trace_is_collected_once(collectors_built, experiment, kwargs, traces):
    """However many configurations, environments and periods replay a
    trace, an experiment collects it once."""
    experiment(**kwargs)
    assert len(collectors_built) == traces
