"""Bench plumbing: single-sample aggregation and BENCH_*.json output."""

import importlib.util
import json
import math
import os

import pytest

from repro.bench.harness import Aggregate, aggregate, repeat_with_seeds
from repro.bench.reporting import BENCH_DIR_ENV, write_bench_json


class TestAggregate:
    def test_single_sample_has_zero_spread(self):
        # Regression: a single-sample run must aggregate to stddev 0.0
        # and error bar 0.0 (not NaN, not a division artifact).
        agg = aggregate([5.0])
        assert agg.mean == 5.0
        assert agg.stddev == 0.0
        assert agg.error_bar == 0.0
        assert str(agg) == "5.0 ± 0.0"

    def test_single_repeat_run(self):
        agg = repeat_with_seeds(lambda seed: 42.0, repeats=1)
        assert agg.mean == 42.0
        assert agg.error_bar == 0.0

    def test_non_finite_stddev_yields_zero_error_bar(self):
        # Hand-built aggregates (e.g. deserialized) may carry NaN.
        agg = Aggregate(mean=1.0, stddev=float("nan"), samples=[1.0, 2.0])
        assert agg.error_bar == 0.0

    def test_multi_sample_statistics(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.mean == 2.0
        assert math.isclose(agg.stddev, 1.0)
        assert math.isclose(agg.error_bar, 1.96 / math.sqrt(3))

    def test_as_dict_round_trips_through_json(self):
        payload = json.loads(json.dumps(aggregate([1.0, 2.0]).as_dict()))
        assert payload["mean"] == 1.5
        assert payload["samples"] == [1.0, 2.0]
        assert payload["error_bar"] > 0


class TestWriteBenchJson:
    def test_writes_named_file(self, tmp_path):
        path = write_bench_json(
            "unit_test",
            {"elapsed": aggregate([1.0, 2.0]).as_dict(), "ops": 7},
            directory=str(tmp_path),
        )
        assert os.path.basename(path) == "BENCH_unit_test.json"
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["experiment"] == "unit_test"
        assert payload["results"]["ops"] == 7
        assert payload["results"]["elapsed"]["mean"] == 1.5

    def test_env_var_sets_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BENCH_DIR_ENV, str(tmp_path / "nested"))
        path = write_bench_json("env_test", {"ok": True})
        assert path.startswith(str(tmp_path / "nested"))
        assert os.path.exists(path)

    def test_non_serializable_values_fall_back_to_str(self, tmp_path):
        path = write_bench_json(
            "fallback", {"obj": object()}, directory=str(tmp_path)
        )
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["results"]["obj"].startswith("<object object")


def _benchmarks_conftest():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "conftest.py"
    )
    spec = importlib.util.spec_from_file_location("benchmarks_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenDrift:
    def test_one_leaf_change_names_its_path_old_and_new(
        self, tmp_path, monkeypatch
    ):
        conftest = _benchmarks_conftest()
        monkeypatch.setattr(conftest, "GOLDEN_DIR", str(tmp_path))
        frozen = {"blast": {"p3": 0.5, "s3fs": 0.25}, "ops": [1, 2]}
        (tmp_path / "unit.json").write_text(
            json.dumps(frozen, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        conftest.assert_golden("unit", frozen)
        moved = {"blast": {"p3": 0.625, "s3fs": 0.25}, "ops": [1, 2]}
        with pytest.raises(AssertionError) as failure:
            conftest.assert_golden("unit", moved)
        message = str(failure.value)
        assert "in 1 place(s)" in message
        assert message.endswith("$.blast.p3: 0.5 -> 0.625")

    def test_lists_at_most_the_first_twenty_paths(self, tmp_path, monkeypatch):
        conftest = _benchmarks_conftest()
        monkeypatch.setattr(conftest, "GOLDEN_DIR", str(tmp_path))
        frozen = {f"k{i:02d}": i + 1 for i in range(25)}
        (tmp_path / "wide.json").write_text(
            json.dumps(frozen, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        with pytest.raises(AssertionError) as failure:
            conftest.assert_golden("wide", {key: -v for key, v in frozen.items()})
        lines = str(failure.value).splitlines()
        assert "in 25 place(s)" in lines[0]
        assert lines[1] == "$.k00: 1 -> -1"
        assert lines[20] == "$.k19: 20 -> -20"
        assert lines[21:] == ["... and 5 more"]
