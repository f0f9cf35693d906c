"""Smoke test of the repo benchmark (collected by tier-1 as it stands).

Runs every workload of ``BENCHMARK.json`` at about 1 % size, untraced and
traced, on the held-out seed — a workload that only works on the default
seed fails here — and holds the output to the manifest: every declared
metric with its declared unit, nothing undeclared.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402

#: Per-layer counts that may read 0 on a healthy run: at full size the
#: planner never has to give up on an index.
ZERO_WHEN_HEALTHY = {"cloud.simpledb.cost_bailouts"}


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _command(spec, cwd, workload, trace):
    return subprocess.Popen(
        spec["command"] + [
            "--workload", workload, "--seed", str(HELD_OUT_SEED),
            "--seconds", "0.05", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def results():
    """``{(workload, trace): last-line JSON}``; the runs overlap."""
    spec = _manifest()
    running = {
        (workload["name"], trace): _command(spec, ROOT, workload["name"], trace)
        for workload in spec["workloads"]
        for trace in (0, 1)
    }
    out = {}
    for key, process in running.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, (key, stdout, stderr)
        out[key] = json.loads(stdout.strip().splitlines()[-1])
    return out


def test_seeds_differ():
    assert DEFAULT_SEED != HELD_OUT_SEED


def test_manifest_names_the_five_workloads():
    assert [w["name"] for w in _manifest()["workloads"]] == [
        "select-read-sim", "gateway-ingest-sim", "gateway-ingest-local",
        "p3-fleet-sim", "http-mixed-local",
    ]


def test_output_matches_manifest(results):
    spec = _manifest()
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        declared = spec["per_layer" if trace else "end_to_end"]
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == {metric["name"]: metric["unit"] for metric in declared}, workload
        if not trace:
            for name, entry in result["metrics"].items():
                assert entry["value"] > 0, (workload, name)


def test_every_layer_metric_moves_somewhere(results):
    """A per-layer metric that is 0 on every workload measures nothing."""
    seen = set()
    for (_workload, trace), result in results.items():
        if trace:
            seen |= {
                name for name, entry in result["metrics"].items()
                if entry["value"] != 0
            }
    declared = {metric["name"] for metric in _manifest()["per_layer"]}
    assert declared - seen <= ZERO_WHEN_HEALTHY


def test_layers_stay_apart(results):
    """The separation the workloads were chosen for."""
    def layer(workload, name):
        return results[(workload, 1)]["metrics"][name]["value"]

    assert layer("gateway-ingest-local", "backends.local.storage_share") > 0
    for workload in ("select-read-sim", "gateway-ingest-sim", "p3-fleet-sim"):
        assert layer(workload, "backends.local.storage_share") == 0
    for workload in ("gateway-ingest-sim", "gateway-ingest-local"):
        assert layer(workload, "cloud.simpledb.select_share") == 0
    assert layer("select-read-sim", "cloud.simpledb.select_share") > 0.5


def test_fails_without_the_program(tmp_path):
    """In a directory with only the manifest and the benchmark's own
    files there is nothing to measure: no result, non-zero exit."""
    spec = _manifest()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    process = _command(spec, tmp_path, "select-read-sim", 0)
    stdout, _stderr = process.communicate(timeout=60)
    assert process.returncode != 0
    assert not stdout.strip()
