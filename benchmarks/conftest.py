"""Shared fixtures for the benchmark suite.

Every benchmark runs its experiment exactly once (pedantic mode): the
simulator is deterministic, so repeated rounds measure nothing but
Python's own wall-time jitter, and the heavy experiments replay hundreds
of megabytes of simulated traffic.
"""

import json
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def assert_golden(name, results):
    """Assert ``results`` serialize byte for byte to ``golden/<name>.json``
    (the ``results`` section of ``BENCH_<name>.json``: every float in
    its shortest round-trip form, so the last bit counts)."""
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        expected = fh.read()
    actual = json.dumps(results, indent=2, sort_keys=True) + "\n"
    assert actual == expected, f"{name} drifted from benchmarks/golden/{name}.json"


@pytest.fixture
def once():
    return run_once


@pytest.fixture
def golden():
    return assert_golden
