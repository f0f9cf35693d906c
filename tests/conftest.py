"""Shared fixtures for the test suite."""

import json

import pytest

from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel


@pytest.fixture
def account():
    """An eventually consistent cloud account with a fixed seed."""
    return CloudAccount(seed=1234)


@pytest.fixture
def strict_account():
    """A strictly consistent account (Azure-style), for tests that need
    read-your-writes without settle calls."""
    return CloudAccount(consistency=ConsistencyModel.STRICT, seed=1234)


@pytest.fixture
def bucket(strict_account):
    strict_account.s3.create_bucket("t")
    return "t"


def _portable_timeline(doc):
    """A Chrome trace as sorted-key JSON, less the counter tracks of
    interpreter gauges (``sdb.index.memory_bytes`` sums ``sys.getsizeof``,
    which differs between CPython versions)."""
    events = [
        event for event in doc["traceEvents"]
        if not (
            event["ph"] == "C"
            and event["name"].split("{", 1)[0] == "sdb.index.memory_bytes"
        )
    ]
    return json.dumps(dict(doc, traceEvents=events), sort_keys=True, indent=1)


@pytest.fixture
def portable_timeline():
    return _portable_timeline
