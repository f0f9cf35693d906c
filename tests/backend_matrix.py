"""The cross-backend differential matrix (the ISSUE's headline artifact).

Every test here replays one workload twice — once on the in-memory
simulated backend, once on the local sqlite/filesystem/queue backend —
and asserts the outcomes byte-identical: answer rows and their order,
query billing, and canonical store fingerprints.  The batteries are the
repo's heaviest existing workloads:

- the fig3 Blast replay, every configuration, EC2 and UML environments
  (defined in ``test_fig3_backends.py``, whose EC2 cases tier-1 runs),
- the seeded select-fuzz battery (the full 220-tree run; set
  ``REPRO_BACKEND_FUZZ_SEEDS=all`` for all three batteries including the
  mid-propagation and delete-interleaved ones),
- the chaos crash/respawn fleet run (commit daemons killed and
  respawned mid-flight, SQS redelivery, Q1-Q4 over the settled store).

Everything is marked ``backend`` and excluded from tier-1 by the
pytest.ini default (``-m "not backend"``); the CI ``backend-parity``
job re-selects it.  ``REPRO_BACKEND_SCALE`` scales the fig3 replay
(default 0.1 — the smoke size).
"""

import os
import random

import pytest

from repro.backends.parity import store_fingerprint
from repro.bench.experiments import chaos_fleet_run
from repro.cloud.account import CloudAccount
from repro.cloud.blob import Blob
from repro.cloud.consistency import ConsistencyModel

# Defined with the tier-1 suite, which runs its EC2 cases; collected
# here under this module's ``backend`` mark, so the matrix runs all eight.
from test_fig3_backends import test_fig3_config_is_byte_identical  # noqa: F401
from test_select_fuzz import (
    TREE_COUNT,
    _fingerprint,
    _random_tree,
    _seed_store,
    _select_frozen,
)

pytestmark = pytest.mark.backend

FUZZ_ALL = os.environ.get("REPRO_BACKEND_FUZZ_SEEDS", "") == "all"


# -- the select-fuzz batteries ---------------------------------------------------


def _fuzz_strict(backend, seed):
    account = CloudAccount(
        consistency=ConsistencyModel.STRICT, seed=seed, backend=backend
    )
    rng = random.Random(seed)
    sdb = account.simpledb
    _seed_store(sdb, rng)
    out = []
    for _index in range(TREE_COUNT):
        expression = "select * from d where " + _random_tree(
            rng, rng.randrange(4)
        )
        out.append((expression, _fingerprint(account, sdb, expression)))
    out.append(store_fingerprint(account))
    account.close()
    return out


def _fuzz_eventual(backend, seed):
    account = CloudAccount(seed=seed, backend=backend)
    rng = random.Random(seed)
    sdb = account.simpledb
    _seed_store(sdb, rng)
    out = []
    for index in range(TREE_COUNT):
        expression = "select * from d where " + _random_tree(
            rng, rng.randrange(4)
        )
        if index % 20 == 0:
            account.settle(1.5)
        out.append((expression, repr(_select_frozen(account, sdb, expression))))
    out.append(store_fingerprint(account))
    account.close()
    return out


def _fuzz_deletes(backend, seed):
    account = CloudAccount(
        consistency=ConsistencyModel.STRICT, seed=seed, backend=backend
    )
    rng = random.Random(seed)
    sdb = account.simpledb
    _seed_store(sdb, rng)
    out = []
    for index in range(TREE_COUNT):
        expression = "select * from d where " + _random_tree(
            rng, rng.randrange(4)
        )
        if index % 25 == 10:
            victim = f"u{rng.randrange(20):03d}_{rng.randrange(3)}"
            spec = rng.choice(
                [None, ["tag"], [("version", f"{rng.randrange(3):03d}")]]
            )
            sdb.delete_attributes("d", victim, spec)
        out.append((expression, _fingerprint(account, sdb, expression)))
    out.append(store_fingerprint(account))
    account.close()
    return out


def test_select_fuzz_battery_is_byte_identical():
    """One full 220-tree seeded battery, sim vs local, per-tree rows
    and billing identical (the smoke-size default: seed 97, strict)."""
    assert _fuzz_strict("sim", 97) == _fuzz_strict("local", 97)


@pytest.mark.skipif(
    not FUZZ_ALL, reason="set REPRO_BACKEND_FUZZ_SEEDS=all for the full sweep"
)
def test_select_fuzz_all_batteries_are_byte_identical():
    assert _fuzz_eventual("sim", 131) == _fuzz_eventual("local", 131)
    assert _fuzz_deletes("sim", 7) == _fuzz_deletes("local", 7)


# -- chaos crash/respawn ---------------------------------------------------------


@pytest.mark.parametrize("schedule", ["steady", "crashes"])
def test_chaos_run_is_byte_identical(schedule):
    """The recovery battery: daemons crash and respawn mid-run, SQS
    redelivers, and the settled stores must still answer Q1-Q4 and
    fingerprint identically across backends."""
    outcomes = {
        backend: chaos_fleet_run(
            clients=2,
            files_per_client=2,
            schedule=schedule,
            seed=3,
            backend=backend,
        )
        for backend in ("sim", "local")
    }
    (sim_point, sim), (local_point, local) = outcomes["sim"], outcomes["local"]
    assert sim.answers == local.answers
    assert sim.query_billing == local.query_billing
    assert sim.store_fingerprint
    assert sim.store_fingerprint == local.store_fingerprint
    assert sim_point == local_point


# -- the local backend is really on disk ----------------------------------------


def test_local_rows_and_files_actually_persist():
    """Not just equal answers: the local backend's state is genuinely in
    sqlite and on the filesystem, and survives a full account restart."""
    import tempfile

    root = tempfile.mkdtemp(prefix="repro-matrix-")
    first = CloudAccount(seed=5, backend="local", backend_root=root)
    first.simpledb.create_domain("m")
    first.simpledb.put_attributes("m", "item", [("k", "v")])
    first.s3.create_bucket("b")
    first.s3.put("b", "real.txt", Blob.from_text("bytes on disk"))
    url = first.sqs.create_queue("q")
    first.sqs.send_message(url, "queued")
    first.settle(120.0)
    assert first.simpledb.stored_version_count("m") == 1
    assert first.s3.stored_object_dir("b", "real.txt").is_dir()
    assert first.sqs.stored_message_count(url) == 1
    fp = store_fingerprint(first, queue_urls=[url])
    first.close()

    # A brand-new account over the same root sees the identical store.
    second = CloudAccount(seed=5, backend="local", backend_root=root)
    second.settle(120.0)
    assert second.simpledb.select("select * from m") == [
        ("item", {"k": ["v"]})
    ]
    assert second.s3.get("b", "real.txt")[0].text() == "bytes on disk"
    assert store_fingerprint(second, queue_urls=[url]) == fp
    second.close()
    import shutil

    shutil.rmtree(root)
