"""Fig. 3's Blast replay on both backends, every configuration.

The local sqlite/filesystem backend swaps only the storage substrate, so
each configuration's ``RunResult`` (virtual seconds, operations,
bytes, dollars), every settled domain's rows and the canonical store
fingerprint must be byte-identical to the simulator's.  The EC2 cases
run in tier-1.  The UML cases carry the ``backend`` mark and run with
the rest of the differential matrix, ``tests/backend_matrix.py``, which
collects this test too.  ``REPRO_BACKEND_SCALE`` scales the replay
(default 0.1, the smoke size).
"""

import os

import pytest

from repro.backends.parity import store_fingerprint
from repro.bench.experiments import CONFIGURATIONS, _workload_by_name
from repro.cloud.account import CloudAccount
from repro.cloud.profiles import EC2_ENV, UML_ENV, SimulationProfile
from repro.workloads.microbench import run_microbenchmark

SCALE = float(os.environ.get("REPRO_BACKEND_SCALE", "0.1"))

ENVIRONMENTS = {"ec2": EC2_ENV, "uml": UML_ENV}


@pytest.mark.parametrize(
    "env_name", ["ec2", pytest.param("uml", marks=pytest.mark.backend)]
)
@pytest.mark.parametrize("config", CONFIGURATIONS)
def test_fig3_config_is_byte_identical(env_name, config):
    workload = _workload_by_name("blast", SCALE)
    profile = SimulationProfile().with_environment(ENVIRONMENTS[env_name])
    outcomes = {}
    for backend in ("sim", "local"):
        account = CloudAccount(profile=profile, seed=0, backend=backend)
        result = run_microbenchmark(
            workload, config, profile=profile, seed=0, account=account
        )
        account.settle(120.0)
        q1_rows = []
        for domain in sorted(account.simpledb._domains):
            q1_rows.append(
                (domain, repr(account.simpledb.select(f"select * from {domain}")))
            )
        outcomes[backend] = (result, q1_rows, store_fingerprint(account))
        account.close()
    assert outcomes["sim"] == outcomes["local"]
