"""The Figure 3 microbenchmark tool (§5.1).

The paper isolates protocol throughput from application and collection
overheads: it runs Blast on an unmodified PASS system, captures the
provenance, and then replays the upload through each protocol — "the
operation count ... reduced as we only upload the final results of the
computation".

This module does the same: it reads every flush's provenance closure off
the workload's one collection pass (``Workload.replay``, shared by every
run of that workload object); the upload phase then replays each
flush's provenance (so P1's append pattern and P2/P3's per-version item
counts are faithful) but uploads each data object only once, at its final
version.  All requests go out in one large parallel batch — the
"protocols upload ... in parallel" configuration the paper benchmarks.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, List, Optional, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.network import Request
from repro.cloud.profiles import SimulationProfile
from repro.core import PROTOCOLS
from repro.core.pas3fs import RunResult, stage_inputs
from repro.core.protocol_base import (
    FlushWork,
    UploadMode,
    data_key,
    tolerate_missing,
)
from repro.sim.events import Delay
from repro.workloads.base import Workload

#: The plain S3fs baseline, then the paper's three protocols.
CONFIGURATIONS = ("s3fs", *PROTOCOLS)


def capture_flush_works(workload: Workload) -> List[FlushWork]:
    """Every mount flush of the workload's replay with its provenance
    closure, marking only the final flush of each object as
    data-carrying (and no ancestor data: each object's data goes up
    once, with its own final flush)."""
    works = [step for step in workload.replay.steps if isinstance(step, FlushWork)]
    last = {work.primary.uuid: index for index, work in enumerate(works)}
    finals = set(last.values())
    return [
        replace(work, ancestor_data=[], include_data=index in finals)
        for index, work in enumerate(works)
    ]


def run_microbenchmark(
    workload: Workload,
    configuration: str,
    profile: SimulationProfile = SimulationProfile(),
    connections: int = 150,
    seed: int = 0,
    account: Optional[CloudAccount] = None,
) -> RunResult:
    """Upload a captured workload through one configuration.

    Args:
        workload: the trace to capture (the paper uses Blast).
        configuration: "s3fs", "p1", "p2", or "p3".
        profile: performance profile (environment decides EC2 vs UML).
        connections: parallel connections for the upload batch.
        seed: consistency-model seed.
        account: supply an account to keep the populated store afterwards
            (the query benchmark does this); a fresh one is made otherwise.
    """
    account, works = _prepare_run(workload, configuration, profile, seed, account)
    stopwatch = account.stopwatch()
    requests = _upload_requests(account, works, configuration, connections)
    account.scheduler.execute_batch(requests, connections)
    return RunResult(
        configuration=configuration,
        elapsed_seconds=stopwatch.elapsed(),
        operations=account.billing.operation_count(),
        bytes_transmitted=account.billing.bytes_transmitted(),
        bytes_received=account.billing.bytes_received(),
        cost_usd=account.billing.cost(),
    )


def _prepare_run(
    workload: Workload,
    configuration: str,
    profile: SimulationProfile,
    seed: int,
    account: Optional[CloudAccount],
) -> Tuple[CloudAccount, List[FlushWork]]:
    """Validate, build the account, stage inputs, capture the flushes."""
    if configuration not in CONFIGURATIONS:
        raise ValueError(
            f"unknown configuration {configuration!r}; pick from {CONFIGURATIONS}"
        )
    if account is None:
        account = CloudAccount(
            profile=profile, consistency=ConsistencyModel.EVENTUAL, seed=seed
        )
    if workload.staged_inputs:
        stage_inputs(account, "pass-data", workload.staged_inputs)
    return account, capture_flush_works(workload)


def _upload_requests(
    account: CloudAccount,
    works: List[FlushWork],
    configuration: str,
    connections: int,
) -> List:
    """Build the configuration's full upload batch (serial client CPU is
    charged here, as the protocols do while marshalling); HEADs of
    not-yet-existing keys are wrapped to tolerate the expected 404 — the
    request still costs time and money.  For a protocol, every HEAD goes
    ahead of every flush request."""
    requests: List[Request] = []
    if configuration == "s3fs":
        for work in works:
            if not work.include_data:
                continue
            key = data_key(work.primary.path)
            requests.append(account.s3.head_request("pass-data", key))
            requests.append(
                account.s3.put_request("pass-data", key, work.primary.blob)
            )
    else:
        protocol = PROTOCOLS[configuration](
            account, mode=UploadMode.PARALLEL, connections=connections
        )
        flushed: List[Request] = []
        for work in works:
            if work.include_data:
                requests.append(
                    account.s3.head_request(
                        protocol.bucket, data_key(work.primary.path)
                    )
                )
            _collect_plan(account, protocol.flush_plan(work), flushed)
        requests.extend(flushed)
    return [tolerate_missing(request) for request in requests]


def _collect_plan(
    account: CloudAccount, plan: Generator, requests: List[Request]
) -> None:
    """Drive a flush plan without executing its traffic: each ``Delay``
    advances the clock (the serial marshalling CPU is still paid), each
    ``Batch``'s requests are appended to ``requests`` for the one big
    upload batch, and the plan is sent back ``None`` — no result exists
    yet, so the plan records nothing that depends on one."""
    for effect in plan:
        if isinstance(effect, Delay):
            account.clock.advance(effect.seconds)
        else:
            requests.extend(effect.requests)
