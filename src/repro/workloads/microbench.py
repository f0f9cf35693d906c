"""The Figure 3 microbenchmark tool (§5.1).

The paper isolates protocol throughput from application and collection
overheads: it runs Blast on an unmodified PASS system, captures the
provenance, and then replays the upload through each protocol — "the
operation count ... reduced as we only upload the final results of the
computation".

This module does the same: a dry collector pass over the trace gathers
every flush's provenance closure; the upload phase then replays each
flush's provenance (so P1's append pattern and P2/P3's per-version item
counts are faithful) but uploads each data object only once, at its final
version.  All requests go out in one large parallel batch — the
"protocols upload ... in parallel" configuration the paper benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.network import Request
from repro.cloud.profiles import SimulationProfile
from repro.core.p1_store_only import ProtocolP1
from repro.core.p2_store_db import ProtocolP2
from repro.core.p3_wal import ProtocolP3
from repro.core.pas3fs import stage_inputs
from repro.core.protocol_base import (
    FlushWork,
    UploadMode,
    data_key,
    tolerate_missing,
)
from repro.provenance.pass_collector import FlushIntent, PassCollector
from repro.sim.events import Delay
from repro.workloads.base import MOUNT, Workload

PROTOCOL_NAMES = ("s3fs", "p1", "p2", "p3")


@dataclass
class MicrobenchResult:
    """One microbenchmark configuration's measurements."""

    configuration: str
    elapsed_seconds: float
    operations: int
    bytes_transmitted: int
    cost_usd: float = 0.0

    @property
    def mb_transmitted(self) -> float:
        return self.bytes_transmitted / (1024.0 * 1024.0)

    def overhead_vs(self, baseline: "MicrobenchResult") -> float:
        """Fractional elapsed-time overhead relative to a baseline run."""
        if baseline.elapsed_seconds == 0:
            return 0.0
        return self.elapsed_seconds / baseline.elapsed_seconds - 1.0


def capture_flush_works(workload: Workload) -> List[FlushWork]:
    """Dry collector pass: return every mount flush with its provenance
    closure, marking only the final flush of each object as
    data-carrying."""
    collector = PassCollector()
    works: List[FlushWork] = []
    last_data_index: Dict[str, int] = {}
    for event in workload.trace:
        for intent in collector.feed(event):
            if not isinstance(intent, FlushIntent):
                continue
            if not intent.path.startswith(MOUNT):
                continue
            bundles = collector.pop_pending_closure(intent.uuid)
            works.append(FlushWork(primary=intent, bundles=bundles))
            last_data_index[intent.uuid] = len(works) - 1
    finals = set(last_data_index.values())
    for index, work in enumerate(works):
        work.include_data = index in finals
    return works


def run_microbenchmark(
    workload: Workload,
    configuration: str,
    profile: SimulationProfile = SimulationProfile(),
    connections: int = 150,
    seed: int = 0,
    account: Optional[CloudAccount] = None,
) -> MicrobenchResult:
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
    return MicrobenchResult(
        configuration=configuration,
        elapsed_seconds=stopwatch.elapsed(),
        operations=account.billing.operation_count(),
        bytes_transmitted=account.billing.bytes_transmitted(),
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
    if configuration not in PROTOCOL_NAMES:
        raise ValueError(
            f"unknown configuration {configuration!r}; pick from {PROTOCOL_NAMES}"
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
        protocol_cls = {"p1": ProtocolP1, "p2": ProtocolP2, "p3": ProtocolP3}[
            configuration
        ]
        protocol = protocol_cls(
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
