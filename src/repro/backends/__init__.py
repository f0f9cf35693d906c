"""Pluggable storage backends behind the cloud-service APIs.

The paper's portability claim (§6) is that P1–P3 are defined purely
against three provider primitives — a blob store, an attribute table,
and a queue — so the protocols move between providers unchanged.  This
package cashes that claim in for the reproduction: every
:class:`~repro.cloud.account.CloudAccount` constructs its three services
through :func:`build_backend`, and two backends exist today:

- ``"sim"`` — the in-memory simulated services (the default; identical
  to the pre-backend-factory construction),
- ``"local"`` — :mod:`repro.backends.local`: a sqlite-backed SimpleDB,
  a filesystem-backed S3, and a sqlite-backed durable SQS, all driven
  by the *same* virtual clock, consistency engines, billing meter, and
  request scheduler.

The contract both backends satisfy is byte-identity: the differential
matrix (``tests/backend_matrix.py``) replays identical workloads on
both and asserts answers, row ordering, billing, and store fingerprints
equal.  That is only possible because timing and visibility stay on the
shared virtual-clock abstractions — the local backend stores real rows
and files, but *when* a write becomes visible is decided by the same
seeded :class:`~repro.cloud.consistency.PropagationSampler` draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cloud.billing import BillingMeter
from repro.cloud.consistency import (
    ConsistencyEngine,
    ConsistencyModel,
    PropagationSampler,
)
from repro.cloud.network import ParallelScheduler
from repro.cloud.profiles import SimulationProfile

#: Names accepted by :func:`build_backend` (and ``CloudAccount(backend=)``).
BACKEND_NAMES = ("sim", "local")


@dataclass
class BackendServices:
    """One backend's constructed service triple plus its lifecycle."""

    name: str
    s3: object
    simpledb: object
    sqs: object
    #: Storage root for on-disk backends (``None`` for ``"sim"``).
    root: Optional[str]
    #: Idempotent resource teardown (sqlite connections, temp dirs).
    close: Callable[[], None]


def _engines(profile: SimulationProfile, consistency: ConsistencyModel, seed: int):
    """The three services' consistency engines, with the account's fixed
    seed offsets (s3: ``seed+1``, simpledb: ``seed+2``) — shared by every
    backend so propagation-delay draws are byte-identical across them."""
    s3_profile = profile.service("s3")
    sdb_profile = profile.service("simpledb")
    return (
        ConsistencyEngine(
            consistency,
            PropagationSampler(s3_profile.propagation_delay_mean_s, seed + 1),
        ),
        ConsistencyEngine(
            consistency,
            PropagationSampler(sdb_profile.propagation_delay_mean_s, seed + 2),
        ),
    )


def build_backend(
    name: str,
    *,
    scheduler: ParallelScheduler,
    profile: SimulationProfile,
    billing: BillingMeter,
    consistency: ConsistencyModel,
    seed: int,
    telemetry=None,
    root: Optional[str] = None,
) -> BackendServices:
    """Construct one backend's S3/SimpleDB/SQS service triple.

    ``root`` is the storage directory for on-disk backends; when omitted
    a temporary directory is created and removed again by ``close()``.
    ``"sim"`` ignores ``root`` and its ``close`` is a no-op.
    """
    if name == "sim":
        from repro.cloud.s3 import S3Service
        from repro.cloud.simpledb import SimpleDBService
        from repro.cloud.sqs import SQSService

        s3_engine, sdb_engine = _engines(profile, consistency, seed)
        return BackendServices(
            name="sim",
            s3=S3Service(scheduler, profile.service("s3"), billing, s3_engine),
            simpledb=SimpleDBService(
                scheduler,
                profile.service("simpledb"),
                billing,
                sdb_engine,
                telemetry=telemetry,
            ),
            sqs=SQSService(
                scheduler,
                profile.service("sqs"),
                billing,
                seed=seed + 3,
                telemetry=telemetry,
            ),
            root=None,
            close=lambda: None,
        )
    if name == "local":
        from repro.backends.local import build_local_services

        return build_local_services(
            scheduler=scheduler,
            profile=profile,
            billing=billing,
            consistency=consistency,
            seed=seed,
            telemetry=telemetry,
            root=root,
        )
    raise ValueError(f"unknown backend {name!r} (one of {BACKEND_NAMES})")
