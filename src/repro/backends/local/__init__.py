"""The local backend: real storage behind the simulated services' APIs.

Three substrates, one directory:

- ``tables.sqlite`` — :class:`LocalSimpleDBService` (attribute table:
  one row per item version, the domain and each attribute name stored
  as integer ids, the names in a per-domain dictionary table),
- ``queue.sqlite`` — :class:`LocalSQSService` (durable queue; its
  tables are created with the first queue, so the file stays empty
  until something queues),
- ``s3/`` — :class:`LocalS3Service` (versioned filesystem blob store,
  one compact JSON sidecar per version).

:func:`build_local_services` is the factory
:func:`repro.backends.build_backend` delegates to.  It owns resource
lifecycle: when no ``root`` is given a temporary directory is created
and the returned ``close()`` removes it again; with an explicit
``root`` the data is durable and ``close()`` only drops the sqlite
connections — reopening the same root resurrects domains, queues, and
objects.
"""

from __future__ import annotations

import shutil
import sqlite3
import tempfile
from pathlib import Path
from typing import Optional

from repro.backends.local.blobstore import LocalS3Service
from repro.backends.local.queue import LocalSQSService
from repro.backends.local.tablestore import LocalSimpleDBService
from repro.cloud.billing import BillingMeter
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.network import ParallelScheduler
from repro.cloud.profiles import SimulationProfile

__all__ = [
    "LocalS3Service",
    "LocalSQSService",
    "LocalSimpleDBService",
    "build_local_services",
]


def _connect(path: Path) -> sqlite3.Connection:
    # Autocommit (isolation_level=None), so the services open their own
    # transactions: each write request's apply() is one BEGIN … COMMIT
    # (see transaction.atomic) on the rollback journal and the default
    # synchronous.  The HTTP front end serves requests from a worker
    # thread, hence check_same_thread=False.
    return sqlite3.connect(str(path), isolation_level=None, check_same_thread=False)


def build_local_services(
    *,
    scheduler: ParallelScheduler,
    profile: SimulationProfile,
    billing: BillingMeter,
    consistency: ConsistencyModel,
    seed: int,
    telemetry=None,
    root: Optional[str] = None,
):
    from repro.backends import BackendServices, _engines

    auto_root = root is None
    if auto_root:
        root = tempfile.mkdtemp(prefix="repro-backend-")
    root_path = Path(root)
    root_path.mkdir(parents=True, exist_ok=True)

    tables_conn = _connect(root_path / "tables.sqlite")
    queue_conn = _connect(root_path / "queue.sqlite")
    s3_engine, sdb_engine = _engines(profile, consistency, seed)

    services = BackendServices(
        name="local",
        s3=LocalS3Service(
            scheduler,
            profile.service("s3"),
            billing,
            s3_engine,
            root=root_path / "s3",
        ),
        simpledb=LocalSimpleDBService(
            scheduler,
            profile.service("simpledb"),
            billing,
            sdb_engine,
            telemetry=telemetry,
            conn=tables_conn,
        ),
        sqs=LocalSQSService(
            scheduler,
            profile.service("sqs"),
            billing,
            seed=seed + 3,
            telemetry=telemetry,
            conn=queue_conn,
        ),
        root=str(root_path),
        close=lambda: None,
    )

    closed = False

    def close() -> None:
        nonlocal closed
        if closed:
            return
        closed = True
        tables_conn.close()
        queue_conn.close()
        if auto_root:
            shutil.rmtree(root_path, ignore_errors=True)

    services.close = close
    return services
