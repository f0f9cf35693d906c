"""P3's cleaner daemon (§4.3.3).

Temporary S3 objects belong to transactions; the commit daemon deletes
them on commit.  If a client crashes mid-log, its transaction never
commits and its temporaries are orphaned.  SQS garbage-collects the WAL
messages automatically (four-day retention); the temporaries need this
cleaner: remove any ``tmp/`` object that has not been touched for four
days.

Each temporary carries a ``created`` metadata timestamp (stamped by the
P3 client at PUT time); the cleaner lists the ``tmp/`` prefix, HEADs each
object, and deletes the stale ones.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.cloud.account import CloudAccount
from repro.cloud.network import Request
from repro.errors import NoSuchKeyError
from repro.sim.events import Batch, Delay

#: Age after which an orphaned temporary is collected (matches SQS's
#: message retention, §4.3.3).
DEFAULT_MAX_AGE_SECONDS = 4 * 24 * 3600.0


class CleanerDaemon:
    """Removes orphaned temporary objects."""

    def __init__(
        self,
        account: CloudAccount,
        bucket: str,
        max_age_seconds: float = DEFAULT_MAX_AGE_SECONDS,
        connections: int = 32,
    ):
        self.account = account
        self.bucket = bucket
        self.max_age_seconds = max_age_seconds
        self.connections = connections
        #: Cumulative temporaries removed over every pass.
        self.removed_total = 0
        #: The first LIST page request (marker "") reused across passes —
        #: every poll starts with the same listing; continuation markers
        #: vary per pass and are built fresh.
        self._first_list: Optional[Request] = None

    def clean_plan(self) -> Generator:
        """One cleaning pass as an effect plan — list the ``tmp/`` prefix,
        HEAD each object, delete the stale ones; returns how many went."""
        now = self.account.now
        keys: List[str] = []
        marker = ""
        while True:
            if marker:
                list_request = self.account.s3.list_request(
                    self.bucket, "tmp/", marker
                )
            else:
                if self._first_list is None:
                    self._first_list = self.account.s3.list_request(
                        self.bucket, "tmp/", ""
                    )
                list_request = self._first_list
            batch = yield Batch([list_request], self.connections)
            page, marker = batch.results[0]
            keys.extend(page)
            if not marker:
                break

        stale: List[str] = []
        for key in keys:
            try:
                batch = yield Batch(
                    [self.account.s3.head_request(self.bucket, key)],
                    self.connections,
                )
            except NoSuchKeyError:
                continue
            head = batch.results[0]
            created = float(head.metadata.get("created", "0"))
            if now - created > self.max_age_seconds:
                stale.append(key)

        if stale:
            yield Batch(
                [self.account.s3.delete_request(self.bucket, key) for key in stale],
                self.connections,
            )
        self.removed_total += len(stale)
        return len(stale)

    def process(self, interval: float = 3600.0) -> Generator:
        """The cleaner as a long-running kernel process: one pass every
        ``interval`` virtual seconds.  Spawn with ``daemon=True``."""
        while True:
            yield from self.clean_plan()
            yield Delay(interval)
