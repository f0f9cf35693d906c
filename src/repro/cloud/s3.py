"""Simulated Amazon S3 (circa January 2010).

Semantics implemented (the subset the paper's protocols rely on, §2.3):

- buckets of objects keyed by string; each object is data + user metadata,
- ``PUT`` atomically overwrites data *and* metadata (last writer wins),
- ``GET``/``HEAD`` may observe stale versions under eventual consistency,
- ``COPY`` is server-side (no client data transfer; the paper leans on
  this for P3's temp-to-final rename, priced at $0.01 per thousand),
- ``DELETE`` writes a tombstone; ``LIST`` returns keys in lexicographic
  order, paginated at 1000 per request,
- user metadata is limited to 2 KB per object.

Every operation is available in two forms: ``*_request`` builds a
:class:`~repro.cloud.network.Request` for batched parallel execution, and
the plain method executes sequentially against the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cloud.billing import BillingMeter
from repro.cloud.blob import Blob
from repro.cloud.consistency import (
    ConsistencyEngine,
    ConsistencyModel,
    VersionedRegister,
)
from repro.cloud.network import ParallelScheduler, Request
from repro.cloud.profiles import ServiceProfile
from repro.errors import (
    InvalidRequestError,
    LimitExceededError,
    NoSuchBucketError,
    NoSuchKeyError,
)

#: Maximum user metadata per object (S3 limits headers to 2 KB).
METADATA_LIMIT_BYTES = 2 * 1024

#: LIST pagination size.
LIST_PAGE_SIZE = 1000


@dataclass(frozen=True, slots=True)
class S3ObjectRecord:
    """Stored value of one object version: content plus user metadata."""

    blob: Blob
    metadata: Dict[str, str]


@dataclass(frozen=True, slots=True)
class HeadResult:
    """Result of a HEAD request: metadata and content length."""

    metadata: Dict[str, str]
    content_length: int


def _metadata_size(metadata: Dict[str, str]) -> int:
    return sum(len(k) + len(v) for k, v in metadata.items())


class S3Service:
    """In-process S3 stand-in wired to a clock, scheduler, and meter."""

    service_name = "s3"

    def __init__(
        self,
        scheduler: ParallelScheduler,
        profile: ServiceProfile,
        billing: BillingMeter,
        consistency: Optional[ConsistencyEngine] = None,
    ):
        self._scheduler = scheduler
        self._profile = profile
        self._billing = billing
        self._consistency = consistency or ConsistencyEngine()
        self._buckets: Dict[str, Dict[str, VersionedRegister[S3ObjectRecord]]] = {}

    # -- bucket management --------------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        """Create a bucket (idempotent, free, instantaneous)."""
        self._buckets.setdefault(bucket, {})

    def _bucket(self, bucket: str) -> Dict[str, VersionedRegister[S3ObjectRecord]]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise NoSuchBucketError(f"bucket {bucket!r} does not exist") from None

    # -- request builders ----------------------------------------------------

    def put_request(
        self,
        bucket: str,
        key: str,
        blob: Blob,
        metadata: Optional[Dict[str, str]] = None,
    ) -> Request:
        """Build a PUT request (atomic data + metadata overwrite)."""
        metadata = dict(metadata or {})
        if not key:
            raise InvalidRequestError("object key must be non-empty")
        if _metadata_size(metadata) > METADATA_LIMIT_BYTES:
            raise LimitExceededError(
                f"metadata for {key!r} exceeds {METADATA_LIMIT_BYTES} bytes"
            )
        objects = self._bucket(bucket)

        def apply(start: float, finish: float) -> None:
            register = objects.setdefault(key, VersionedRegister())
            visible = self._consistency.visibility_for(finish)
            register.write(S3ObjectRecord(blob, metadata), finish, visible)
            self._billing.record("s3", "PUT", bytes_in=blob.size)

        return Request(
            profile=self._profile,
            apply=apply,
            payload_bytes=blob.size,
            label=f"s3.PUT {bucket}/{key}",
        )

    def get_request(self, bucket: str, key: str) -> Request:
        """Build a GET request; resolves to ``(Blob, metadata)``."""
        objects = self._bucket(bucket)
        size_hint = self._size_hint(objects, key)

        def apply(start: float, finish: float) -> Tuple[Blob, Dict[str, str]]:
            try:
                record = self._observe(objects, key, start)
            except NoSuchKeyError:
                # A 404 still costs a round trip.
                self._billing.record("s3", "GET")
                raise
            self._billing.record("s3", "GET", bytes_out=record.blob.size)
            return record.blob, dict(record.metadata)

        return Request(
            profile=self._profile,
            apply=apply,
            response_bytes=size_hint,
            read_only=True,
            label=f"s3.GET {bucket}/{key}",
        )

    def head_request(self, bucket: str, key: str) -> Request:
        """Build a HEAD request; resolves to :class:`HeadResult`."""
        objects = self._bucket(bucket)

        def apply(start: float, finish: float) -> HeadResult:
            self._billing.record("s3", "HEAD")
            record = self._observe(objects, key, start)
            return HeadResult(dict(record.metadata), record.blob.size)

        return Request(
            profile=self._profile,
            apply=apply,
            read_only=True,
            label=f"s3.HEAD {bucket}/{key}",
        )

    def copy_request(
        self,
        src_bucket: str,
        src_key: str,
        dst_bucket: str,
        dst_key: str,
        metadata: Optional[Dict[str, str]] = None,
    ) -> Request:
        """Build a server-side COPY.

        When ``metadata`` is given it replaces the destination metadata
        (S3's ``REPLACE`` directive — P3 uses this to stamp the new
        version during its temp-to-final copy); otherwise the source
        metadata is carried over.  No client bandwidth is consumed.
        """
        src_objects = self._bucket(src_bucket)
        dst_objects = self._bucket(dst_bucket)
        if metadata is not None and _metadata_size(metadata) > METADATA_LIMIT_BYTES:
            raise LimitExceededError("copy replacement metadata exceeds limit")

        def apply(start: float, finish: float) -> None:
            record = self._observe(src_objects, src_key, start)
            new_meta = dict(metadata) if metadata is not None else dict(record.metadata)
            register = dst_objects.setdefault(dst_key, VersionedRegister())
            visible = self._consistency.visibility_for(finish)
            register.write(S3ObjectRecord(record.blob, new_meta), finish, visible)
            self._billing.record("s3", "COPY")

        return Request(
            profile=self._profile,
            apply=apply,
            label=f"s3.COPY {src_bucket}/{src_key} -> {dst_bucket}/{dst_key}",
        )

    def delete_request(self, bucket: str, key: str) -> Request:
        """Build a DELETE (tombstone write; deleting a missing key is a
        silent success, matching S3)."""
        objects = self._bucket(bucket)

        def apply(start: float, finish: float) -> None:
            register = objects.setdefault(key, VersionedRegister())
            visible = self._consistency.visibility_for(finish)
            register.delete(finish, visible)
            self._billing.record("s3", "DELETE")

        return Request(
            profile=self._profile,
            apply=apply,
            label=f"s3.DELETE {bucket}/{key}",
        )

    def list_request(
        self, bucket: str, prefix: str = "", marker: str = ""
    ) -> Request:
        """Build one LIST page request; resolves to
        ``(keys, next_marker)`` where ``next_marker`` is empty when the
        listing is complete."""
        objects = self._bucket(bucket)

        def apply(start: float, finish: float) -> Tuple[List[str], str]:
            visible = []
            for key in sorted(objects):
                if key <= marker or not key.startswith(prefix):
                    continue
                record = objects[key].read(start, self._consistency.model)
                if record is not None and not record.deleted:
                    visible.append(key)
                if len(visible) > LIST_PAGE_SIZE:
                    break
            page = visible[:LIST_PAGE_SIZE]
            next_marker = page[-1] if len(visible) > LIST_PAGE_SIZE else ""
            self._billing.record("s3", "LIST", bytes_out=sum(len(k) for k in page))
            return page, next_marker

        return Request(
            profile=self._profile,
            apply=apply,
            read_only=True,
            label=f"s3.LIST {bucket}/{prefix}*",
        )

    # -- sequential conveniences ----------------------------------------------

    def put(
        self,
        bucket: str,
        key: str,
        blob: Blob,
        metadata: Optional[Dict[str, str]] = None,
    ) -> None:
        self._scheduler.execute_one(self.put_request(bucket, key, blob, metadata))

    def get(self, bucket: str, key: str) -> Tuple[Blob, Dict[str, str]]:
        return self._scheduler.execute_one(self.get_request(bucket, key))

    def head(self, bucket: str, key: str) -> HeadResult:
        return self._scheduler.execute_one(self.head_request(bucket, key))

    def copy(
        self,
        src_bucket: str,
        src_key: str,
        dst_bucket: str,
        dst_key: str,
        metadata: Optional[Dict[str, str]] = None,
    ) -> None:
        self._scheduler.execute_one(
            self.copy_request(src_bucket, src_key, dst_bucket, dst_key, metadata)
        )

    def delete(self, bucket: str, key: str) -> None:
        self._scheduler.execute_one(self.delete_request(bucket, key))

    def list_keys(self, bucket: str, prefix: str = "") -> List[str]:
        """List all keys under a prefix, issuing as many paginated LIST
        requests as needed."""
        keys: List[str] = []
        marker = ""
        while True:
            page, marker = self._scheduler.execute_one(
                self.list_request(bucket, prefix, marker)
            )
            keys.extend(page)
            if not marker:
                return keys

    # -- internals -------------------------------------------------------------

    def _observe(
        self,
        objects: Dict[str, VersionedRegister[S3ObjectRecord]],
        key: str,
        at: float,
    ) -> S3ObjectRecord:
        register = objects.get(key)
        if register is None:
            raise NoSuchKeyError(f"no such key {key!r}")
        version = register.read(at, self._consistency.model)
        if version is None or version.deleted:
            raise NoSuchKeyError(f"no such key {key!r} (not visible at t={at:.2f})")
        return version.value

    def _size_hint(
        self, objects: Dict[str, VersionedRegister[S3ObjectRecord]], key: str
    ) -> int:
        register = objects.get(key)
        if register is None:
            return 0
        latest = register.read_latest_committed(float("inf"))
        if latest is None or latest.deleted:
            return 0
        return latest.value.blob.size

    # -- omniscient inspection (tests & property checkers only) ---------------

    def peek_latest(self, bucket: str, key: str) -> Optional[S3ObjectRecord]:
        """The fully propagated latest value, ignoring visibility delays.

        For property checkers and tests only — real clients cannot do this.
        """
        register = self._buckets.get(bucket, {}).get(key)
        if register is None:
            return None
        version = register.read_latest_committed(float("inf"))
        if version is None or version.deleted:
            return None
        return version.value

    def peek_objects(
        self, bucket: str, prefix: str = ""
    ) -> Iterator[Tuple[str, S3ObjectRecord]]:
        """Every non-deleted object under ``prefix`` as ``(key, record)``,
        in key order, ignoring visibility (tests & fingerprints only).
        Reads each key's history once and holds only the sorted keys."""
        objects = self._buckets.get(bucket, {})
        for key in sorted(key for key in objects if key.startswith(prefix)):
            version = objects[key].read_latest_committed(float("inf"))
            if version is not None and not version.deleted:
                yield key, version.value

    def peek_keys(self, bucket: str, prefix: str = "") -> List[str]:
        """All non-deleted keys, ignoring visibility (tests only)."""
        return [key for key, _ in self.peek_objects(bucket, prefix)]
