"""Filesystem-backed S3: the local blob-store backend.

Objects live on disk.  Every key maps to a directory (percent-encoded,
so slashes in keys are safe), and every write appends a numbered
*version*: a ``v-<n>.json`` sidecar carrying the version's commit and
visibility timestamps, tombstone flag, user metadata, and content
digest — plus a ``v-<n>.bin`` payload file when the blob carries real
bytes (synthetic workload blobs store size+digest only, exactly like
the simulator's :class:`~repro.cloud.blob.Blob`).

The service logic — request pricing, eventual-consistency observation,
LIST pagination, billing — is inherited unchanged from
:class:`~repro.cloud.s3.S3Service`; only the storage registry differs.
Version resolution reloads the on-disk history into the shared
:class:`~repro.cloud.consistency.VersionedRegister` and asks it, so
stale-read semantics are byte-identical to the simulated backend.

Streaming is the one genuinely new capability: ``put_stream`` pipes a
file object into a staged payload (incremental SHA-1, chunked writes)
and commits it through the same scheduler/billing path as ``put``;
``get_stream`` copies a version's payload out in chunks without ever
materializing it in memory.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, Optional, Tuple
from urllib.parse import quote, unquote

from repro.cloud.blob import Blob
from repro.cloud.consistency import VersionedRegister
from repro.cloud.network import Request
from repro.cloud.s3 import METADATA_LIMIT_BYTES, S3ObjectRecord, S3Service
from repro.errors import LimitExceededError, NoSuchKeyError

#: Chunk size for streaming puts and gets.
STREAM_CHUNK_BYTES = 64 * 1024


def _quote(part: str) -> str:
    return quote(part, safe="")


class FsObjectRegister:
    """One key's version history as numbered files in a directory."""

    __slots__ = ("_dir",)

    def __init__(self, directory: Path):
        self._dir = directory

    # -- storage --------------------------------------------------------------

    def _version_metas(self):
        if not self._dir.is_dir():
            return []
        return sorted(self._dir.glob("v-*.json"))

    def _next_seq(self) -> int:
        return len(self._version_metas()) + 1

    def _write_meta(self, seq: int, meta: Dict[str, object]) -> None:
        # Written aside, then renamed into place: a version's sidecar is
        # whole or absent, never torn (``v-*.tmp`` is no version).
        self._dir.mkdir(parents=True, exist_ok=True)
        staged = self._dir / f"v-{seq:08d}.tmp"
        staged.write_text(json.dumps(meta), encoding="utf-8")
        os.replace(staged, staged.with_suffix(".json"))

    def write(
        self, record: S3ObjectRecord, committed_at: float, visible_at: float
    ) -> None:
        seq = self._next_seq()
        blob = record.blob
        has_data = blob.data is not None
        if has_data:
            self._dir.mkdir(parents=True, exist_ok=True)
            bin_path = self._dir / f"v-{seq:08d}.bin"
            with open(bin_path, "wb") as handle:
                data = blob.data
                for start in range(0, len(data), STREAM_CHUNK_BYTES):
                    handle.write(data[start : start + STREAM_CHUNK_BYTES])
        self._write_meta(
            seq,
            {
                "committed_at": committed_at,
                "visible_at": visible_at,
                "deleted": False,
                "size": blob.size,
                "digest": blob.digest,
                "has_data": has_data,
                "metadata": dict(record.metadata),
            },
        )

    def write_staged(
        self,
        staged: Path,
        size: int,
        digest: str,
        metadata: Dict[str, str],
        committed_at: float,
        visible_at: float,
    ) -> None:
        """Commit a payload already streamed to ``staged`` as the next
        version (rename into place — no second copy of the bytes)."""
        seq = self._next_seq()
        self._dir.mkdir(parents=True, exist_ok=True)
        os.replace(staged, self._dir / f"v-{seq:08d}.bin")
        self._write_meta(
            seq,
            {
                "committed_at": committed_at,
                "visible_at": visible_at,
                "deleted": False,
                "size": size,
                "digest": digest,
                "has_data": True,
                "metadata": dict(metadata),
            },
        )

    def delete(self, committed_at: float, visible_at: float) -> None:
        self._write_meta(
            self._next_seq(),
            {
                "committed_at": committed_at,
                "visible_at": visible_at,
                "deleted": True,
            },
        )

    # -- reads ----------------------------------------------------------------

    def _load(self) -> VersionedRegister:
        """Reload the history into the shared register implementation,
        so version resolution (last-writer-wins, visibility filtering,
        tie-breaking) is the simulator's own code path."""
        register: VersionedRegister[S3ObjectRecord] = VersionedRegister()
        for meta_path in self._version_metas():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if meta["deleted"]:
                register.delete(meta["committed_at"], meta["visible_at"])
                continue
            data = None
            if meta["has_data"]:
                data = meta_path.with_suffix(".bin").read_bytes()
            record = S3ObjectRecord(
                Blob(size=meta["size"], digest=meta["digest"], data=data),
                dict(meta["metadata"]),
            )
            register.write(record, meta["committed_at"], meta["visible_at"])
        return register

    def read(self, at: float, model):
        return self._load().read(at, model)

    def read_latest_committed(self, at: float):
        return self._load().read_latest_committed(at)

    def history(self):
        return self._load().history()

    def ever_written(self) -> bool:
        return bool(self._version_metas())

    def resolve_payload(self, at: float, model) -> Tuple[Dict[str, object], Path]:
        """The visible version's metadata and payload path, for
        streaming reads.  Raises like a GET on absence."""
        metas = self._version_metas()
        best = None
        best_path: Optional[Path] = None
        for meta_path in metas:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            from repro.cloud.consistency import ConsistencyModel

            stamp = (
                meta["committed_at"]
                if model is ConsistencyModel.STRICT
                else meta["visible_at"]
            )
            if stamp <= at and (
                best is None or meta["committed_at"] >= best["committed_at"]
            ):
                best = meta
                best_path = meta_path
        if best is None or best["deleted"]:
            raise NoSuchKeyError(f"no visible version at t={at:.2f}")
        if not best.get("has_data"):
            raise ValueError("synthetic blob has no real bytes to stream")
        return best, best_path.with_suffix(".bin")


class FsBucket:
    """One bucket's key→register mapping over an ``objects/`` directory."""

    __slots__ = ("_dir",)

    def __init__(self, directory: Path):
        self._dir = directory

    def _key_dir(self, key: str) -> Path:
        return self._dir / _quote(key)

    def setdefault(self, key: str, default=None) -> FsObjectRegister:
        del default
        return FsObjectRegister(self._key_dir(key))

    def get(self, key: str, default=None):
        register = FsObjectRegister(self._key_dir(key))
        return register if register.ever_written() else default

    def __getitem__(self, key: str) -> FsObjectRegister:
        register = self.get(key)
        if register is None:
            raise KeyError(key)
        return register

    def __iter__(self) -> Iterator[str]:
        if not self._dir.is_dir():
            return
        for child in self._dir.iterdir():
            if child.is_dir() and any(child.glob("v-*.json")):
                yield unquote(child.name)

    def items(self) -> Iterator[Tuple[str, FsObjectRegister]]:
        for key in self:
            yield key, FsObjectRegister(self._key_dir(key))


class FsBucketMap:
    """The top-level bucket→:class:`FsBucket` mapping on disk."""

    __slots__ = ("_root",)

    def __init__(self, root: Path):
        self._root = root
        root.mkdir(parents=True, exist_ok=True)

    def _objects_dir(self, bucket: str) -> Path:
        return self._root / _quote(bucket) / "objects"

    def setdefault(self, bucket: str, default=None) -> FsBucket:
        del default
        directory = self._objects_dir(bucket)
        directory.mkdir(parents=True, exist_ok=True)
        return FsBucket(directory)

    def __getitem__(self, bucket: str) -> FsBucket:
        directory = self._objects_dir(bucket)
        if not directory.is_dir():
            raise KeyError(bucket)
        return FsBucket(directory)

    def get(self, bucket: str, default=None):
        try:
            return self[bucket]
        except KeyError:
            return default

    def __iter__(self) -> Iterator[str]:
        if not self._root.is_dir():
            return
        for child in sorted(self._root.iterdir()):
            if (child / "objects").is_dir():
                yield unquote(child.name)


class LocalS3Service(S3Service):
    """S3 over the filesystem: same API, real files, plus streaming."""

    def __init__(self, scheduler, profile, billing, consistency=None, *, root: Path):
        super().__init__(scheduler, profile, billing, consistency)
        self._root = Path(root)
        self._buckets = FsBucketMap(self._root)

    # -- streaming ------------------------------------------------------------

    def put_stream(
        self,
        bucket: str,
        key: str,
        reader: BinaryIO,
        metadata: Optional[Dict[str, str]] = None,
        chunk_bytes: int = STREAM_CHUNK_BYTES,
    ) -> Blob:
        """Stream a PUT: the payload is copied from ``reader`` in
        chunks (incremental SHA-1, never fully in memory), staged next
        to the object, and committed through the scheduler with the
        same pricing and visibility draw as :meth:`put`.  Returns a
        size+digest :class:`Blob` describing what was stored."""
        metadata = dict(metadata or {})
        if sum(len(k) + len(v) for k, v in metadata.items()) > METADATA_LIMIT_BYTES:
            raise LimitExceededError(
                f"metadata for {key!r} exceeds {METADATA_LIMIT_BYTES} bytes"
            )
        objects = self._bucket(bucket)
        register = objects.setdefault(key)
        staged = register._dir.parent / f".staged-{_quote(key)}"
        register._dir.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha1()
        size = 0
        with open(staged, "wb") as handle:
            while True:
                chunk = reader.read(chunk_bytes)
                if not chunk:
                    break
                digest.update(chunk)
                size += len(chunk)
                handle.write(chunk)
        blob = Blob(size=size, digest=digest.hexdigest())

        def apply(start: float, finish: float) -> None:
            visible = self._consistency.visibility_for(finish)
            register.write_staged(
                staged, size, blob.digest, metadata, finish, visible
            )
            self._billing.record("s3", "PUT", bytes_in=size)

        self._scheduler.execute_one(
            Request(
                profile=self._profile,
                apply=apply,
                payload_bytes=size,
                label=f"s3.PUT(stream) {bucket}/{key}",
            )
        )
        return blob

    def get_stream(
        self,
        bucket: str,
        key: str,
        writer: BinaryIO,
        chunk_bytes: int = STREAM_CHUNK_BYTES,
    ) -> Tuple[int, Dict[str, str]]:
        """Stream a GET: the visible version's payload is copied into
        ``writer`` in chunks.  Returns ``(size, metadata)``; billed and
        priced exactly like :meth:`get`."""
        objects = self._bucket(bucket)
        size_hint = self._size_hint(objects, key)

        def apply(start: float, finish: float) -> Tuple[int, Dict[str, str]]:
            register = objects.get(key)
            if register is None:
                self._billing.record("s3", "GET")
                raise NoSuchKeyError(f"no such key {key!r}")
            try:
                meta, payload = register.resolve_payload(
                    start, self._consistency.model
                )
            except NoSuchKeyError:
                self._billing.record("s3", "GET")
                raise
            copied = 0
            with open(payload, "rb") as handle:
                while True:
                    chunk = handle.read(chunk_bytes)
                    if not chunk:
                        break
                    writer.write(chunk)
                    copied += len(chunk)
            self._billing.record("s3", "GET", bytes_out=copied)
            return copied, dict(meta["metadata"])

        return self._scheduler.execute_one(
            Request(
                profile=self._profile,
                apply=apply,
                response_bytes=size_hint,
                read_only=True,
                label=f"s3.GET(stream) {bucket}/{key}",
            )
        )

    # -- omniscient inspection ------------------------------------------------

    def stored_object_dir(self, bucket: str, key: str) -> Path:
        """Where a key's versions live on disk (tests only)."""
        return self._root / _quote(bucket) / "objects" / _quote(key)
