"""Filesystem-backed S3: the local blob-store backend.

Objects live on disk.  Every key maps to a directory (percent-encoded,
so slashes in keys are safe), and every write appends a numbered
*version*: a ``v-<n>.json`` sidecar (compact JSON) carrying the
version's commit and visibility timestamps, tombstone flag, user
metadata, and content digest — plus a ``v-<n>.bin`` payload file when
the blob carries real bytes (synthetic workload blobs store
size+digest only, exactly like the simulator's
:class:`~repro.cloud.blob.Blob`).

The service logic — request pricing, eventual-consistency observation,
LIST pagination, billing — is inherited unchanged from
:class:`~repro.cloud.s3.S3Service`; only the storage registry differs.
Version resolution reloads the on-disk history into the shared
:class:`~repro.cloud.consistency.VersionedRegister` and asks it, so
stale-read semantics are byte-identical to the simulated backend.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, Tuple
from urllib.parse import quote, unquote

from repro.cloud.blob import Blob
from repro.cloud.consistency import VersionedRegister
from repro.cloud.s3 import S3ObjectRecord, S3Service

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
        staged.write_text(
            json.dumps(meta, separators=(",", ":")), encoding="utf-8"
        )
        os.replace(staged, staged.with_suffix(".json"))

    def write(
        self, record: S3ObjectRecord, committed_at: float, visible_at: float
    ) -> None:
        seq = self._next_seq()
        blob = record.blob
        has_data = blob.data is not None
        if has_data:
            self._dir.mkdir(parents=True, exist_ok=True)
            (self._dir / f"v-{seq:08d}.bin").write_bytes(blob.data)
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
    """S3 over the filesystem: same API, real files."""

    def __init__(self, scheduler, profile, billing, consistency=None, *, root: Path):
        super().__init__(scheduler, profile, billing, consistency)
        self._root = Path(root)
        self._buckets = FsBucketMap(self._root)

    # -- omniscient inspection ------------------------------------------------

    def stored_object_dir(self, bucket: str, key: str) -> Path:
        """Where a key's versions live on disk (tests only)."""
        return self._root / _quote(bucket) / "objects" / _quote(key)
