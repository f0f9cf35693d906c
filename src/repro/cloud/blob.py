"""Content blobs.

Workloads in the paper move hundreds of megabytes to gigabytes.  Storing
real bytes for those payloads would make the simulator needlessly slow, so
data payloads are :class:`Blob` values: a size, a content digest, and —
only when the content actually matters (provenance text, small records) —
the real bytes.

Two blobs are equal iff their sizes and digests match, which is exactly
the property the protocols' coupling-detection layer relies on (the paper
suggests storing a hash of the data in the provenance; §3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, slots=True)
class Blob:
    """An immutable content value: ``size`` bytes with digest ``digest``."""

    size: int
    digest: str
    data: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("blob size cannot be negative")
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(
                f"blob data length {len(self.data)} != declared size {self.size}"
            )

    @staticmethod
    def from_bytes(data: bytes) -> "Blob":
        """A blob backed by real bytes (use for provenance payloads)."""
        return Blob(size=len(data), digest=hashlib.sha1(data).hexdigest(), data=data)

    @staticmethod
    def from_text(text: str) -> "Blob":
        """A blob from UTF-8 text."""
        return Blob.from_bytes(text.encode("utf-8"))

    @staticmethod
    def synthetic(size: int, identity: str) -> "Blob":
        """A blob standing in for ``size`` bytes of content identified by
        ``identity`` (e.g. a workload file path + version).  No bytes are
        allocated; the digest is derived from the identity so that two
        writes of "the same" content compare equal and a changed identity
        models changed content."""
        digest = hashlib.sha1(f"synthetic:{identity}:{size}".encode()).hexdigest()
        return Blob(size=size, digest=digest)

    def text(self) -> str:
        """Decode real bytes as UTF-8 (raises if the blob is synthetic)."""
        if self.data is None:
            raise ValueError("synthetic blob has no real bytes to decode")
        return self.data.decode("utf-8")

    def matches(self, other: "Blob") -> bool:
        """Content equality (size + digest)."""
        return self.size == other.size and self.digest == other.digest


EMPTY_BLOB = Blob.from_bytes(b"")
