"""Store fingerprints for the cross-backend differential matrix.

A *fingerprint* is a SHA-1 over a canonical text rendering of a store's
fully-propagated state — every domain's items and attribute bags, every
bucket's keys with sizes, digests, and metadata, every queue's pending
depth.  Two backends that executed the same workload must produce the
same fingerprint; the differential tests (``tests/backend_matrix.py``)
and the chaos harness assert exactly that.

Fingerprints use the services' omniscient ``peek_*`` APIs, so they see
through eventual-consistency visibility delays: they compare what the
stores *hold*, not what a client could observe mid-propagation.

The rendering streams: each line goes into the hash as it is made, and
``peek_items`` / ``peek_objects`` read each item's and key's latest
version once.  What a fingerprint holds is one sorted list of item names
or keys and one line, whatever the store's size.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional


def _sha1_lines(lines: Iterable[str]) -> str:
    """SHA-1 of ``"\n".join(lines)`` in UTF-8, fed one line at a time."""
    digest = hashlib.sha1()
    separator = b""
    for line in lines:
        digest.update(separator)
        digest.update(line.encode("utf-8"))
        separator = b"\n"
    return digest.hexdigest()


def simpledb_fingerprint(simpledb, domains: Optional[Iterable[str]] = None) -> str:
    """Canonical digest of every domain's fully-propagated items."""

    def lines() -> Iterator[str]:
        for domain in sorted(simpledb._domains if domains is None else domains):
            yield f"domain={domain}"
            for name, attrs in simpledb.peek_items(domain):
                bag = sorted((a, tuple(sorted(vs))) for a, vs in attrs.items())
                yield f"  item={name} attrs={bag!r}"

    return _sha1_lines(lines())


def s3_fingerprint(s3, buckets: Optional[Iterable[str]] = None) -> str:
    """Canonical digest of every bucket's fully-propagated objects."""

    def lines() -> Iterator[str]:
        for bucket in sorted(s3._buckets if buckets is None else buckets):
            yield f"bucket={bucket}"
            for key, record in s3.peek_objects(bucket):
                blob = record.blob
                meta = sorted(record.metadata.items())
                yield f"  key={key} size={blob.size} digest={blob.digest} meta={meta!r}"

    return _sha1_lines(lines())


def sqs_fingerprint(sqs, urls: Iterable[str]) -> str:
    """Canonical digest of the named queues' pending depths."""
    return _sha1_lines(
        f"queue={url} pending={sqs.pending_count(url)}" for url in sorted(urls)
    )


def store_fingerprint(
    account,
    domains: Optional[Iterable[str]] = None,
    buckets: Optional[Iterable[str]] = None,
    queue_urls: Iterable[str] = (),
) -> str:
    """One digest over an account's SimpleDB + S3 (+ optionally SQS)
    state.  With ``domains``/``buckets`` omitted, every domain and
    bucket the account holds is covered."""
    return _sha1_lines(
        (
            simpledb_fingerprint(account.simpledb, domains),
            s3_fingerprint(account.s3, buckets),
            sqs_fingerprint(account.sqs, queue_urls),
        )
    )
