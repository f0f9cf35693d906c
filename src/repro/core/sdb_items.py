"""The SimpleDB item format: built from provenance bundles (P2 and P3)
and read back (the query engine and the detection readers).

The storage scheme of §4.3.2: the provenance of one object *version* is
one SimpleDB item named ``uuid_version``; each provenance record becomes
an attribute-value pair (attributes are multi-valued, so repeated
``input`` records coexist).  Values larger than SimpleDB's 1 KB limit are
stored as separate S3 objects and replaced by a pointer; records past
the item's pair limit go to one S3 overflow object, behind a pointer in
the ``overflow`` attribute.

This module is the only one that knows that format.  The write side is
:func:`build_item_plan`; the read side is :func:`spill_keys` (the S3
objects an item points at) and :func:`resolve_attributes` (the item's
attributes with those objects' texts put back).  Any client value that
could be mistaken for a pointer — one starting with the pointer prefix,
or one in an attribute named ``overflow`` — is stored behind a pointer
too, so reading an item never follows a client's string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cloud.blob import Blob
from repro.cloud.network import Request
from repro.cloud.s3 import S3Service
from repro.cloud.simpledb import ATTRIBUTE_LIMIT_BYTES, BATCH_PUT_LIMIT
from repro.provenance.graph import NodeRef
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.provenance.serialization import decode_records, encode_records

#: Pointer prefix marking a spilled value.
SPILL_POINTER_PREFIX = "s3-spill:"

#: Attribute holding the pointer to overflowed records (an item may carry
#: at most 256 attribute pairs; the paper's one-item-per-version scheme
#: needs an escape hatch for versions with more records than that).
OVERFLOW_ATTRIBUTE = "overflow"

#: Pairs kept inline before overflowing (leaves room for the pointer).
_INLINE_PAIR_LIMIT = 255


def spill_key(ref: NodeRef, attribute: str, index: int) -> str:
    """S3 key of the ``index``-th value spilled from ``ref``'s item, or,
    with ``OVERFLOW_ATTRIBUTE`` and 0, of its overflow records."""
    return f"spill/{ref}/{attribute}/{index}"


@dataclass
class ItemPlan:
    """The SimpleDB writes (and S3 spills) for a set of bundles."""

    #: SimpleDB items: (item name ``uuid_version``, [(attr, value), ...]).
    items: List[Tuple[str, List[Tuple[str, str]]]] = field(default_factory=list)
    #: Spill S3 PUT requests, to execute before/with the batch puts.
    spill_requests: List[Request] = field(default_factory=list)

    def batches(self) -> List[List[Tuple[str, List[Tuple[str, str]]]]]:
        """Split items into BatchPutAttributes-sized groups (≤ 25)."""
        return [
            self.items[i : i + BATCH_PUT_LIMIT]
            for i in range(0, len(self.items), BATCH_PUT_LIMIT)
        ]


def build_item_plan(
    bundles: Sequence[ProvenanceBundle],
    s3: S3Service,
    bucket: str,
) -> ItemPlan:
    """Convert bundles to SimpleDB items, spilling oversized values.

    A value over 1 KB, or one that starts with the pointer prefix, is
    spilled; a record past the inline pair limit, or one whose attribute
    is ``overflow``, goes to the overflow object.  The returned spill
    requests are not yet executed; the caller decides whether they run
    sequentially (causal mode) or in the flush batch.
    """
    plan = ItemPlan()
    for bundle in bundles:
        for version, records in sorted(bundle.by_version().items()):
            ref = NodeRef(bundle.uuid, version)
            pairs: List[Tuple[str, str]] = []
            overflow: List[ProvenanceRecord] = []
            spill_counter = 0
            for record in records:
                if (
                    len(pairs) >= _INLINE_PAIR_LIMIT
                    or record.attribute == OVERFLOW_ATTRIBUTE
                ):
                    overflow.append(record)
                    continue
                value = record.value_text()
                if (
                    len(value.encode("utf-8")) > ATTRIBUTE_LIMIT_BYTES
                    or value.startswith(SPILL_POINTER_PREFIX)
                ):
                    key = spill_key(ref, record.attribute, spill_counter)
                    spill_counter += 1
                    plan.spill_requests.append(
                        s3.put_request(bucket, key, Blob.from_text(value))
                    )
                    value = SPILL_POINTER_PREFIX + key
                pairs.append((record.attribute, value))
            if overflow:
                key = spill_key(ref, OVERFLOW_ATTRIBUTE, 0)
                plan.spill_requests.append(
                    s3.put_request(bucket, key, Blob.from_text(encode_records(overflow)))
                )
                pairs.append((OVERFLOW_ATTRIBUTE, SPILL_POINTER_PREFIX + key))
            plan.items.append((str(ref), pairs))
    return plan


def build_routed_requests(
    router,
    bundles: Sequence[ProvenanceBundle],
    account,
    bucket: str,
) -> Tuple[List[Request], List[Request], int]:
    """Route bundles to their shard domains and build the cloud writes.

    The one sharding pipeline shared by every write path (P2's flush,
    P3's commit daemon, the ingest gateway): group bundles by the
    router's domain, build each group's item plan, and emit the spill
    PUTs plus per-domain ``BatchPutAttributes`` requests.  Returns
    ``(spill_requests, batch_requests, attribute_pair_count)``; nothing
    is executed — the caller owns scheduling and fault points.
    """
    spill_requests: List[Request] = []
    batch_requests: List[Request] = []
    item_pairs = 0
    for shard, group in router.group_by_domain(list(bundles)):
        plan = build_item_plan(group, account.s3, bucket)
        spill_requests.extend(plan.spill_requests)
        batch_requests.extend(
            account.simpledb.batch_put_request(shard, batch)
            for batch in plan.batches()
        )
        item_pairs += sum(len(pairs) for _, pairs in plan.items)
        # The router's write-path hook: a no-op that every tier's items
        # pass through, once per shard group (perf/ counts them here).
        router.note_indexed_items(shard, plan.items)
    return spill_requests, batch_requests, item_pairs


def _pointer_key(value: str) -> Optional[str]:
    """The S3 key a pointer value names (None for an inline value)."""
    if value.startswith(SPILL_POINTER_PREFIX):
        return value[len(SPILL_POINTER_PREFIX):]
    return None


def spill_keys(attributes: Mapping[str, List[str]]) -> List[str]:
    """The S3 keys a reader fetches to resolve an item's ``attributes``:
    one per pointer value, attributes in dict order, values in list
    order."""
    return [
        key
        for values in attributes.values()
        for key in map(_pointer_key, values)
        if key is not None
    ]


def resolve_attributes(
    attributes: Mapping[str, List[str]], texts: Mapping[str, Optional[str]]
) -> Dict[str, List[str]]:
    """An item's attributes with spilled values and overflow records put
    back, given the text of each :func:`spill_keys` key (None when the
    object is missing).  A missing spilled value keeps its pointer; a
    missing overflow object adds nothing."""
    resolved: Dict[str, List[str]] = {}
    for attribute, values in attributes.items():
        if attribute == OVERFLOW_ATTRIBUTE:
            for value in values:
                text = texts.get(_pointer_key(value))
                for record in decode_records(text or ""):
                    resolved.setdefault(record.attribute, []).append(
                        record.value_text()
                    )
            continue
        # setdefault, not assign: the overflow object may already have
        # put values of this attribute back.
        out = resolved.setdefault(attribute, [])
        for value in values:
            text = texts.get(_pointer_key(value))
            out.append(value if text is None else text)
    return resolved
