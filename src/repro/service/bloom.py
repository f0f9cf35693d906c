"""Per-shard Bloom filters for attribute-rooted query routing.

PR 5 made itemName-rooted lookups single-shard: a ``uuid_version`` name
hashes to its owning domain, so the engine never visits a shard that
cannot hold it.  Attribute-rooted lookups (Q3/Q4's ``input IN (...)``
chunks, the ``name = 'prog'`` proc lookup) have no such handle — the
matching items may live anywhere — so they fanned out to every shard.

This module extends the routing to the general case: each shard domain
keeps a :class:`BloomFilter` over every item name and attribute-value
pair written to it, maintained at ingest through
``DomainRouter.note_indexed_items`` (called by ``build_routed_requests``,
the one write pipeline shared by the gateway, P2's flush, and the commit
daemon).  At query time the router asks :class:`ShardBloomIndex` which
domains *might* hold a value and the query skips the rest.

Soundness is one-directional, and that is the contract:

- **No false negatives for what this index saw.**  Every routed write
  inserts before it executes and inserts are never removed (deletes
  leave the filter alone — like the SimpleDB secondary indexes, the
  filter over-approximates what any observation time can see).  A
  filter exists only once its router has written to the domain, and a
  domain without one answers "might match".  So a router over a store
  it did not fill — a reopened root, a second gateway over the same
  account — prunes nothing it never wrote.  The filters live in process
  memory: a domain that this router *and* another writer both filled
  can still be pruned wrongly, because its filter knows only this
  router's writes.
- **False positives cost a wasted select chain, never a wrong answer.**
  A filter hit only means the shard is contacted; the select itself
  still verifies every row.

The hashing is deterministic (blake2b, no process-salt ``hash()``), so
a sweep's routing decisions replay bit-for-bit from its seed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Sequence, Tuple

#: Default filter width in bits (16 KiB of bitmap per shard domain).
#: At the default 4 hashes this keeps the false-positive rate under
#: ~2.5% up to ~15k inserted tokens per shard.
DEFAULT_SIZE_BITS = 1 << 17

#: Default number of hash probes per token.
DEFAULT_HASHES = 4

#: Token tags: item names and attribute-value pairs share one filter
#: but must never collide with each other.
_NAME_TAG = "n\x00"
_VALUE_TAG = "v\x00"
_PAIR_SEP = "\x1f"


class BloomFilter:
    """A plain insert-only Bloom filter over string tokens.

    Double hashing off one blake2b digest: probe ``i`` is
    ``(h1 + i * h2) mod size_bits`` with ``h2`` forced odd, the standard
    Kirsch–Mitzenmacher construction — one digest per token, any number
    of probes, fully deterministic across processes.
    """

    __slots__ = ("size_bits", "hashes", "count", "_bits")

    def __init__(
        self, size_bits: int = DEFAULT_SIZE_BITS, hashes: int = DEFAULT_HASHES
    ):
        if size_bits < 8:
            raise ValueError("size_bits must be >= 8")
        if hashes < 1:
            raise ValueError("hashes must be >= 1")
        self.size_bits = size_bits
        self.hashes = hashes
        #: Tokens inserted (including re-inserts; a load diagnostic).
        self.count = 0
        self._bits = bytearray((size_bits + 7) // 8)

    @staticmethod
    def _digest_pair(token: str) -> Tuple[int, int]:
        digest = hashlib.blake2b(
            token.encode("utf-8"), digest_size=16
        ).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        return h1, h2

    def add(self, token: str) -> None:
        h1, h2 = self._digest_pair(token)
        bits = self._bits
        for probe in range(self.hashes):
            position = (h1 + probe * h2) % self.size_bits
            bits[position >> 3] |= 1 << (position & 7)
        self.count += 1

    def __contains__(self, token: str) -> bool:
        h1, h2 = self._digest_pair(token)
        bits = self._bits
        for probe in range(self.hashes):
            position = (h1 + probe * h2) % self.size_bits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def fill_ratio(self) -> float:
        """Fraction of bits set — the saturation diagnostic (a filter
        near 1.0 prunes nothing and should be sized up)."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.size_bits

    def memory_bytes(self) -> int:
        return len(self._bits)

    def to_bytes(self) -> bytes:
        """The raw bitmap (determinism checks: same inserts, same bytes)."""
        return bytes(self._bits)


class ShardBloomIndex:
    """Per-domain Bloom filters over item names and attribute values.

    A domain's filter is created by the first write noted for it.  A
    domain without a filter answers "might match" (no pruning): an empty
    filter would answer "cannot match", which is only true of a domain
    known to be empty, and the index cannot know that of a domain it
    never wrote.
    """

    def __init__(
        self, size_bits: int = DEFAULT_SIZE_BITS, hashes: int = DEFAULT_HASHES
    ):
        self.size_bits = size_bits
        self.hashes = hashes
        self._filters: Dict[str, BloomFilter] = {}

    def filter_for(self, domain: str) -> BloomFilter:
        """The domain's filter (diagnostics; KeyError for unknown)."""
        return self._filters[domain]

    def note_items(
        self,
        domain: str,
        items: Iterable[Tuple[str, Sequence[Tuple[str, str]]]],
    ) -> None:
        """Record a routed write: every item name and every stored
        attribute-value pair.  Called with the *built* items (post
        spill-pointer substitution), so the filter indexes exactly the
        strings a select would match against."""
        bloom = self._filters.get(domain)
        if bloom is None:
            bloom = self._filters[domain] = BloomFilter(self.size_bits, self.hashes)
        for name, pairs in items:
            bloom.add(_NAME_TAG + name)
            for attribute, value in pairs:
                bloom.add(_VALUE_TAG + attribute + _PAIR_SEP + value)

    def might_contain_name(self, domain: str, name: str) -> bool:
        bloom = self._filters.get(domain)
        if bloom is None:
            return True
        return (_NAME_TAG + name) in bloom

    def might_contain_any_name(
        self, domain: str, names: Iterable[str]
    ) -> bool:
        bloom = self._filters.get(domain)
        if bloom is None:
            return True
        return any((_NAME_TAG + name) in bloom for name in names)

    def might_contain_value(
        self, domain: str, attribute: str, value: str
    ) -> bool:
        bloom = self._filters.get(domain)
        if bloom is None:
            return True
        return (_VALUE_TAG + attribute + _PAIR_SEP + value) in bloom

    def might_contain_any_value(
        self, domain: str, attribute: str, values: Iterable[str]
    ) -> bool:
        bloom = self._filters.get(domain)
        if bloom is None:
            return True
        return any(
            (_VALUE_TAG + attribute + _PAIR_SEP + value) in bloom
            for value in values
        )

    def memory_bytes(self) -> int:
        return sum(bloom.memory_bytes() for bloom in self._filters.values())
