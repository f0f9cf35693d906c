"""P3's write-ahead-log message format.

SQS messages are limited to 8 KB (§4.3.3), so a transaction is split into
numbered packets.  Every message is a set of lines:

- ``hdr|<txn_id>|<seq>|<total>`` — always the first line; ``total`` is
  the packet count of the transaction (the paper puts the total in the
  first packet; carrying it in every header costs a few bytes and makes
  reassembly order-independent, which SQS's best-effort ordering
  requires anyway),
- ``data|<final_key>|<uuid>|<version>|<tmp_key>|<size>|<digest>`` — one
  per data object in the transaction: where the committed object goes,
  which temporary S3 object holds its bytes, and the content hash used
  for coupling detection,
- ``rec|<encoded provenance record>`` — provenance records in the wire
  encoding of :mod:`repro.provenance.serialization`.

Large data never rides in the queue: the client stores it as a temporary
S3 object and the WAL carries only the pointer, exactly as §4.3.3
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.sqs import MESSAGE_LIMIT_BYTES
from repro.provenance.records import ProvenanceRecord
from repro.provenance.serialization import decode_record, encode_record

#: Bytes reserved for the header line in each message.
HEADER_RESERVE = 64


@dataclass(frozen=True, slots=True)
class DataManifestEntry:
    """One data object carried by a transaction."""

    final_key: str
    uuid: str
    version: int
    tmp_key: str
    size: int
    digest: str

    def encode(self) -> str:
        return "|".join(
            (
                "data",
                self.final_key,
                self.uuid,
                str(self.version),
                self.tmp_key,
                str(self.size),
                self.digest,
            )
        )

    @staticmethod
    def decode(line: str) -> "DataManifestEntry":
        parts = line.split("|")
        if len(parts) != 7 or parts[0] != "data":
            raise ValueError(f"malformed data manifest line: {line!r}")
        return DataManifestEntry(
            final_key=parts[1],
            uuid=parts[2],
            version=int(parts[3]),
            tmp_key=parts[4],
            size=int(parts[5]),
            digest=parts[6],
        )


@dataclass(slots=True)
class ParsedMessage:
    """A WAL message after parsing."""

    txn_id: str
    seq: int
    total: int
    data_entries: List[DataManifestEntry] = field(default_factory=list)
    records: List[ProvenanceRecord] = field(default_factory=list)


def build_messages(
    txn_id: str,
    data_entries: Sequence[DataManifestEntry],
    records: Sequence[ProvenanceRecord],
    limit_bytes: int = MESSAGE_LIMIT_BYTES,
) -> List[str]:
    """Pack a transaction into WAL messages of at most ``limit_bytes``."""
    budget = limit_bytes - HEADER_RESERVE
    if budget <= 0:
        raise ValueError("message limit too small for the header")

    lines: List[str] = [entry.encode() for entry in data_entries]
    lines.extend("rec|" + encode_record(record) for record in records)
    if not lines:
        lines = ["noop"]

    groups: List[List[str]] = []
    current: List[str] = []
    current_size = 0
    for line in lines:
        size = len(line.encode("utf-8")) + 1
        if size > budget:
            raise ValueError(
                f"single WAL line of {size} bytes exceeds message budget "
                f"{budget}; spill the value to S3 first"
            )
        if current and current_size + size > budget:
            groups.append(current)
            current = []
            current_size = 0
        current.append(line)
        current_size += size
    if current:
        groups.append(current)

    total = len(groups)
    messages = []
    for seq, group in enumerate(groups):
        header = f"hdr|{txn_id}|{seq}|{total}"
        messages.append("\n".join([header] + group))
    return messages


def parse_message(body: str) -> ParsedMessage:
    """Parse one WAL message body."""
    lines = body.split("\n")
    header = lines[0].split("|")
    if len(header) != 4 or header[0] != "hdr":
        raise ValueError(f"malformed WAL header: {lines[0]!r}")
    parsed = ParsedMessage(txn_id=header[1], seq=int(header[2]), total=int(header[3]))
    for line in lines[1:]:
        if line.startswith("data|"):
            parsed.data_entries.append(DataManifestEntry.decode(line))
        elif line.startswith("rec|"):
            parsed.records.append(decode_record(line[len("rec|"):]))
        elif line == "noop" or not line:
            continue
        else:
            raise ValueError(f"unrecognized WAL line: {line!r}")
    return parsed
