"""The paper's four evaluation queries (§5.3).

- **Q1** — retrieve all the provenance ever recorded,
- **Q2** — given an object, retrieve the provenance of all its versions,
- **Q3** — find all files directly output by a program (Blast),
- **Q4** — find all descendants of files derived from that program.

Two engines implement them against the two storage schemes:

- :class:`S3QueryEngine` (P1): LIST the provenance prefix and GET every
  object; Q3/Q4 require the *full* scan plus local processing — the
  paper's demonstration that P1 lacks efficient query,
- :class:`SimpleDBQueryEngine` (P2/P3): server-side ``Select`` with
  indexed attributes; Q1 pages sequentially through next-tokens (which is
  why it cannot be parallelized), Q3/Q4 are selective index lookups.
  Each query is written once, as an effect plan
  (:class:`SimpleDBQueryPlans`), which the engine runs synchronously and
  a kernel process (the fleet's readers) runs with ``yield from``.

Every query returns its answer plus :class:`QueryStats` — elapsed virtual
seconds, bytes transferred, and operation count — the three columns of
the paper's Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.cloud.account import CloudAccount
from repro.cloud.simpledb import PreparedSelect, SelectPage, prepare_select
from repro.errors import NoSuchKeyError
from repro.provenance.graph import NodeRef
from repro.provenance.serialization import decode_records
from repro.sim import Batch, run_plan_phased

from repro.core.protocol_base import (
    PROVENANCE_DOMAIN,
    DomainRouter,
    data_key,
    provenance_object_key,
)
from repro.core.sdb_items import resolve_attributes, spill_keys
from repro.query.ancestry import ProvenanceIndex

#: Values per ``IN (...)`` list in the itemName- and attribute-rooted
#: selects (Q2's version range, Q3/Q4's reference lookups).  Every
#: query, synchronous or kernel-driven, runs the same plans, so this one
#: constant fixes the read traffic everywhere; Table 5 and the
#: planner-fanout goldens pin it.
IN_CHUNK = 20

#: Connections shared by a ``parallel`` query's independent first pages.
PARALLEL_CONNECTIONS = 8


@dataclass
class QueryStats:
    """Cost of one query execution (a Table 5 row fragment)."""

    elapsed_seconds: float
    bytes_transferred: int
    operations: int

    @property
    def mb_transferred(self) -> float:
        return self.bytes_transferred / (1024.0 * 1024.0)


@dataclass
class ShardFanoutStats:
    """How a query's chunked selects were routed across domains.

    The routing contract the regression tests pin: chunks rooted at
    ``itemName()`` values go to exactly the shard owning those names
    (``single_shard_chunks``); attribute-rooted chunks cannot be routed
    — the matching items may live in any shard — so they fan out to
    every domain (``fanned_out_selects`` counts each chunk x domain
    chain)."""

    #: itemName-rooted IN chunks, each routed to exactly one domain.
    single_shard_chunks: int = 0
    #: Select chains issued by unrouted fan-out (chunk x domain).
    fanned_out_selects: int = 0
    #: Select chains this engine started, per domain.
    selects_by_domain: Dict[str, int] = field(default_factory=dict)

    def note_select(self, domain: str) -> None:
        self.selects_by_domain[domain] = (
            self.selects_by_domain.get(domain, 0) + 1
        )


class _Measured:
    """Meters a query against the account's clock and billing."""

    def __init__(self, account: CloudAccount):
        self._account = account
        self._ops = account.billing.operation_count()
        self._bytes = (
            account.billing.bytes_received() + account.billing.bytes_transmitted()
        )
        self._stopwatch = account.stopwatch()

    def stats(self) -> QueryStats:
        billing = self._account.billing
        return QueryStats(
            elapsed_seconds=self._stopwatch.elapsed(),
            bytes_transferred=(
                billing.bytes_received() + billing.bytes_transmitted() - self._bytes
            ),
            operations=billing.operation_count() - self._ops,
        )


class S3QueryEngine:
    """Queries against P1's uuid-named provenance objects."""

    def __init__(
        self,
        account: CloudAccount,
        bucket: str = "pass-data",
        parallel_connections: int = 8,
    ):
        self.account = account
        self.bucket = bucket
        self.parallel_connections = parallel_connections

    # -- internals -----------------------------------------------------------

    def _list_provenance_keys(self) -> List[str]:
        return self.account.s3.list_keys(self.bucket, "prov/")

    def _fetch_all(self, parallel: bool) -> ProvenanceIndex:
        """Q1's body: GET every provenance object, build a local index."""
        keys = self._list_provenance_keys()
        index = ProvenanceIndex()
        if parallel:
            requests = [self.account.s3.get_request(self.bucket, k) for k in keys]
            batch = self.account.scheduler.execute_batch(
                requests, self.parallel_connections
            )
            payloads = batch.results
        else:
            payloads = [self.account.s3.get(self.bucket, key) for key in keys]
        for blob, _meta in payloads:
            if blob.data is not None:
                index.ingest(decode_records(blob.text()))
        return index

    # -- the four queries ---------------------------------------------------------

    def q1_all_provenance(
        self, parallel: bool = False
    ) -> Tuple[ProvenanceIndex, QueryStats]:
        """Q1: dump every provenance record."""
        window = _Measured(self.account)
        index = self._fetch_all(parallel)
        return index, window.stats()

    def q2_object_provenance(
        self, path: str
    ) -> Tuple[Dict[str, List[str]], QueryStats]:
        """Q2: all recorded provenance of one object (every version).

        HEAD the data object to learn its uuid, then GET the provenance
        object — two inherently sequential requests (§5.3).
        """
        window = _Measured(self.account)
        head = self.account.s3.head(self.bucket, data_key(path))
        uuid = head.metadata.get("prov-uuid", "")
        attributes: Dict[str, List[str]] = {}
        if uuid:
            try:
                blob, _ = self.account.s3.get(
                    self.bucket, provenance_object_key(uuid)
                )
            except NoSuchKeyError:
                blob = None
            if blob is not None and blob.data is not None:
                for record in decode_records(blob.text()):
                    attributes.setdefault(record.attribute, []).append(
                        record.value_text()
                    )
        return attributes, window.stats()

    def q3_direct_outputs(
        self, program: str, parallel: bool = False
    ) -> Tuple[List[NodeRef], QueryStats]:
        """Q3: files directly output by ``program`` — a full scan plus
        local filtering (S3 cannot look up by attribute)."""
        window = _Measured(self.account)
        index = self._fetch_all(parallel)
        outputs = self._direct_outputs_local(index, program)
        return sorted(outputs), window.stats()

    def q4_all_descendants(
        self, program: str, parallel: bool = False
    ) -> Tuple[List[NodeRef], QueryStats]:
        """Q4: the full descendant closure of files derived from
        ``program`` — same scan, deeper local traversal."""
        window = _Measured(self.account)
        index = self._fetch_all(parallel)
        outputs = self._direct_outputs_local(index, program)
        descendants: Set[NodeRef] = set(outputs)
        for ref in outputs:
            descendants |= index.descendants(ref)
        return sorted(descendants), window.stats()

    @staticmethod
    def _direct_outputs_local(index: ProvenanceIndex, program: str) -> Set[NodeRef]:
        procs = {
            ref
            for ref in index.find("name", program)
            if "proc" in index.attributes(ref).get("type", [])
        }
        outputs: Set[NodeRef] = set()
        for proc in procs:
            for dependent in index.direct_dependents(proc):
                if "file" in index.attributes(dependent).get("type", []):
                    outputs.add(dependent)
        return outputs




class SimpleDBQueryPlans:
    """Q1–Q4 against P2/P3's SimpleDB items, as effect plans.

    Each ``*_plan`` method is a generator that yields one
    :class:`~repro.sim.Batch` per round trip and returns the query's
    answer: a batch per select page, one batch for the ``parallel`` first
    pages of independent chains, and a one-request batch for Q2's HEAD
    and for every spill-pointer GET.  :class:`SimpleDBQueryEngine` runs a
    plan synchronously with :func:`~repro.sim.run_plan_phased`; a kernel
    process runs the same plan with ``yield from``.  A one-request batch
    on one connection places the request and moves the clock exactly as
    a sequential call does, so both drivers time and bill a query alike.

    The router owns the routing: ``domain_for`` for Q2,
    ``domains_for_names`` for itemName-rooted chunks (Q2's version
    range), and ``router.domains`` for Q1 and the attribute-rooted
    lookups of Q3/Q4.
    The plans only count what it decided in :attr:`fanout`; they register
    no telemetry, so a kernel reader can build them freely.
    """

    def __init__(
        self, account: CloudAccount, router: DomainRouter, bucket: str = "pass-data"
    ):
        self.account = account
        self.router = router
        self.bucket = bucket
        self.fanout = ShardFanoutStats()

    # -- round trips ---------------------------------------------------------

    def _chains_plan(
        self, selects: Sequence[PreparedSelect], parallel: bool = False
    ) -> Generator:
        """Run independent select chains to completion, concatenating
        their rows in chain order.  A chain's pages are sequential (each
        next-token comes from the page before); with ``parallel`` the
        chains' first pages go out together as one batch."""
        select_request = self.account.simpledb.select_request
        for prepared in selects:
            self.fanout.note_select(prepared.domain)
        pages: List[Optional[SelectPage]] = [None] * len(selects)
        if parallel and selects:
            batch = yield Batch(
                [select_request(prepared) for prepared in selects],
                PARALLEL_CONNECTIONS,
            )
            pages = batch.results
        rows: List[Tuple[str, Dict[str, List[str]]]] = []
        for prepared, page in zip(selects, pages):
            token = ""
            while True:
                if page is None:
                    batch = yield Batch(
                        [select_request(prepared, token)], connections=1
                    )
                    page = batch.results[0]
                rows.extend(page.rows)
                if page.complete:
                    break
                token, page = page.next_token, None
        return rows

    def _head_uuid_plan(self, path: str) -> Generator:
        """HEAD the data object; returns its provenance uuid ('' if none)."""
        batch = yield Batch(
            [self.account.s3.head_request(self.bucket, data_key(path))],
            connections=1,
        )
        return batch.results[0].metadata.get("prov-uuid", "")

    def _resolve_plan(self, attributes: Dict[str, List[str]]) -> Generator:
        """GET each object the item points at, one request at a time,
        and put the spilled values and overflow records back."""
        texts: Dict[str, Optional[str]] = {}
        for key in spill_keys(attributes):
            try:
                batch = yield Batch(
                    [self.account.s3.get_request(self.bucket, key)], connections=1
                )
            except NoSuchKeyError:
                texts[key] = None
                continue
            blob, _metadata = batch.results[0]
            texts[key] = blob.text() if blob.data is not None else None
        return resolve_attributes(attributes, texts)

    def _merged_plan(self, rows) -> Generator:
        """Every row's resolved attributes merged into one map."""
        merged: Dict[str, List[str]] = {}
        for _name, attributes in rows:
            resolved = yield from self._resolve_plan(attributes)
            for attribute, values in resolved.items():
                merged.setdefault(attribute, []).extend(values)
        return merged

    # -- routed lookups ------------------------------------------------------

    def _names_plan(self, names: Sequence[str], parallel: bool) -> Generator:
        """All visible items with the given names, fetched as chunked
        ``itemName() IN (...)`` selects.  Unlike attribute-rooted lookups
        these chunks are routable: each goes to the one domain owning its
        names."""
        selects: List[PreparedSelect] = []
        for domain, group in self.router.domains_for_names(names):
            for start in range(0, len(group), IN_CHUNK):
                chunk = group[start : start + IN_CHUNK]
                selects.append(prepare_select(
                    "select * from {} where itemName() in ({})".format(
                        domain, ", ".join(f"'{name}'" for name in chunk)
                    )
                ))
        self.fanout.single_shard_chunks += len(selects)
        return (yield from self._chains_plan(selects, parallel))

    def _procs_plan(self, program: str) -> Generator:
        """The process items running ``program``."""
        rows = yield from self._chains_plan([
            prepare_select(
                f"select * from {domain} where name = '{program}' and type = 'proc'"
            )
            for domain in self.router.domains
        ])
        return [NodeRef.parse(name) for name, _ in rows]

    def _referencing_plan(
        self, attribute: str, targets: Sequence[NodeRef], parallel: bool
    ) -> Generator:
        """All items whose ``attribute`` references any of ``targets``,
        as chunked ``IN`` selects.  The referencing items may live in any
        domain, so each chunk fans out to every domain."""
        selects: List[PreparedSelect] = []
        for start in range(0, len(targets), IN_CHUNK):
            chunk = [str(ref) for ref in targets[start : start + IN_CHUNK]]
            for domain in self.router.domains:
                selects.append(prepare_select(
                    "select * from {} where {} in ({})".format(
                        domain, attribute, ", ".join(f"'{value}'" for value in chunk)
                    )
                ))
        self.fanout.fanned_out_selects += len(selects)
        return (yield from self._chains_plan(selects, parallel))

    # -- the four queries ----------------------------------------------------

    def q1_plan(self, parallel: bool = False) -> Generator:
        """Q1: ``SELECT *`` paged to completion in every domain.  A
        next-token chain is sequential, so ``parallel`` only overlaps the
        chains of different domains (§5.3 reports no parallel number for
        SimpleDB Q1)."""
        rows = yield from self._chains_plan(
            [prepare_select(f"select * from {domain}") for domain in self.router.domains],
            parallel,
        )
        index = ProvenanceIndex()
        for name, attributes in rows:
            try:
                ref = NodeRef.parse(name)
            except ValueError:
                continue
            index.ingest_attribute_map(ref, (yield from self._resolve_plan(attributes)))
        return index

    def q2_plan(self, path: str) -> Generator:
        """Q2: HEAD the object for its uuid, then :meth:`q2_uuid_plan`."""
        uuid = yield from self._head_uuid_plan(path)
        return (yield from self.q2_uuid_plan(uuid))

    def q2_uuid_plan(self, uuid: str) -> Generator:
        """Every version's provenance of the object ``uuid``: one
        ``itemName() like`` select in the domain that owns the uuid."""
        if not uuid:
            return {}
        rows = yield from self._chains_plan([prepare_select(
            "select * from {} where itemName() like '{}_%'".format(
                self.router.domain_for(uuid), uuid
            )
        )])
        return (yield from self._merged_plan(rows))

    def q2_version_range_plan(
        self, path: str, first_version: int, last_version: int, parallel: bool = False
    ) -> Generator:
        """Q2 bounded by version: HEAD the object for its uuid, then
        fetch exactly the items ``uuid_first .. uuid_last`` through
        itemName-rooted IN chunks.  Explicit names rather than an
        item-name range because versions in item names are not
        zero-padded (``uuid_10`` sorts before ``uuid_2``)."""
        uuid = yield from self._head_uuid_plan(path)
        if not uuid or last_version < first_version:
            return {}
        names = [
            str(NodeRef(uuid, version))
            for version in range(first_version, last_version + 1)
        ]
        rows = yield from self._names_plan(names, parallel)
        return (yield from self._merged_plan(rows))

    def q3_plan(self, program: str, parallel: bool = False) -> Generator:
        """Q3: select the program's process items, then the file items
        referencing them — two indexed lookups."""
        procs = yield from self._procs_plan(program)
        rows = yield from self._referencing_plan("input", procs, parallel)
        return sorted({
            NodeRef.parse(name)
            for name, attributes in rows
            if "file" in attributes.get("type", [])
        })

    def q4_plan(self, program: str, parallel: bool = False) -> Generator:
        """Q4: repeat Q3's reference lookup until the full descendant
        closure is found (§5.3)."""
        frontier = yield from self._procs_plan(program)
        seen: Set[NodeRef] = set()
        while frontier:
            rows = yield from self._referencing_plan("input", frontier, parallel)
            next_frontier: List[NodeRef] = []
            for name, _attributes in rows:
                ref = NodeRef.parse(name)
                if ref not in seen:
                    seen.add(ref)
                    next_frontier.append(ref)
            frontier = next_frontier
        return sorted(seen)


class SimpleDBQueryEngine(SimpleDBQueryPlans):
    """Queries against P2/P3's SimpleDB items: each query's plan run to
    completion on the shared clock and metered as a Table 5 row.

    Pass ``domain`` for the paper's one-domain layout, or the ``router``
    of a sharded deployment (it then owns every routing decision).
    """

    def __init__(
        self,
        account: CloudAccount,
        domain: str = PROVENANCE_DOMAIN,
        bucket: str = "pass-data",
        router: Optional[DomainRouter] = None,
    ):
        super().__init__(
            account, router if router is not None else DomainRouter(domain), bucket
        )
        # Telemetry: routing counters as callback gauges, labelled per
        # engine instance (an experiment often builds several engines).
        telemetry = account.telemetry
        label = f"query-engine-{telemetry.instance_id('query-engine')}"
        fanout = self.fanout
        telemetry.metrics.gauge_fn(
            "query.single_shard_chunks",
            lambda: fanout.single_shard_chunks,
            engine=label,
        )
        telemetry.metrics.gauge_fn(
            "query.fanned_out_selects",
            lambda: fanout.fanned_out_selects,
            engine=label,
        )

    def _run(self, plan: Generator) -> Tuple[object, QueryStats]:
        window = _Measured(self.account)
        answer = run_plan_phased(self.account, plan)
        return answer, window.stats()

    def q1_all_provenance(
        self, parallel: bool = False
    ) -> Tuple[ProvenanceIndex, QueryStats]:
        return self._run(self.q1_plan(parallel))

    def q2_object_provenance(
        self, path: str
    ) -> Tuple[Dict[str, List[str]], QueryStats]:
        return self._run(self.q2_plan(path))

    def q2_version_range(
        self,
        path: str,
        first_version: int,
        last_version: int,
        parallel: bool = False,
    ) -> Tuple[Dict[str, List[str]], QueryStats]:
        return self._run(
            self.q2_version_range_plan(path, first_version, last_version, parallel)
        )

    def q3_direct_outputs(
        self, program: str, parallel: bool = False
    ) -> Tuple[List[NodeRef], QueryStats]:
        return self._run(self.q3_plan(program, parallel))

    def q4_all_descendants(
        self, program: str, parallel: bool = False
    ) -> Tuple[List[NodeRef], QueryStats]:
        return self._run(self.q4_plan(program, parallel))


def query_engine_for(protocol_name: str, account: CloudAccount, **kwargs):
    """Engine matching a protocol's provenance backend (P1 → S3;
    P2/P3 → SimpleDB, over ``domain=`` or a sharded ``router=``)."""
    if protocol_name == "p1":
        return S3QueryEngine(account, **kwargs)
    if protocol_name in ("p2", "p3"):
        return SimpleDBQueryEngine(account, **kwargs)
    raise ValueError(f"no query backend for protocol {protocol_name!r}")
