"""P3's commit daemon (§4.3.3).

The daemon reads the WAL queue and assembles packets into transactions.
After every round of receives it commits, as one *group*, every
transaction whose packets have all arrived — one pipelined pass over the
group instead of four serial round trips per transaction:

1. Spill any provenance value larger than 1 KB into its own S3 object and
   rewrite the attribute as a pointer (one batch for the group).
2. Store the group's provenance in SimpleDB: the bundles of all its
   transactions merge by uuid and fill ``BatchPutAttributes`` calls
   (≤ 25 items per call per shard domain) *across* transactions, issued
   as one batch.
3. ``COPY`` every temporary S3 object of the group to its permanent key
   in one batch over the daemon's connections, stamping the uuid/version
   metadata as part of the copy (S3 has no rename; the copy costs $0.01
   per thousand and moves no client bytes).
4. ``DELETE`` the temporary objects and the WAL messages of every
   transaction whose copies all landed and log a :class:`CommitRecord`
   per transaction, a wave of at most ``connections`` deletes at a
   time — a transaction is logged one round trip after its own WAL
   message went, however wide the group.

The WAL contract is per transaction and grouping does not weaken it: a
transaction's provenance is put before any of its data is copied, and
its WAL messages are deleted only after all of its puts and copies have
landed.

**Stragglers.**  Under eventual consistency a temporary object may not
be visible to its COPY yet (§2.3.1: "clients must design appropriate
mechanisms to detect inconsistencies").  A COPY that finds no source
fails alone; the rest of the batch lands, and the transactions whose
copies all landed are deleted and logged at once.  The others are
*held*: put, their missing copies due again ``COPY_RETRY_S`` after the
failed ones came back, up to ``COPY_ATTEMPTS`` tries — a straggler
neither holds back its group nor buys a second COPY for anything already
copied.  One commit round (:meth:`CommitDaemon._commit_round`) puts the
fresh group, tries the copies of the fresh and the due held transactions
and finishes what landed.  :meth:`CommitDaemon.process` goes straight
back to ``ReceiveMessage`` (idle, it sleeps no longer than to the next
due-time), so what is logged while a straggler waits is committed ahead
of it; :meth:`CommitDaemon.commit_plan` (and so
:meth:`CommitDaemon.retire_plan`) sleeps to the next due-time and runs
another round until nothing is held.  The one thing a straggler does
hold back is a later version of its own path, in this daemon: two
flushes of one path copy to the same final key, a round walks the held
set in log order, and a key whose earliest holder is not due or found no
source is left alone — so the later copy, even one received rounds
later, is not issued until the earlier has landed and the final object
ends as the latest version.  A temp object still missing after the last
try was deleted by another daemon's commit of the same transaction (a
duplicate delivery) if the final object already carries its uuid and
version — the transaction is then finished with nothing left to copy;
otherwise the round raises :class:`~repro.errors.NoSuchKeyError`.

**Crashes.**  Packets of incomplete transactions (a client that crashed
mid-log) are simply never committed; SQS's four-day retention
garbage-collects them.  If the machine running the daemon crashes
anywhere in a group — the ``p3.mid_commit`` crash point sits between the
group's puts and its copies — every WAL message of every unfinished
transaction, held ones included, is still in the queue, and any other
machine can run a daemon against the same queue and finish the job: the
WAL is the authority.  Commits are idempotent: re-running a partially committed
group re-issues the same writes.

**One loop.**  The daemon is :meth:`CommitDaemon.process`, a
long-running process on the simulation kernel that polls SQS on an
interval, concurrently with the clients that feed the queue in a
fleet.  In a paper replay it runs after they finish:
``ProtocolP3.finalize`` drives the same loop with ``run_plan_phased``
through :meth:`CommitDaemon.until_idle`, stopped at its first round
that receives nothing while nothing is held.  On the kernel its work
charges its own time domain, and a replay runs it after the client's
elapsed time was taken, so client elapsed times exclude daemon time
("the elapsed times we present do not include the commit daemon times
as it operates asynchronously") while the bill, and the account clock
that EC2 instance-hours read, include it.

**Receive fan-out.**  One ``ReceiveMessage`` returns at
most ten messages, so one receive per round would cap the group at ten
transactions however deep the WAL is.  :meth:`CommitDaemon.process`
instead issues up to *f* receives a round and sizes *f* to the backlog
from what it observes, with nothing to configure
(:meth:`CommitDaemon._next_fanout`): *f* starts at 1; it doubles only
after a round in which every receive came back full, up to the daemon's
``connections``; as soon as one did not it drops to the number that were
full plus one, so an idle daemon issues exactly one billed receive per
poll; and it stops doubling once a round — receives through commit —
took more than half the visibility timeout, because a group twice the
size would outlive its own lease and be redelivered to another daemon
while still in commit.  What the daemon knows about the backlog is as
old as its last commit — a quarter of a minute after a group of 160 —
so the first receive of a round goes alone, and the other *f* − 1 follow
in one batch over *f* − 1 connections only if it came back full: a round
into a queue another daemon emptied meanwhile bills one receive, not
*f*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Sequence, Set

from repro.cloud.account import CloudAccount
from repro.cloud.network import Request
from repro.cloud.sqs import DEFAULT_VISIBILITY_TIMEOUT, Message
from repro.errors import (
    CloudServiceError,
    NoSuchKeyError,
    TransactionIncompleteError,
)
from repro.obs.tracing import COMMIT_DONE, DAEMON_DEQUEUE, SDB_PUT
from repro.provenance.records import ProvenanceBundle, ProvenanceRecord
from repro.sim.events import Batch, Delay

from repro.core.protocol_base import DomainRouter
from repro.core.sdb_items import build_routed_requests
from repro.core.wal_messages import DataManifestEntry, ParsedMessage, parse_message

#: Virtual seconds the daemon waits before re-issuing COPYs whose
#: temporary object was not visible yet — one mean S3 propagation delay
#: (a sooner retry more often than not finds the object still out of
#: sight) — and how many rounds it tries (64 s exceeds any propagation
#: window).
COPY_RETRY_S = 4.0
COPY_ATTEMPTS = 16


@dataclass(slots=True)
class _PendingTransaction:
    """Packets collected so far for one transaction."""

    txn_id: str
    total: int = -1
    #: seq -> (parsed message, receipt handles seen for that seq).
    packets: Dict[int, ParsedMessage] = field(default_factory=dict)
    receipts: List[str] = field(default_factory=list)
    #: Once held (provenance put): the manifest entries whose COPY has
    #: not landed, the rounds that tried, the virtual time of the next.
    uncopied: List[DataManifestEntry] = field(default_factory=list)
    attempts: int = 0
    due: float = 0.0

    def complete(self) -> bool:
        return self.total >= 0 and len(self.packets) == self.total

    def records(self) -> List[ProvenanceRecord]:
        return [
            record
            for seq in sorted(self.packets)
            for record in self.packets[seq].records
        ]

    def data_entries(self) -> List[DataManifestEntry]:
        return [
            entry
            for seq in sorted(self.packets)
            for entry in self.packets[seq].data_entries
        ]


@dataclass(slots=True)
class CommitRecord:
    """One committed transaction's timeline."""

    txn_id: str
    #: Virtual time the *latest* WAL packet of the transaction was sent —
    #: log completion, the moment the transaction became committable.
    logged_at: float
    #: Virtual time the commit finished.
    committed_at: float

    @property
    def lag(self) -> float:
        """Commit lag: log completion to commit completion."""
        return self.committed_at - self.logged_at


class CommitDaemon:
    """Assembles and commits P3 transactions from the WAL queue."""

    def __init__(
        self,
        account: CloudAccount,
        queue_url: str,
        bucket: str,
        domain: str,
        connections: int = 32,
        router: Optional[DomainRouter] = None,
        visibility_timeout: Optional[float] = None,
    ):
        self.account = account
        self.queue_url = queue_url
        self.bucket = bucket
        #: Routes each bundle's items to its shard domain; the default
        #: single-domain router reproduces the paper's configuration.
        self.router = router if router is not None else DomainRouter(domain)
        self.domain = domain
        self.connections = connections
        #: Visibility timeout this daemon's receives ask for.  Defaults
        #: to the SQS default; a supervisor running the daemon under a
        #: respawn policy shortens it (the control plane guarantees a
        #: replacement consumer, so a crashed daemon's in-flight messages
        #: should strand for seconds, not the stock 30 s).
        self.visibility_timeout = (
            DEFAULT_VISIBILITY_TIMEOUT
            if visibility_timeout is None
            else visibility_timeout
        )
        #: Set by :meth:`request_stop`; :meth:`process` notices at the top
        #: of its loop and runs :meth:`retire_plan` instead of receiving.
        self._stop_requested = False
        #: True once a graceful retirement completed.
        self.retired = False
        #: Whether :meth:`process`'s last round received nothing while
        #: nothing was held: the visible WAL backlog is committed.
        self.idle = False
        self._pending: Dict[str, _PendingTransaction] = {}
        #: The transactions of ``_pending`` put but not finished, in log order.
        self._held: Dict[str, _PendingTransaction] = {}
        self._committed_count = 0
        #: txn id -> virtual send time of its latest WAL packet seen
        #: (log completion).
        self._logged_at: Dict[str, float] = {}
        #: Timeline of every commit this daemon finished (commit lag).
        self.commit_log: List[CommitRecord] = []
        # Telemetry: per-instance labels (a respawned daemon is a new
        # instance) so pooled daemons sharing one queue don't clobber
        # each other's series.
        telemetry = account.telemetry
        self._tracer = telemetry.tracer
        label = f"commit-daemon-{telemetry.instance_id('commit-daemon')}"
        metrics = telemetry.metrics
        self._m_messages = metrics.counter("daemon.messages", daemon=label)
        self._m_commits = metrics.counter("daemon.commits", daemon=label)
        self._m_lag = metrics.histogram("daemon.commit_lag_s", daemon=label)
        self._m_group_size = metrics.histogram("daemon.group_size", daemon=label)
        self._m_fanout = metrics.histogram("daemon.receive_fanout", daemon=label)
        self._m_empty_receives = metrics.counter(
            "daemon.empty_receives", daemon=label
        )
        metrics.gauge_fn(
            "daemon.pending_txns", lambda: len(self._pending), daemon=label
        )
        #: max_messages -> the one ReceiveMessage request reused across
        #: polls (building it validates arguments and resolves the queue;
        #: executing it re-applies against live queue state each time).
        self._receive_plans: Dict[int, Request] = {}

    def _receive_request(self, max_messages: int) -> Request:
        request = self._receive_plans.get(max_messages)
        if request is None:
            request = self.account.sqs.receive_request(
                self.queue_url,
                max_messages=max_messages,
                visibility_timeout=self.visibility_timeout,
            )
            self._receive_plans[max_messages] = request
        return request

    def set_visibility_timeout(self, visibility_timeout: float) -> None:
        """Change the visibility timeout future receives ask for."""
        self.visibility_timeout = visibility_timeout
        self._receive_plans.clear()

    def request_stop(self) -> None:
        """Ask :meth:`process` to retire gracefully: it finishes its
        current iteration, commits any complete transactions it holds,
        hands incomplete ones back to the WAL, and returns."""
        self._stop_requested = True

    # -- queue consumption -------------------------------------------------------

    def process(
        self, poll_interval: float = 1.0, max_messages: int = 10
    ) -> Generator:
        """The daemon as a long-running kernel process: receive, assemble,
        run one commit round, and whenever the queue comes up empty sleep
        ``poll_interval`` virtual seconds, or less if a held retry is due
        sooner.  Each round issues up to ``fanout`` receives, sized to
        the backlog by :meth:`_next_fanout`: one alone, then — if it came
        back full — the rest in one batch.  Spawn with ``daemon=True`` —
        the process never returns; the kernel stops it at the end."""
        fanout = 1
        while True:
            if self._stop_requested:
                yield from self.retire_plan()
                return
            receive = self._receive_request(max_messages)
            leased_at = self.account.now
            results = (yield Batch([receive], connections=1)).results
            if fanout > 1 and len(results[0]) >= max_messages:
                rest = yield Batch([receive] * (fanout - 1), connections=fanout - 1)
                results = results + rest.results
            self._m_fanout.observe(len(results))
            full = received = 0
            for messages in results:
                if not messages:
                    self._m_empty_receives.inc()
                elif len(messages) >= max_messages:
                    full += 1
                received += len(messages)
                for message in messages:
                    self._ingest(message)
            yield from self._commit_round()
            fanout = self._next_fanout(fanout, full, self.account.now - leased_at)
            self.idle = not received and not self._held
            if not received:
                yield Delay(min(poll_interval, self._until_due()))

    def until_idle(self) -> Generator:
        """:meth:`process` as an effect plan that returns at the end of
        its first idle round: every visible WAL message was received and
        every transaction it completed is committed.  Incomplete
        transactions stay pending and their messages leased.  This is the
        drain ``ProtocolP3.finalize`` runs.  A daemon asked to stop
        retires and returns instead.  It needs no poll budget: a held
        transaction finishes or raises within ``COPY_ATTEMPTS`` tries,
        and a leased message comes back at most once per visibility
        timeout until SQS's retention drops it, so a round that receives
        nothing while nothing is held comes."""
        self.idle = False
        loop = self.process()
        try:
            effect = next(loop)
            while not self.idle:
                try:
                    value = yield effect
                except CloudServiceError as error:
                    effect = loop.throw(error)
                else:
                    effect = loop.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            loop.close()

    def _next_fanout(self, fanout: int, full: int, held_s: float) -> int:
        """How many receives the next round issues, from what this round
        saw: ``full`` of its ``fanout`` receives came back full, and
        ``held_s`` passed from issuing them to the end of their commit.

        A receive that is not full has reached the end of the visible
        backlog, so the round after asks for what was full plus one —
        an idle daemon stays at one billed receive per poll.  Only a
        round whose every receive was full doubles, up to the daemon's
        connections, and only while the group it bought finished in half
        its lease: twice the group would otherwise outlive the
        visibility timeout and be redelivered while still in commit."""
        if full < fanout:
            return full + 1
        if held_s > self.visibility_timeout / 2:
            return fanout
        return min(2 * fanout, self.connections)

    def retire_plan(self) -> Generator:
        """Graceful retirement: commit every *complete* transaction still
        pending, waiting out the held ones, then hand each *incomplete*
        transaction's WAL messages straight back to the queue
        (``ChangeMessageVisibility 0``) so a surviving daemon can
        assemble it without waiting out this daemon's visibility
        timeout.  Effect-plan shaped, like :meth:`commit_plan`."""
        yield from self.commit_plan()
        handbacks: List[Request] = [
            self.account.sqs.change_visibility_request(
                self.queue_url, receipt, visibility_timeout=0.0
            )
            for txn in self._pending.values()
            for receipt in txn.receipts
        ]
        if handbacks:
            yield Batch(handbacks, self.connections)
        self._pending.clear()
        self._logged_at.clear()
        self.retired = True

    def _ingest(self, message: Message) -> None:
        parsed = parse_message(message.body)
        self._m_messages.inc()
        self._tracer.mark_if_traced(
            parsed.txn_id, DAEMON_DEQUEUE, self.account.now
        )
        txn = self._pending.setdefault(
            parsed.txn_id, _PendingTransaction(txn_id=parsed.txn_id)
        )
        txn.total = parsed.total
        # Duplicate deliveries overwrite the same seq slot harmlessly.
        txn.packets[parsed.seq] = parsed
        txn.receipts.append(message.receipt_handle)
        latest = self._logged_at.get(parsed.txn_id)
        if latest is None or message.sent_at > latest:
            self._logged_at[parsed.txn_id] = message.sent_at

    # -- committing ------------------------------------------------------------------

    def _assembled(self, txn_id: str) -> _PendingTransaction:
        txn = self._pending.get(txn_id)
        if txn is None:
            raise TransactionIncompleteError(f"unknown transaction {txn_id}")
        if not txn.complete():
            raise TransactionIncompleteError(
                f"transaction {txn_id} has {len(txn.packets)}/{txn.total} packets"
            )
        return txn

    def commit_plan(self, txn_ids: Optional[Sequence[str]] = None) -> Generator:
        """The commit of a group of fully assembled transactions, as an
        effect plan that returns with nothing held — run by
        :meth:`retire_plan`, and by itself on a kernel to commit one
        group outside the receive loop.  The group is ``txn_ids``, or by default
        every transaction complete right now; with no group and nothing
        held it yields nothing."""
        yield from self._commit_round(txn_ids)
        while self._held:
            yield Delay(self._until_due())
            yield from self._commit_round([])

    def _until_due(self) -> float:
        """Virtual seconds to the earliest retry of a held transaction."""
        due = min((txn.due for txn in self._held.values()), default=float("inf"))
        return max(0.0, due - self.account.now)

    def _commit_round(self, txn_ids: Optional[Sequence[str]] = None) -> Generator:
        """One pass of the commit logic, the single copy of it: put the
        group's provenance, try every COPY of the group and of the held
        transactions that are due, delete and log whatever landed.  The
        rest stays held; what happens until it is due is the caller's."""
        if txn_ids is None:
            group = [txn for txn in self._pending.values() if txn.complete()]
        else:
            group = [self._assembled(txn_id) for txn_id in txn_ids]
        # A held transaction redelivered to this daemon after its lease
        # lapsed is already put, and its copies have their own schedule.
        fresh = [txn for txn in group if txn.txn_id not in self._held]
        if fresh:
            self._m_group_size.observe(len(fresh))
            # 1 + 2: spill oversized values, then BatchPutAttributes into
            # each bundle's routed shard domain, filled across the group.
            bundles = self._bundles_from_records(
                [record for txn in fresh for record in txn.records()]
            )
            spill_requests, batch_requests, _pairs = build_routed_requests(
                self.router, bundles, self.account, self.bucket
            )
            if spill_requests:
                yield Batch(spill_requests, self.connections)
            if batch_requests:
                yield Batch(batch_requests, self.connections)
                for txn in fresh:
                    self._tracer.mark_if_traced(txn.txn_id, SDB_PUT, self.account.now)
            self.account.faults.crash_point("p3.mid_commit")
            for txn in fresh:
                txn.uncopied = txn.data_entries()
                self._held[txn.txn_id] = txn

        # 3 + 4: COPY temp -> final, stamping the provenance link
        # metadata, then delete and log every transaction whose copies
        # all landed.  A temp object not visible yet holds back only its
        # own transaction and the later versions of its path; it is due
        # again COPY_RETRY_S after the copies, not the deletes, came back.
        now = self.account.now
        due = [txn for txn in self._held.values() if txn.due <= now]
        yield from self._copy_round(now)
        for txn in due:
            txn.attempts += 1
            txn.due = self.account.now + COPY_RETRY_S
        yield from self._finish([txn for txn in due if not txn.uncopied])

        # Out of rounds: no propagation window is this long, so the temp
        # objects are gone — deleted by another daemon's commit of the
        # same transactions (a duplicate delivery) exactly when each
        # final object already carries the entry's uuid at its version
        # or a later one.  Then there is nothing left to copy.
        gone = [txn for txn in due if txn.uncopied and txn.attempts >= COPY_ATTEMPTS]
        if not gone:
            return
        entries = [entry for txn in gone for entry in txn.uncopied]
        heads = yield Batch(
            [
                self.account.s3.head_request(self.bucket, entry.final_key)
                for entry in entries
            ],
            self.connections,
        )
        for entry, head in zip(entries, heads.results):
            stamped = head.metadata
            if (
                stamped.get("prov-uuid") != entry.uuid
                or int(stamped.get("version", -1)) < entry.version
            ):
                raise NoSuchKeyError(
                    f"temp object {entry.tmp_key} never became visible"
                )
        yield from self._finish(gone)

    def _copy_round(self, now: float) -> Generator:
        """One attempt at every COPY still missing of the held
        transactions due at ``now``; those that land leave ``uncopied``.
        Two flushes of one path share a final key and must land in log
        order, so a batch carries at most one copy per final key — its
        earliest holder's, due or not — and a key whose copy found no
        source is left alone for the rest of the round: the later
        versions wait behind the straggler."""
        unseen: Set[str] = set()
        while True:
            claimed = set(unseen)
            wave = []
            for txn in self._held.values():
                for entry in txn.uncopied:
                    if entry.final_key not in claimed:
                        claimed.add(entry.final_key)
                        if txn.due <= now:
                            wave.append((txn, entry))
            if not wave:
                return
            copied = yield Batch(
                [self._copy_request(entry) for _, entry in wave], self.connections
            )
            for (txn, entry), landed in zip(wave, copied.results):
                if landed:
                    txn.uncopied.remove(entry)
                else:
                    unseen.add(entry.final_key)

    def _copy_request(self, entry: DataManifestEntry) -> Request:
        """The temp -> final COPY of one manifest entry, resolving to
        whether it landed.  A missing source is that request's result,
        not a raised :class:`NoSuchKeyError`: the COPY fails alone, like
        one HTTP 404 among parallel requests, and the rest of its batch
        still lands."""
        metadata = {
            "prov-uuid": entry.uuid,
            "version": str(entry.version),
            "digest": entry.digest,
        }
        copy = self.account.s3.copy_request(
            self.bucket, entry.tmp_key, self.bucket, entry.final_key, metadata
        )

        def apply(start: float, finish: float) -> bool:
            try:
                copy.apply(start, finish)
            except NoSuchKeyError:
                return False
            return True

        return replace(copy, apply=apply)

    def _finish(self, landed: List[_PendingTransaction]) -> Generator:
        """Step 4 for transactions whose puts and copies have all landed:
        delete their temporaries and WAL messages, then log each commit
        — a wave of at most ``connections`` deletes at a time.  A batch's
        requests apply when it is placed and the daemon resumes when the
        last of them finishes, so one batch for a group of 160 would
        empty the WAL several round trips before a single commit was
        logged; in waves, a transaction is logged one round trip after
        its own WAL message went, however wide the group."""
        wave: List[_PendingTransaction] = []
        deletes: List[Request] = []
        for txn in landed:
            own = [
                self.account.s3.delete_request(self.bucket, entry.tmp_key)
                for entry in txn.data_entries()
            ]
            own.extend(
                self.account.sqs.delete_request(self.queue_url, receipt)
                for receipt in txn.receipts
            )
            if wave and len(deletes) + len(own) > self.connections:
                yield from self._finish_wave(wave, deletes)
                wave, deletes = [], []
            wave.append(txn)
            deletes.extend(own)
        if wave:
            yield from self._finish_wave(wave, deletes)

    def _finish_wave(
        self, wave: List[_PendingTransaction], deletes: List[Request]
    ) -> Generator:
        if deletes:
            yield Batch(deletes, self.connections)
        for txn in wave:
            del self._pending[txn.txn_id]
            del self._held[txn.txn_id]
            self._committed_count += 1
            record = CommitRecord(
                txn_id=txn.txn_id,
                logged_at=self._logged_at.pop(txn.txn_id, 0.0),
                committed_at=self.account.now,
            )
            self.commit_log.append(record)
            self._m_commits.inc()
            self._m_lag.observe(record.lag)
            self._tracer.mark_if_traced(
                txn.txn_id, COMMIT_DONE, record.committed_at
            )
            self._tracer.close(txn.txn_id)

    @staticmethod
    def _bundles_from_records(records) -> List[ProvenanceBundle]:
        by_uuid: Dict[str, ProvenanceBundle] = {}
        for record in records:
            bundle = by_uuid.setdefault(
                record.subject.uuid, ProvenanceBundle(uuid=record.subject.uuid)
            )
            bundle.add(record)
        return list(by_uuid.values())

    # -- introspection ------------------------------------------------------------------

    def pending_transactions(self) -> List[str]:
        return sorted(self._pending)

    def committed_count(self) -> int:
        return self._committed_count
