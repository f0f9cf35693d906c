"""Direct unit tests for P3's asynchronous halves: the commit daemon
(idempotent re-commit after a mid-commit crash) and the cleaner daemon
(garbage collection of incomplete transactions)."""

from dataclasses import replace

import pytest

from repro.backends.parity import store_fingerprint
from repro.cloud.account import CloudAccount
from repro.core import PAS3fs, ProtocolP3, UploadMode, collect
from repro.core.commit_daemon import COPY_RETRY_S, CommitDaemon
from repro.core.cleaner_daemon import DEFAULT_MAX_AGE_SECONDS
from repro.errors import (
    ClientCrashError,
    NoSuchKeyError,
    TransactionIncompleteError,
)
from repro.provenance.syscalls import TraceBuilder
from repro.sim import run_plan_phased
from repro.workloads.base import MOUNT

from daemon_drive import drain


def _single_file_trace(size=64 * 1024):
    builder = TraceBuilder()
    writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/writer")
    builder.read(writer, "/local/input.dat", 1024)
    builder.write_close(writer, f"{MOUNT}out/result.dat", size)
    builder.exit(writer)
    return builder.trace


def _many_files_trace(files=4, size=8 * 1024):
    """One writer closing ``files`` files: one P3 transaction each."""
    builder = TraceBuilder()
    writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/writer")
    for index in range(files):
        builder.write_close(writer, f"{MOUNT}group/f{index}.dat", size)
    builder.exit(writer)
    return builder.trace


def _wide_provenance_trace(cycles=64):
    """Provenance large enough to span several 8 KB WAL messages, so a
    mid-log crash leaves a genuinely incomplete transaction."""
    builder = TraceBuilder()
    xform = builder.spawn(
        "transform",
        argv=["transform", "--passes", str(cycles)],
        env=(("TRANSFORM_OPTS", "x" * 512),),
        exec_path="/bin/transform",
    )
    for cycle in range(cycles):
        builder.read(xform, f"{MOUNT}wide/input.dat", 16 * 1024)
        builder.write(xform, f"{MOUNT}wide/output.dat", (cycle + 1) * 1024)
    builder.close(xform, f"{MOUNT}wide/output.dat")
    builder.exit(xform)
    return builder.trace


class TestCommitDaemonRecovery:
    def test_recommit_after_mid_commit_crash_is_idempotent(self):
        account = CloudAccount(seed=9)
        protocol = ProtocolP3(account)
        fs = PAS3fs(account, protocol)
        fs.run(collect(_single_file_trace()))

        # The first daemon machine dies between the SimpleDB writes and
        # the temp->final COPY.
        account.faults.arm_crash("p3.mid_commit")
        with pytest.raises(ClientCrashError):
            protocol.finalize()
        assert not account.s3.list_keys(protocol.bucket, "files/mnt/s3/out/")

        # Any other machine can run a fresh daemon against the same
        # queue and finish the job (§4.3.3) once the WAL messages'
        # visibility timeout lapses.
        account.faults.disarm_all()
        account.settle(60.0)
        second = CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
        )
        assert drain(second) == (1, 0)  # committed, pending
        account.settle(60.0)  # let the COPY/DELETEs become list-visible

        # Data reached its final key; temporaries and WAL are gone.
        assert account.s3.list_keys(protocol.bucket, "files/mnt/s3/out/")
        assert not account.s3.list_keys(protocol.bucket, "tmp/")
        assert account.sqs.pending_count(protocol.queue_url, now=account.now) == 0

        # Idempotency: the crashed commit already issued the same
        # BatchPutAttributes; re-issuing them must not duplicate values.
        for name in account.simpledb.peek_item_names(protocol.domain):
            attributes = account.simpledb.peek_item(protocol.domain, name)
            for attribute, values in attributes.items():
                assert len(values) == len(set(values)), (name, attribute)

    def test_commit_refuses_incomplete_transaction(self):
        account = CloudAccount(seed=9)
        protocol = ProtocolP3(account)
        daemon = protocol.commit_daemon
        with pytest.raises(TransactionIncompleteError):
            run_plan_phased(account, daemon.commit_plan(["txn-never-logged"]))


class TestGroupCommit:
    """The daemon commits every transaction complete after a receive as
    one group; the WAL contract stays per transaction."""

    FILES = 4

    def _logged(self, seed=5):
        account = CloudAccount(seed=seed)
        protocol = ProtocolP3(account)
        PAS3fs(account, protocol).run(collect(_many_files_trace(self.FILES)))
        account.settle(60.0)  # every temp object visible to its COPY
        return account, protocol

    @staticmethod
    def _daemon(account, protocol):
        return CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=protocol.router,
        )

    @staticmethod
    def _receive_into(daemon, account, protocol):
        """Deliver the queue's messages to ``daemon`` without committing:
        a daemon holding a receive it has not acted on yet."""
        for message in account.sqs.receive_messages(protocol.queue_url):
            daemon._ingest(message)
        return daemon.pending_transactions()

    @staticmethod
    def _settled_fingerprint(account, protocol):
        account.settle(120.0)
        return store_fingerprint(account, queue_urls=[protocol.queue_url])

    @staticmethod
    def _requests(account, service, op):
        return account.billing.usage[service].requests[op]

    @staticmethod
    def _hold_invisible(account, protocol, key, seconds):
        """An unlucky propagation draw for ``key``'s latest write."""
        register = account.s3._bucket(protocol.bucket)[key]
        register.history()[-1].visible_at = account.now + seconds

    def test_group_equals_one_at_a_time_with_fewer_batch_puts(self):
        account, protocol = self._logged()
        daemon = protocol.commit_daemon
        protocol.finalize()
        assert daemon.committed_count() == self.FILES
        sizes = account.telemetry.metrics.histograms_named("daemon.group_size")
        assert [h.summary()["max"] for h in sizes if h.count] == [self.FILES]

        twin_account, twin_protocol = self._logged()
        twin = twin_protocol.commit_daemon
        txn_ids = self._receive_into(twin, twin_account, twin_protocol)
        assert len(txn_ids) == self.FILES
        for txn_id in txn_ids:  # a group of one a round
            run_plan_phased(twin_account, twin.commit_plan([txn_id]))
        assert twin.committed_count() == self.FILES

        assert self._requests(
            account, "simpledb", "BatchPutAttributes"
        ) < self._requests(twin_account, "simpledb", "BatchPutAttributes")
        assert self._settled_fingerprint(
            account, protocol
        ) == self._settled_fingerprint(twin_account, twin_protocol)

    def test_mid_commit_crash_leaves_the_whole_group_in_the_wal(self):
        ref_account, ref_protocol = self._logged()
        ref_protocol.finalize()
        reference = self._settled_fingerprint(ref_account, ref_protocol)

        account, protocol = self._logged()
        logged = account.sqs.pending_count(protocol.queue_url)
        account.faults.arm_crash("p3.mid_commit")
        with pytest.raises(ClientCrashError):
            protocol.finalize()
        account.faults.disarm_all()
        # The group's provenance is put, nothing is copied, and not one
        # WAL message of any of its transactions is gone.
        assert account.sqs.pending_count(protocol.queue_url) == logged
        assert not account.s3.peek_keys(protocol.bucket, "files/")

        account.settle(60.0)  # the dead daemon's lease lapses
        assert drain(self._daemon(account, protocol))[0] == self.FILES
        assert self._settled_fingerprint(account, protocol) == reference
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")

    def test_straggler_holds_back_only_its_own_transaction(self):
        account, protocol = self._logged()
        tmp_keys = account.s3.peek_keys(protocol.bucket, "tmp/")
        assert len(tmp_keys) == self.FILES  # one manifest entry each
        straggler_key = tmp_keys[1]
        # An unlucky propagation draw: this temp object stays out of
        # sight for the first COPY round and the first re-issue.
        self._hold_invisible(account, protocol, straggler_key, 1.5 * COPY_RETRY_S)

        daemon = protocol.commit_daemon
        protocol.finalize()
        log = daemon.commit_log
        assert len(log) == self.FILES
        assert log[-1].txn_id in straggler_key
        assert all(r.committed_at < log[-1].committed_at for r in log[:-1])
        # Only the copy that did not land was re-issued.
        assert self._requests(account, "s3", "COPY") == self.FILES
        account.settle(120.0)
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")
        assert account.sqs.pending_count(protocol.queue_url) == 0

    def test_later_version_of_a_path_waits_behind_a_held_earlier_one(self):
        account = CloudAccount(seed=5)
        protocol = ProtocolP3(account)
        builder = TraceBuilder()
        writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/writer")
        builder.write_close(writer, f"{MOUNT}group/same.dat", 8 * 1024)
        builder.write_close(writer, f"{MOUNT}group/same.dat", 4 * 1024)
        builder.exit(writer)
        PAS3fs(account, protocol).run(collect(builder.trace))
        account.settle(60.0)
        first_tmp, second_tmp = account.s3.peek_keys(protocol.bucket, "tmp/")
        self._hold_invisible(account, protocol, first_tmp, 1.5 * COPY_RETRY_S)

        daemon = protocol.commit_daemon
        protocol.finalize()
        # Both flushes copy to one final key: the second version's copy
        # is not issued until the first has landed, so they commit in
        # log order and the final object is the latest version.
        first, second = daemon.commit_log
        assert first.txn_id in first_tmp and second.txn_id in second_tmp
        assert first.committed_at <= second.committed_at
        assert self._requests(account, "s3", "COPY") == 2
        account.settle(120.0)
        (final_key,) = account.s3.peek_keys(protocol.bucket, "files/")
        final = account.s3.peek_latest(protocol.bucket, final_key)
        assert final.metadata["version"] == "1"
        assert final.blob.size == 4 * 1024

    def _stalled_then_committed_elsewhere(self):
        """A stalled daemon holds the group; its lease lapses, another
        daemon receives the same messages and commits them."""
        account, protocol = self._logged()
        stalled = self._daemon(account, protocol)
        assert len(self._receive_into(stalled, account, protocol)) == self.FILES
        account.settle(60.0)
        assert drain(protocol.commit_daemon)[0] == self.FILES
        return account, protocol, stalled

    def _reference_fingerprint(self):
        account, protocol = self._logged()
        protocol.finalize()
        return self._settled_fingerprint(account, protocol)

    def test_duplicate_delivery_right_after_commit_recopies_idempotently(self):
        account, protocol, stalled = self._stalled_then_committed_elsewhere()
        # The stalled daemon wakes up while the temp objects' tombstones
        # are still propagating: its COPYs find their sources and rewrite
        # the same final objects.
        run_plan_phased(account, stalled.commit_plan())
        assert stalled.committed_count() == self.FILES
        assert self._settled_fingerprint(account, protocol) == self._reference_fingerprint()

    def test_duplicate_delivery_long_after_commit_finds_it_already_done(self):
        account, protocol, stalled = self._stalled_then_committed_elsewhere()
        account.settle(60.0)  # the temp objects are visibly gone
        copies = self._requests(account, "s3", "COPY")
        heads = self._requests(account, "s3", "HEAD")
        # Every COPY round finds no source; the final objects already
        # carry the group's uuids and versions, so the stale delivery is
        # finished without copying anything.
        run_plan_phased(account, stalled.commit_plan())
        assert stalled.pending_transactions() == []
        assert stalled.committed_count() == self.FILES
        assert self._requests(account, "s3", "COPY") == copies
        assert self._requests(account, "s3", "HEAD") == heads + self.FILES
        assert self._settled_fingerprint(account, protocol) == self._reference_fingerprint()

    def test_temp_object_that_never_appears_is_an_error(self):
        account, protocol = self._logged()
        tmp_keys = account.s3.peek_keys(protocol.bucket, "tmp/")
        self._hold_invisible(account, protocol, tmp_keys[0], 10_000.0)
        daemon = protocol.commit_daemon
        with pytest.raises(NoSuchKeyError):
            protocol.finalize()
        # The others committed; the straggler keeps its WAL message.
        assert daemon.committed_count() == self.FILES - 1
        assert len(daemon.pending_transactions()) == 1
        assert account.sqs.pending_count(protocol.queue_url) == 1


class TestCleanerDaemonGC:
    def _crash_mid_log(self):
        account = CloudAccount(seed=13)
        # CAUSAL mode sends WAL packets one by one, so the mid-log crash
        # point can fire between them.
        protocol = ProtocolP3(account, mode=UploadMode.CAUSAL)
        fs = PAS3fs(account, protocol)
        account.faults.arm_crash("p3.mid_log")
        with pytest.raises(ClientCrashError):
            fs.run(collect(_wide_provenance_trace()))
        account.faults.disarm_all()
        return account, protocol

    def test_incomplete_transaction_is_never_committed(self):
        account, protocol = self._crash_mid_log()
        assert drain(protocol.commit_daemon) == (0, 1)  # committed, pending
        # The orphaned temporaries are still sitting under tmp/.
        assert account.s3.list_keys(protocol.bucket, "tmp/")

    def test_cleaner_collects_orphaned_temporaries(self):
        account, protocol = self._crash_mid_log()
        # Too young to collect: a cleaning pass right away removes nothing.
        assert protocol.run_cleaner() == 0
        # Four days later the temporaries are stale and SQS has dropped
        # the incomplete transaction's messages (its retention window).
        account.clock.advance(DEFAULT_MAX_AGE_SECONDS + 120.0)
        removed = protocol.run_cleaner()
        assert removed > 0
        account.settle(60.0)  # let the DELETEs become list-visible
        assert not account.s3.list_keys(protocol.bucket, "tmp/")
        assert account.sqs.pending_count(protocol.queue_url, now=account.now) == 0
        # A fresh daemon finds nothing left to commit.
        fresh = CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
        )
        assert drain(fresh) == (0, 0)
        # The never-committed data must not exist at its final key.
        assert not account.s3.list_keys(protocol.bucket, "files/mnt/s3/wide/")


def _state_snapshot(account, protocol):
    """Byte-comparable committed state: every SimpleDB item in every shard
    domain, every surviving S3 object (digest + metadata), and the WAL
    backlog.  Timestamps are deliberately excluded — recovery changes
    *when* state lands, never *what* lands."""
    domains = {
        domain: {
            name: account.simpledb.peek_item(domain, name)
            for name in account.simpledb.peek_item_names(domain)
        }
        for domain in protocol.router.domains
    }
    objects = {
        key: (
            account.s3.peek_latest(protocol.bucket, key).blob.digest,
            tuple(
                sorted(account.s3.peek_latest(protocol.bucket, key).metadata.items())
            ),
        )
        for key in account.s3.peek_keys(protocol.bucket)
    }
    return repr((domains, objects))


class TestKernelTakeover:
    """§4.3.3's takeover claim, run for real on the simulation kernel:
    daemon A crashes mid-commit, daemon B — polling the same queue as a
    concurrent process — finishes the transaction after the WAL messages'
    visibility timeout redelivers them."""

    @staticmethod
    def _logged_account(seed=21, trace=_single_file_trace):
        account = CloudAccount(seed=seed)
        protocol = ProtocolP3(account)
        fs = PAS3fs(account, protocol)
        fs.run(collect(trace()))
        return account, protocol

    @staticmethod
    def _run_daemons(account, protocol, crash_skip):
        from repro.sim import SimKernel

        kernel = SimKernel(account)
        if crash_skip is not None:
            account.faults.arm_crash("p3.mid_commit", skip=crash_skip)
        daemons = []
        for index in range(2):
            daemon = CommitDaemon(
                account=account,
                queue_url=protocol.queue_url,
                bucket=protocol.bucket,
                domain=protocol.domain,
                router=protocol.router,
            )
            daemons.append(daemon)
            kernel.spawn(
                daemon.process(poll_interval=1.0),
                name=f"daemon-{index}",
                daemon=True,
            )
        guard = 0
        while account.sqs.pending_count(protocol.queue_url) > 0 and guard < 200:
            kernel.run(until=account.now + 5.0)
            guard += 1
        kernel.run(until=account.now + 5.0)  # settle bookkeeping
        states = [kernel.process(f"daemon-{i}").state for i in range(2)]
        return daemons, states

    @pytest.mark.parametrize(
        "trace, transactions, crash_skip, held, committed_by_a",
        [
            (_single_file_trace, 1, 0, 1, 0),
            (_many_files_trace, 4, 0, 4, 0),
            # A WAL 300 deep: both daemons widen in step — groups of 10,
            # 20 and 40, then fan-out 8 — and reach the crash point in
            # turn, A first, so A's group of 80 is the seventh hit.
            (lambda: _many_files_trace(300), 300, 6, 80, 70),
        ],
        ids=["one-transaction", "group-of-four", "fan-out-8-group"],
    )
    def test_daemon_b_finishes_daemon_a_transaction_byte_identically(
        self, trace, transactions, crash_skip, held, committed_by_a
    ):
        # Reference: the same client run, no crash, both daemons healthy.
        ref_account, ref_protocol = self._logged_account(trace=trace)
        self._run_daemons(ref_account, ref_protocol, crash_skip=None)
        reference = _state_snapshot(ref_account, ref_protocol)

        # Crash run: daemon A dies mid-commit, daemon B takes over.
        account, protocol = self._logged_account(trace=trace)
        daemons, states = self._run_daemons(account, protocol, crash_skip)

        from repro.sim import ProcessState

        assert states[0] is ProcessState.CRASHED
        assert states[1] is not ProcessState.CRASHED
        assert account.faults.fired("p3.mid_commit")
        # A died holding its whole group, and every WAL message of that
        # group was still in the queue: B committed each of them, and
        # everything else A had not.
        stranded = daemons[0].pending_transactions()
        assert len(stranded) == held
        assert set(stranded) <= {r.txn_id for r in daemons[1].commit_log}
        assert daemons[0].committed_count() == committed_by_a
        assert daemons[1].committed_count() == transactions - committed_by_a

        # The committed state is byte-identical to the uncrashed run —
        # "any other machine can finish the job", with nothing duplicated
        # and nothing missing.
        assert _state_snapshot(account, protocol) == reference
        assert account.sqs.pending_count(protocol.queue_url) == 0
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")


class _RecordingDaemon(CommitDaemon):
    """Logs each round's (fan-out, full receives) and every receipt
    handle the daemon was handed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = []
        self.handles = []

    def _next_fanout(self, fanout, full, held_s):
        self.rounds.append((fanout, full))
        return super()._next_fanout(fanout, full, held_s)

    def _ingest(self, message):
        self.handles.append(message.receipt_handle)
        super()._ingest(message)


class _OneReceiveDaemon(CommitDaemon):
    """The daemon before the fan-out: one receive a round."""

    def _next_fanout(self, fanout, full, held_s):
        return 1


class TestReceiveFanout:
    """Kernel mode sizes the round's receive fan-out, and so the commit
    group, to the backlog it observes."""

    @staticmethod
    def _preloaded(transactions, seed=5):
        """A WAL ``transactions`` deep (one message each), every temp
        object visible, no daemon running yet."""
        account = CloudAccount(seed=seed)
        protocol = ProtocolP3(account)
        PAS3fs(account, protocol).run(collect(_many_files_trace(transactions)))
        account.settle(60.0)
        assert account.sqs.pending_count(protocol.queue_url) == transactions
        return account, protocol

    @staticmethod
    def _spawn(account, protocol, daemons=1, cls=CommitDaemon, **kwargs):
        from repro.sim import SimKernel

        kernel = SimKernel(account)
        pool = []
        for index in range(daemons):
            daemon = cls(
                account=account,
                queue_url=protocol.queue_url,
                bucket=protocol.bucket,
                domain=protocol.domain,
                router=protocol.router,
                **kwargs,
            )
            pool.append(daemon)
            kernel.spawn(
                daemon.process(poll_interval=1.0), name=f"d{index}", daemon=True
            )
        return kernel, pool

    def _drain(self, account, protocol, transactions, **spawn):
        kernel, pool = self._spawn(account, protocol, **spawn)
        guard = 0
        while sum(d.committed_count() for d in pool) < transactions and guard < 400:
            kernel.run(until=account.now + 5.0)
            guard += 1
        assert sum(d.committed_count() for d in pool) == transactions
        return pool

    @staticmethod
    def _requests(account, service, op):
        return account.billing.usage[service].requests[op]

    def test_deep_wal_commits_in_fewer_batch_puts_and_less_time(self):
        transactions = 200
        outcome = {}
        for cls in (CommitDaemon, _OneReceiveDaemon):
            account, protocol = self._preloaded(transactions)
            entries = len(account.s3.peek_keys(protocol.bucket, "tmp/"))
            started = account.now
            (daemon,) = self._drain(account, protocol, transactions, cls=cls)
            assert self._requests(account, "s3", "COPY") == entries
            assert self._requests(account, "sqs", "DeleteMessage") == transactions
            elapsed = max(r.committed_at for r in daemon.commit_log) - started
            batch_puts = self._requests(account, "simpledb", "BatchPutAttributes")
            account.settle(120.0)
            fingerprint = store_fingerprint(account, queue_urls=[protocol.queue_url])
            outcome[cls] = (batch_puts, elapsed, fingerprint)
        wide, narrow = outcome[CommitDaemon], outcome[_OneReceiveDaemon]
        assert wide[0] < narrow[0]
        assert wide[1] < narrow[1]
        assert wide[2] == narrow[2]

    def test_idle_daemon_issues_one_receive_per_poll(self):
        account = CloudAccount(seed=5)
        protocol = ProtocolP3(account)
        kernel, (daemon,) = self._spawn(account, protocol, cls=_RecordingDaemon)
        kernel.run(until=account.now + 60.0)
        polls = len(daemon.rounds)
        assert polls >= 50
        assert daemon.rounds == [(1, 0)] * polls
        # One billed receive per poll (the poll in flight at the horizon
        # is billed too), each of them empty, each a round of fan-out 1.
        billed = self._requests(account, "sqs", "ReceiveMessage")
        assert billed in (polls, polls + 1)
        metrics = account.telemetry.metrics
        assert billed == sum(
            c.value for c in metrics.counters_named("daemon.empty_receives")
        )
        assert billed == sum(
            h.sum for h in metrics.histograms_named("daemon.receive_fanout")
        )

    def test_fanout_doubles_on_full_rounds_and_shrinks_to_full_plus_one(self):
        # 55 messages: one full receive, two full, then of four receives
        # two full, one partial, one empty.  The round after asks for the
        # two that were full plus one, finds nothing, and the daemon is
        # back to a single receive per poll.
        account, protocol = self._preloaded(55)
        kernel, (daemon,) = self._spawn(account, protocol, cls=_RecordingDaemon)
        kernel.run(until=account.now + 30.0)
        assert daemon.committed_count() == 55
        assert daemon.rounds[:6] == [(1, 1), (2, 2), (4, 2), (3, 0), (1, 0), (1, 0)]

    def test_fanout_never_exceeds_the_daemons_connections(self):
        account, protocol = self._preloaded(200)
        (daemon,) = self._drain(
            account, protocol, 200, cls=_RecordingDaemon, connections=4
        )
        assert max(fanout for fanout, _ in daemon.rounds) == 4

    def test_wide_round_into_an_emptied_queue_bills_one_receive(self):
        # 30 messages: one full receive, two full — and the round of four
        # that follows finds the queue empty.  Its first receive goes
        # alone and comes back empty, so the other three are never sent.
        account, protocol = self._preloaded(30)
        kernel, (daemon,) = self._spawn(account, protocol, cls=_RecordingDaemon)
        kernel.run(until=account.now + 30.0)
        assert daemon.committed_count() == 30
        assert daemon.rounds[:4] == [(1, 1), (2, 2), (4, 0), (1, 0)]
        # Every round but the second issued a single receive.
        billed = self._requests(account, "sqs", "ReceiveMessage")
        assert billed in (len(daemon.rounds) + 1, len(daemon.rounds) + 2)

    def test_wal_never_runs_a_wave_ahead_of_the_commit_log(self):
        # A group's deletes go in waves of at most `connections`
        # requests, each wave's commits logged as it lands: whenever the
        # kernel is stopped, the messages gone from the WAL but not yet
        # in a commit log are one wave's at most — here a group of 80
        # and more is in flight for most of the run.
        transactions = 200
        account, protocol = self._preloaded(transactions)
        kernel, (daemon,) = self._spawn(account, protocol)
        widest_gap = 0
        while daemon.committed_count() < transactions:
            kernel.run(until=account.now + 0.25)
            gone = transactions - account.sqs.pending_count(protocol.queue_url)
            widest_gap = max(widest_gap, gone - daemon.committed_count())
            assert account.now < 400.0
        assert 0 < widest_gap <= daemon.connections // 2  # two deletes each
        sizes = account.telemetry.metrics.histograms_named("daemon.group_size")
        assert max(h.percentile(100) for h in sizes if h.count) >= 80

    @pytest.mark.parametrize(
        "visibility_timeout, transactions, widest",
        # The supervisor's lease over a backlog two daemons clear before
        # either passes fan-out 8; and a lease so short that a round of
        # 20 already takes over half of it, where only the guard keeps
        # the fan-out from doubling on to 32 over the 500 queued.
        [(12.0, 200, 8), (5.0, 500, 2)],
    )
    def test_no_group_outlives_its_lease(
        self, visibility_timeout, transactions, widest
    ):
        account, protocol = self._preloaded(transactions)
        pool = self._drain(
            account,
            protocol,
            transactions,
            daemons=2,
            cls=_RecordingDaemon,
            visibility_timeout=visibility_timeout,
        )
        # No message was delivered twice: every handle is a first receipt.
        handles = [handle for d in pool for handle in d.handles]
        assert len(handles) == transactions
        assert all(handle.endswith("#r1") for handle in handles)
        assert max(fanout for d in pool for fanout, _ in d.rounds) == widest

    def test_same_seed_replays_the_commit_log_bit_for_bit(self):
        logs = []
        for _ in range(2):
            account, protocol = self._preloaded(200)
            pool = self._drain(account, protocol, 200, daemons=2)
            logs.append(
                [
                    [(r.txn_id, r.logged_at, r.committed_at) for r in d.commit_log]
                    for d in pool
                ]
            )
        assert logs[0] == logs[1]
        assert max(len(log) for log in logs[0]) > 10  # groups were wide


class _CopyCountingDaemon(_RecordingDaemon):
    """Also counts the COPYs the daemon issued, by whether they landed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.landed = 0
        self.missed = 0

    def _copy_request(self, entry):
        request = super()._copy_request(entry)

        def apply(start, finish):
            landed = request.apply(start, finish)
            if landed:
                self.landed += 1
            else:
                self.missed += 1
            return landed

        return replace(request, apply=apply)


class TestHeldTransactions:
    """A transaction whose temp object is not visible yet is *held*: its
    copies retry on their own due-times while the daemon goes on
    receiving and committing, and ``commit_plan`` waits them out."""

    FILES = 4

    _hold_invisible = staticmethod(TestGroupCommit._hold_invisible)
    _requests = staticmethod(TestGroupCommit._requests)

    def _logged(self, trace=None, seed=5):
        account = CloudAccount(seed=seed)
        protocol = ProtocolP3(account)
        PAS3fs(account, protocol).run(collect(trace or _many_files_trace(self.FILES)))
        account.settle(60.0)  # every temp object visible unless held below
        return account, protocol

    @staticmethod
    def _same_path_twice():
        builder = TraceBuilder()
        writer = builder.spawn("writer", argv=["writer"], exec_path="/bin/writer")
        builder.write_close(writer, f"{MOUNT}group/same.dat", 8 * 1024)
        builder.write_close(writer, f"{MOUNT}group/same.dat", 4 * 1024)
        builder.exit(writer)
        return builder.trace

    @staticmethod
    def _spawn(account, protocol, name="d0", kernel=None, max_messages=10, **kwargs):
        from repro.sim import SimKernel

        kernel = kernel if kernel is not None else SimKernel(account)
        daemon = _CopyCountingDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=protocol.router,
            **kwargs,
        )
        kernel.spawn(
            daemon.process(poll_interval=1.0, max_messages=max_messages),
            name=name,
            daemon=True,
        )
        return kernel, daemon

    def test_daemon_receives_and_commits_while_a_straggler_waits(self):
        from repro.sim import Delay
        from repro.workloads.fleet import make_fleet

        account, protocol = self._logged()
        tmp_keys = account.s3.peek_keys(protocol.bucket, "tmp/")
        self._hold_invisible(account, protocol, tmp_keys[1], 3 * COPY_RETRY_S)
        kernel, daemon = self._spawn(account, protocol)
        (late,) = make_fleet(clients=1, files_per_client=1, seed=5)[0].works

        def late_writer():
            yield Delay(3.0)  # the rest of the straggler's group is committed
            yield from protocol.flush_plan(late)

        kernel.spawn(late_writer(), name="late-writer")
        started = account.now
        kernel.run(until=started + 3.0)
        assert daemon.committed_count() == self.FILES - 1
        polls_before = len(daemon.rounds)
        kernel.run(until=started + 3 * COPY_RETRY_S)
        assert len(daemon.rounds) - polls_before >= 5
        kernel.run(until=started + 5 * COPY_RETRY_S)

        log = daemon.commit_log
        assert len(log) == self.FILES + 1
        straggler, latecomer = log[-1], log[-2]
        assert straggler.txn_id in tmp_keys[1]
        # Logged after the straggler's whole group, committed before it.
        assert latecomer.logged_at > straggler.logged_at
        assert latecomer.committed_at < straggler.committed_at
        # The held copy was tried once a COPY_RETRY_S and nothing that
        # had landed was copied again; a COPY that finds no source is
        # not billed.
        entries = self.FILES + 1
        assert daemon.missed == 3
        assert daemon.landed == entries
        assert self._requests(account, "s3", "COPY") == entries
        assert account.sqs.pending_count(protocol.queue_url) == 0

    def test_later_version_received_in_a_later_round_waits_behind_the_held(self):
        account, protocol = self._logged(self._same_path_twice())
        first_tmp, second_tmp = account.s3.peek_keys(protocol.bucket, "tmp/")
        self._hold_invisible(account, protocol, first_tmp, 1.5 * COPY_RETRY_S)
        # One message a receive: the versions arrive a round apart.
        kernel, daemon = self._spawn(account, protocol, max_messages=1)
        started = account.now
        kernel.run(until=started + COPY_RETRY_S - 1.0)
        sizes = account.telemetry.metrics.histograms_named("daemon.group_size")
        assert [(h.count, h.sum) for h in sizes if h.count] == [(2, 2)]
        # Version 1 is put and its temp object is in plain sight, but its
        # final key belongs to the held version 0: no COPY goes out.
        assert daemon.pending_transactions() == sorted(
            key.split("/")[1] for key in (first_tmp, second_tmp)
        )
        assert (daemon.landed, daemon.missed) == (0, 1)
        kernel.run(until=started + 4 * COPY_RETRY_S)
        first, second = daemon.commit_log
        assert first.txn_id in first_tmp and second.txn_id in second_tmp
        assert first.committed_at <= second.committed_at
        assert self._requests(account, "s3", "COPY") == 2
        account.settle(120.0)
        (final_key,) = account.s3.peek_keys(protocol.bucket, "files/")
        final = account.s3.peek_latest(protocol.bucket, final_key)
        assert final.metadata["version"] == "1"
        assert final.blob.size == 4 * 1024

    def test_daemon_killed_while_holding_leaves_the_wal_to_a_second_daemon(self):
        ref_account, ref_protocol = self._logged()
        ref_kernel, _ = self._spawn(ref_account, ref_protocol)
        ref_kernel.run(until=ref_account.now + 10.0)
        assert ref_account.sqs.pending_count(ref_protocol.queue_url) == 0
        reference = _state_snapshot(ref_account, ref_protocol)

        account, protocol = self._logged()
        tmp_keys = account.s3.peek_keys(protocol.bucket, "tmp/")
        for key in tmp_keys[1:3]:
            self._hold_invisible(account, protocol, key, 3 * COPY_RETRY_S)
        account.faults.arm_timed_crash("d0", at=account.now + COPY_RETRY_S + 1.0)
        kernel, dead = self._spawn(account, protocol)
        kernel.run(until=account.now + 2 * COPY_RETRY_S)
        # Killed between two retries: both held transactions are put,
        # neither is copied, and each still has its WAL message.
        assert dead.committed_count() == self.FILES - 2
        held = dead.pending_transactions()
        assert held == sorted(key.split("/")[1] for key in tmp_keys[1:3])
        assert account.sqs.pending_count(protocol.queue_url) == 2

        _, second = self._spawn(account, protocol, name="d1", kernel=kernel)
        kernel.run(until=account.now + 60.0)  # the dead daemon's lease lapses
        assert [r.txn_id for r in second.commit_log] == held
        assert account.sqs.pending_count(protocol.queue_url) == 0
        assert not account.s3.peek_keys(protocol.bucket, "tmp/")
        assert _state_snapshot(account, protocol) == reference

    def test_retire_finishes_held_transactions_first(self):
        from repro.sim import ProcessState

        account, protocol = self._logged()
        tmp_keys = account.s3.peek_keys(protocol.bucket, "tmp/")
        self._hold_invisible(account, protocol, tmp_keys[0], 1.5 * COPY_RETRY_S)
        kernel, daemon = self._spawn(account, protocol)
        kernel.run(until=account.now + 3.0)
        assert len(daemon.pending_transactions()) == 1
        daemon.request_stop()
        kernel.run(until=account.now + 1.0)
        assert not daemon.retired  # waiting out the held copy, not dropping it
        kernel.run(until=account.now + 3 * COPY_RETRY_S)
        assert daemon.retired
        assert kernel.process("d0").state is ProcessState.DONE
        assert daemon.committed_count() == self.FILES
        assert daemon.pending_transactions() == []
        assert account.sqs.pending_count(protocol.queue_url) == 0

    def test_unsettled_run_with_stragglers_replays_bit_for_bit(self):
        transactions = 200
        logs = []
        for _ in range(2):
            account = CloudAccount(seed=5)
            protocol = ProtocolP3(account)
            # No settle: the last flushes' temp objects are still
            # propagating when the daemons start.
            PAS3fs(account, protocol).run(collect(_many_files_trace(transactions)))
            kernel, first = self._spawn(account, protocol)
            _, second = self._spawn(account, protocol, name="d1", kernel=kernel)
            guard = 0
            while account.sqs.pending_count(protocol.queue_url) and guard < 100:
                kernel.run(until=account.now + 5.0)
                guard += 1
            kernel.run(until=account.now + 1.0)
            assert first.missed + second.missed > 0
            assert first.landed + second.landed == transactions
            logs.append(
                [
                    [(r.txn_id, r.logged_at, r.committed_at) for r in d.commit_log]
                    for d in (first, second)
                ]
            )
        assert sum(len(log) for log in logs[0]) == transactions
        assert logs[0] == logs[1]

    def test_redelivered_held_transaction_is_not_put_or_copied_again(self):
        account, protocol = self._logged(_single_file_trace())
        (tmp_key,) = account.s3.peek_keys(protocol.bucket, "tmp/")
        self._hold_invisible(account, protocol, tmp_key, 3 * COPY_RETRY_S)
        # A lease shorter than the wait: the message comes back to the
        # daemon that holds its transaction.
        kernel, daemon = self._spawn(account, protocol, visibility_timeout=5.0)
        kernel.run(until=account.now + 2.0)
        batch_puts = self._requests(account, "simpledb", "BatchPutAttributes")
        kernel.run(until=account.now + 4 * COPY_RETRY_S)
        assert len(daemon.handles) > 1
        assert not all(handle.endswith("#r1") for handle in daemon.handles)
        assert self._requests(account, "simpledb", "BatchPutAttributes") == batch_puts
        sizes = account.telemetry.metrics.histograms_named("daemon.group_size")
        assert [(h.count, h.sum) for h in sizes if h.count] == [(1, 1)]
        # The copy kept its own cadence whatever was received meanwhile.
        assert (daemon.landed, daemon.missed) == (1, 3)
        assert len(daemon.commit_log) == 1
        assert account.sqs.pending_count(protocol.queue_url) == 0

    @pytest.mark.xfail(
        strict=True,
        reason="the copy-ordering rule is per daemon: a second daemon does "
        "not see the first one's hold on a final key (ROADMAP item 16(e))",
    )
    def test_held_earlier_version_does_not_overwrite_another_daemons_later_one(self):
        account, protocol = self._logged(self._same_path_twice())
        first_tmp, _second_tmp = account.s3.peek_keys(protocol.bucket, "tmp/")
        self._hold_invisible(account, protocol, first_tmp, 1.5 * COPY_RETRY_S)
        slow, fast = (
            TestGroupCommit._daemon(account, protocol) for _ in range(2)
        )
        for daemon in (slow, fast):  # version 0 to one, version 1 to the other
            (message,) = account.sqs.receive_messages(
                protocol.queue_url, max_messages=1
            )
            daemon._ingest(message)
        assert slow.pending_transactions()[0] in first_tmp
        # The daemon with version 1 commits at once; the one holding
        # version 0 lands its copy two retries later — over version 1.
        run_plan_phased(account, fast.commit_plan())
        run_plan_phased(account, slow.commit_plan())
        assert slow.committed_count() == fast.committed_count() == 1
        account.settle(120.0)
        (final_key,) = account.s3.peek_keys(protocol.bucket, "files/")
        final = account.s3.peek_latest(protocol.bucket, final_key)
        assert final.metadata["version"] == "1"
        assert final.blob.size == 4 * 1024


class TestCommitLagBookkeeping:
    def test_commit_log_records_positive_lag_under_kernel(self):
        from repro.sim import SimKernel

        account, protocol = TestKernelTakeover._logged_account(seed=4)
        kernel = SimKernel(account)
        daemon = CommitDaemon(
            account=account,
            queue_url=protocol.queue_url,
            bucket=protocol.bucket,
            domain=protocol.domain,
            router=protocol.router,
        )
        kernel.spawn(daemon.process(poll_interval=1.0), name="d", daemon=True)
        guard = 0
        while account.sqs.pending_count(protocol.queue_url) > 0 and guard < 50:
            kernel.run(until=account.now + 5.0)
            guard += 1
        kernel.run(until=account.now + 5.0)
        assert len(daemon.commit_log) == 1
        record = daemon.commit_log[0]
        assert record.committed_at > record.logged_at
        assert record.lag == record.committed_at - record.logged_at

    def test_long_run_keeps_no_per_transaction_state(self):
        """A daemon that has committed everything it saw holds nothing
        per transaction — neither packets nor log-completion times."""
        import random

        from repro.sim import SimKernel
        from repro.workloads.fleet import make_fleet, protocol_client_process

        account = CloudAccount(seed=4)
        protocol = ProtocolP3(account, client_id="fleet-shared")
        kernel = SimKernel(account)
        fleet = make_fleet(clients=20, files_per_client=10, seed=4)
        for client in fleet:
            kernel.spawn(
                protocol_client_process(
                    protocol, client, 0.5, random.Random(client.client_id)
                ),
                name=client.client_id,
            )
        daemon = protocol.commit_daemon
        kernel.spawn(daemon.process(poll_interval=1.0), name="d", daemon=True)
        kernel.run()
        guard = 0
        while account.sqs.pending_count(protocol.queue_url) > 0 and guard < 200:
            kernel.run(until=account.now + 5.0)
            guard += 1
        kernel.run(until=account.now + 5.0)
        assert daemon.committed_count() == 200
        assert daemon._pending == {}
        assert daemon._logged_at == {}


class TestCleanerProcess:
    def test_cleaner_runs_periodically_on_the_kernel(self):
        from repro.sim import Delay, SimKernel

        account = CloudAccount(seed=13)
        protocol = ProtocolP3(account, mode=UploadMode.CAUSAL)
        fs = PAS3fs(account, protocol)
        account.faults.arm_crash("p3.mid_log")
        with pytest.raises(ClientCrashError):
            fs.run(collect(_wide_provenance_trace()))
        account.faults.disarm_all()
        assert account.s3.list_keys(protocol.bucket, "tmp/")

        kernel = SimKernel(account)
        interval = DEFAULT_MAX_AGE_SECONDS / 2
        kernel.spawn(
            protocol.cleaner_daemon.process(interval=interval),
            name="cleaner",
            daemon=True,
        )
        # Three cleaner passes fit in the horizon; only the one after the
        # four-day threshold collects the orphans.
        kernel.run(until=DEFAULT_MAX_AGE_SECONDS * 1.6)
        assert protocol.cleaner_daemon.removed_total > 0
        account.settle(60.0)
        assert not account.s3.list_keys(protocol.bucket, "tmp/")
