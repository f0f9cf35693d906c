"""Tests for the simulated SQS service."""

import pytest

from repro.cloud.sqs import MESSAGE_LIMIT_BYTES, RETENTION_SECONDS
from repro.errors import InvalidRequestError, LimitExceededError, NoSuchQueueError


@pytest.fixture
def queue(strict_account):
    return strict_account.sqs.create_queue("q")


class TestSendReceive:
    def test_roundtrip(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "hello")
        messages = sqs.receive_messages(queue)
        assert [m.body for m in messages] == ["hello"]

    def test_message_limit(self, strict_account, queue):
        with pytest.raises(LimitExceededError):
            strict_account.sqs.send_message(queue, "x" * (MESSAGE_LIMIT_BYTES + 1))

    def test_exactly_at_limit_ok(self, strict_account, queue):
        strict_account.sqs.send_message(queue, "x" * MESSAGE_LIMIT_BYTES)

    def test_empty_body_rejected(self, strict_account, queue):
        with pytest.raises(InvalidRequestError):
            strict_account.sqs.send_message(queue, "")

    def test_missing_queue(self, strict_account):
        with pytest.raises(NoSuchQueueError):
            strict_account.sqs.send_message("sqs://queues/nope", "x")

    def test_receive_empty_queue(self, strict_account, queue):
        assert strict_account.sqs.receive_messages(queue) == []

    def test_receive_batch_limit(self, strict_account, queue):
        sqs = strict_account.sqs
        for index in range(15):
            sqs.send_message(queue, f"m{index}")
        batch = sqs.receive_messages(queue, max_messages=10)
        assert len(batch) == 10
        with pytest.raises(InvalidRequestError):
            sqs.receive_messages(queue, max_messages=11)


class TestVisibilityTimeout:
    def test_received_message_hidden_until_timeout(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        first = sqs.receive_messages(queue, visibility_timeout=30.0)
        assert len(first) == 1
        # Immediately after, the message is invisible.
        assert sqs.receive_messages(queue) == []
        # After the timeout it reappears (at-least-once delivery).
        strict_account.clock.advance(40.0)
        again = sqs.receive_messages(queue)
        assert [m.body for m in again] == ["m"]
        assert again[0].message_id == first[0].message_id
        assert again[0].receipt_handle != first[0].receipt_handle

    def test_delete_by_receipt(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        message = sqs.receive_messages(queue)[0]
        sqs.delete_message(queue, message.receipt_handle)
        strict_account.clock.advance(100.0)
        assert sqs.receive_messages(queue) == []
        assert sqs.pending_count(queue) == 0

    def test_delete_with_stale_receipt_is_noop(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        sqs.receive_messages(queue)
        sqs.delete_message(queue, "bogus#r1")
        strict_account.clock.advance(100.0)
        assert len(sqs.receive_messages(queue)) == 1


class TestChangeVisibility:
    def test_timeout_zero_hands_the_message_straight_back(
        self, strict_account, queue
    ):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        first = sqs.receive_messages(queue, visibility_timeout=30.0)[0]
        assert sqs.receive_messages(queue) == []
        # No clock advance: the handback alone re-exposes the message.
        sqs.change_visibility(queue, first.receipt_handle, 0.0)
        again = sqs.receive_messages(queue)
        assert [m.body for m in again] == ["m"]
        assert again[0].message_id == first.message_id

    def test_extends_the_lease_from_now(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        message = sqs.receive_messages(queue, visibility_timeout=10.0)[0]
        sqs.change_visibility(queue, message.receipt_handle, 100.0)
        # The original 10 s lease would have lapsed by now; the reset
        # window (from the change, not the receive) still holds.
        strict_account.clock.advance(50.0)
        assert sqs.receive_messages(queue) == []
        strict_account.clock.advance(60.0)
        assert len(sqs.receive_messages(queue)) == 1

    def test_receipt_handle_survives_the_change(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        message = sqs.receive_messages(queue)[0]
        sqs.change_visibility(queue, message.receipt_handle, 60.0)
        # The retiring daemon's other path: the handle still deletes.
        sqs.delete_message(queue, message.receipt_handle)
        strict_account.clock.advance(100.0)
        assert sqs.pending_count(queue) == 0

    def test_stale_receipt_is_noop(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        sqs.receive_messages(queue, visibility_timeout=30.0)
        sqs.change_visibility(queue, "bogus#r1", 0.0)
        assert sqs.receive_messages(queue) == []

    def test_negative_timeout_rejected(self, strict_account, queue):
        with pytest.raises(InvalidRequestError):
            strict_account.sqs.change_visibility_request(queue, "r", -1.0)

    def test_change_is_billed(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        message = sqs.receive_messages(queue)[0]
        ops_before = strict_account.billing.operation_count()
        sqs.change_visibility(queue, message.receipt_handle, 0.0)
        assert strict_account.billing.operation_count() == ops_before + 1

    def test_expired_lease_handback_does_not_clobber_next_consumer(
        self, strict_account, queue
    ):
        """Regression: consumer A's lease lapses, consumer B re-receives
        the message, then A's retiring ChangeVisibility(0) arrives with
        the stale handle.  B's live lease must survive."""
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        a = sqs.receive_messages(queue, visibility_timeout=10.0)[0]
        strict_account.clock.advance(20.0)  # A's lease expires
        b = sqs.receive_messages(queue, visibility_timeout=300.0)[0]
        assert b.receipt_handle != a.receipt_handle
        sqs.change_visibility(queue, a.receipt_handle, 0.0)  # late handback
        # B still holds the message: nothing is available.
        assert sqs.receive_messages(queue) == []
        # B's handle still deletes it.
        sqs.delete_message(queue, b.receipt_handle)
        assert sqs.pending_count(queue) == 0

    def test_expired_lease_change_cannot_rehide_the_message(
        self, strict_account, queue
    ):
        """Regression: once the lease has lapsed the message belongs to
        the queue again; a late ChangeVisibility(60) with the old handle
        must not hide it from the next consumer (but still bills)."""
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        stale = sqs.receive_messages(queue, visibility_timeout=10.0)[0]
        strict_account.clock.advance(20.0)  # lease expires, nobody re-received
        ops_before = strict_account.billing.operation_count()
        sqs.change_visibility(queue, stale.receipt_handle, 60.0)
        assert strict_account.billing.operation_count() == ops_before + 1
        # No clock advance: the message must be immediately receivable.
        assert [m.body for m in sqs.receive_messages(queue)] == ["m"]

    def test_timeout_zero_on_expired_lease_is_noop(self, strict_account, queue):
        """The ISSUE's exact edge: ChangeMessageVisibility(timeout=0) on
        an already-expired lease changes nothing — the message is
        available before and after, under the queue's own ownership."""
        sqs = strict_account.sqs
        sqs.send_message(queue, "m")
        stale = sqs.receive_messages(queue, visibility_timeout=5.0)[0]
        strict_account.clock.advance(10.0)
        before = sqs.pending_count(queue)
        sqs.change_visibility(queue, stale.receipt_handle, 0.0)
        assert sqs.pending_count(queue) == before
        redelivered = sqs.receive_messages(queue)
        assert [m.message_id for m in redelivered] == [stale.message_id]
        assert redelivered[0].receipt_handle != stale.receipt_handle


class TestRetention:
    def test_messages_expire_after_four_days(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "old")
        strict_account.clock.advance(RETENTION_SECONDS + 1)
        assert sqs.receive_messages(queue) == []
        assert sqs.pending_count(queue, now=strict_account.now) == 0

    def test_messages_survive_before_retention(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.send_message(queue, "young")
        strict_account.clock.advance(RETENTION_SECONDS / 2)
        assert len(sqs.receive_messages(queue)) == 1


class TestDuplicateDelivery:
    def test_duplicates_can_be_injected(self, strict_account, queue):
        sqs = strict_account.sqs
        sqs.duplicate_delivery_rate = 1.0
        sqs.send_message(queue, "m")
        messages = sqs.receive_messages(queue)
        assert len(messages) == 2
        assert messages[0].message_id == messages[1].message_id

    def test_all_messages_eventually_delivered(self, strict_account, queue):
        """A consume-and-delete loop drains every message exactly the way
        the commit daemon does."""
        sqs = strict_account.sqs
        sent = {f"m{i}" for i in range(37)}
        for body in sorted(sent):
            sqs.send_message(queue, body)
        received = set()
        for _ in range(40):
            messages = sqs.receive_messages(queue, visibility_timeout=5.0)
            for message in messages:
                received.add(message.body)
                sqs.delete_message(queue, message.receipt_handle)
            if not messages:
                break
        assert received == sent


class TestBookkeeping:
    """The queue keeps only what is still in it."""

    def test_deleted_messages_and_their_handles_are_dropped(
        self, strict_account, queue
    ):
        sqs = strict_account.sqs
        stored = sqs._queue(queue)
        for cycle in range(2000):
            sqs.send_message(queue, f"m{cycle}")
            if cycle % 3 == 0:
                # A redelivery: the first handle goes stale, and must go
                # with the message all the same.
                sqs.receive_messages(queue, visibility_timeout=0.0)
            (message,) = sqs.receive_messages(queue)
            sqs.delete_message(queue, message.receipt_handle)
        assert len(stored.messages) == 0
        assert stored.receipts == {}
        assert sqs.pending_count(queue) == 0

    def test_expired_messages_and_their_handles_are_dropped(
        self, strict_account, queue
    ):
        sqs = strict_account.sqs
        sqs.send_message(queue, "old")
        sqs.receive_messages(queue)
        strict_account.clock.advance(RETENTION_SECONDS + 1)
        assert sqs.receive_messages(queue) == []
        stored = sqs._queue(queue)
        assert len(stored.messages) == 0
        assert stored.receipts == {}
