"""A reopened local root should answer as if it had never closed.

It does not yet (ROADMAP item 2): a reopened account's virtual clock
starts at 0 while the stored rows and messages keep the old clock's
stamps.  Each probe runs twice: kept open, it passes; reopened, it is a
strict xfail that fails on its answer, so a fix that makes one pass
fails tier-1 until its marker goes.
"""

import pytest

from repro.cloud.account import CloudAccount


def _open(root) -> CloudAccount:
    return CloudAccount(seed=0, backend="local", backend_root=str(root))


def _item(account, name):
    return account.simpledb.select(f"select * from d where itemName() = '{name}'")


_ITEM_2 = "ROADMAP item 2: a reopened local root restarts its clock at 0"


def _stored(root):
    """A store holding ``a = {v: 1}`` (put at t ≈ 300 and settled) and
    one queued message ``m1`` (sent at t ≈ 360)."""
    account = _open(root)
    account.simpledb.create_domain("d")
    url = account.sqs.create_queue("wal")
    account.settle(300.0)
    account.simpledb.put_attributes("d", "a", [("v", "1")])
    account.settle(60.0)
    account.sqs.send_message(url, "m1")
    return account, url


def _maybe_reopen(request, account, root):
    """``account`` as it is for ``kept-open``; closed and opened again
    for ``reopened``, whose probes are strict xfails."""
    if request.param == "reopened":
        request.applymarker(
            pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_2)
        )
        account.close()
        account = _open(root)
    return account


@pytest.fixture(params=["kept-open", "reopened"])
def store(request, tmp_path):
    account, url = _stored(tmp_path)
    account = _maybe_reopen(request, account, tmp_path)
    yield account, url
    account.close()


@pytest.fixture(params=["kept-open", "reopened"])
def leased(request, tmp_path):
    """``store`` whose message was received, and so leased for the
    default 30 s visibility timeout, before the close."""
    account, url = _stored(tmp_path)
    assert [m.body for m in account.sqs.receive_messages(url)] == ["m1"]
    account = _maybe_reopen(request, account, tmp_path)
    yield account, url
    account.close()


def test_replace_after_reopen_wins(store):
    account, _ = store
    account.simpledb.put_attributes("d", "a", [("v", "2")], replace=True)
    account.settle(1000.0)
    assert _item(account, "a") == [("a", {"v": ["2"]})]  # reads v: 1


@pytest.mark.parametrize("settle", [60.0, 1000.0], ids=["60s", "1000s"])
def test_merge_after_reopen_keeps_earlier_values(store, settle):
    """Reopened, the answer changes with time: the new row wins at 60 s,
    and the old row, whose stamp the new clock passes, wins at 1 000 s
    (the read orders rows by ``committed_at DESC, seq DESC``)."""
    account, _ = store
    account.simpledb.put_attributes("d", "a", [("v", "2")])
    account.settle(settle)
    # Reopened, reads [2] at 60 s and [1] at 1 000 s.
    assert _item(account, "a") == [("a", {"v": ["1", "2"]})]


def test_settled_row_stays_visible_after_reopen(store):
    account, _ = store
    assert _item(account, "a") == [("a", {"v": ["1"]})]  # reads []


def test_queued_message_delivered_on_first_receive_after_reopen(store):
    account, url = store
    received = account.sqs.receive_messages(url)
    assert [message.body for message in received] == ["m1"]  # reads []


def test_leased_message_redelivered_after_its_lease_expires(leased):
    account, url = leased
    account.settle(60.0)
    received = account.sqs.receive_messages(url)
    assert [message.body for message in received] == ["m1"]  # reads []
