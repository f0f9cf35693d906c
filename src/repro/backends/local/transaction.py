"""One sqlite transaction per request the local backend applies.

The connections run in autocommit (``isolation_level=None``), so without
this every statement would be its own journalled transaction: a
25-item ``BatchPutAttributes`` would pay 25 journal syncs, and a kill
part-way through would leave part of the request on disk.  Wrapping a
:class:`~repro.cloud.network.Request`'s ``apply`` in one explicit
``BEGIN … COMMIT`` makes the request all or nothing on disk: a raise
rolls it back, and a process killed mid-apply leaves a hot rollback
journal that the next open of the database undoes.  sqlite rolls back
by itself on some errors (a full disk, an I/O error, out of memory), so
the wrapper rolls back only a transaction that is still open, and the
request fails with sqlite's own error.
"""

from __future__ import annotations

import sqlite3

from repro.cloud.network import Request


def atomic(conn: sqlite3.Connection, request: Request) -> Request:
    """``request``, with its ``apply`` run as one transaction on ``conn``."""
    apply = request.apply

    def apply_in_transaction(start: float, finish: float):
        conn.execute("BEGIN")
        try:
            result = apply(start, finish)
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        return result

    request.apply = apply_in_transaction
    return request
