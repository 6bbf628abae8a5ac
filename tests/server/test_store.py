"""The server store writes through its session's one commit path."""

from __future__ import annotations

from repro.server.store import ServerStore


def _rows(state):
    return sorted(tuple(t.values) for t in state.tuples)


def test_session_and_store_writes_share_transaction_numbers():
    store = ServerStore()
    store.execute("define_relation(r, rollback)")
    store.session.execute("modify_state(r, state (k: integer) { (5) })")
    assert store.transaction_number == 2
    # a store write after a session write must not reuse txn 2 (C4)
    assert store.execute("modify_state(r, state (k: integer) { (7) })") == 3
    assert _rows(store.session.query("rollback(r, 2)")) == [(5,)]
    assert _rows(store.session.query("rollback(r, 3)")) == [(7,)]
    assert "5" in store.view().query("rollback(r, 2)")
