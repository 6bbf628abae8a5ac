"""The ``Session(isolation=...)`` knob: serial (default), si, ssi.

A plain session can host multi-writer MVCC transactions; the language
surface (``execute``/``query``) and the transactional surface
(``begin``/``commit``/``run``) share one authoritative database value.
"""

from __future__ import annotations

import pytest

from repro.concurrency import TransactionManager
from repro.core.commands import ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.errors import ConcurrencyError
from repro.lang.session import Session
from repro.server.store import ServerStore
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

V = Schema(["v"])


def vs(*values):
    return SnapshotState(V, [(v,) for v in values])


def append(identifier, value):
    return ModifyState(
        identifier, Union(Rollback(identifier), Const(vs(value)))
    )


class TestConstruction:
    def test_default_is_serial(self):
        assert Session().isolation == "serial"

    @pytest.mark.parametrize("level", ["si", "ssi"])
    def test_levels_accepted(self, level):
        assert Session(isolation=level).isolation == level

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="isolation"):
            Session(isolation="read-committed")

    def test_mvcc_requires_plain_session(self, tmp_path):
        with pytest.raises(ValueError, match="serialize writes"):
            Session(durable_dir=str(tmp_path), isolation="si")
        with pytest.raises(ValueError, match="serialize writes"):
            Session(shards=2, isolation="ssi")

    def test_manager_types(self):
        assert Session(isolation="si").transaction_manager.isolation == "si"
        assert isinstance(
            Session().transaction_manager, TransactionManager
        )

    def test_durable_session_has_no_manager(self, tmp_path):
        session = Session(durable_dir=str(tmp_path))
        with pytest.raises(ConcurrencyError, match="commit path"):
            session.transaction_manager
        session.close()


class TestExplicitTransactions:
    @pytest.mark.parametrize("level", ["serial", "si", "ssi"])
    def test_begin_commit_moves_the_session(self, level):
        from repro.core.commands import DefineRelation

        session = Session(isolation=level)
        t = session.begin()
        t.stage(DefineRelation("r", "rollback"))
        t.stage(ModifyState("r", Const(vs("a"))))
        session.commit(t)
        assert session.query("rollback(r, now)") == vs("a")
        assert (
            session.transaction_number
            == session.database.transaction_number
        )

    def test_abort_leaves_database_unchanged(self):
        session = Session(isolation="si")
        session.execute("define_relation(r, rollback)")
        before = session.database
        t = session.begin()
        t.stage(append("r", "x"))
        session.abort(t)
        assert session.database is before

    def test_first_committer_wins_surfaces(self):
        session = Session(isolation="si")
        session.execute("define_relation(r, rollback)")
        first = session.begin()
        second = session.begin()
        first.stage(append("r", "one"))
        second.stage(append("r", "two"))
        session.commit(first)
        with pytest.raises(ConcurrencyError, match="first-committer"):
            session.commit(second)
        assert session.query("rollback(r, now)") == vs("one")

    def test_ssi_aborts_write_skew(self):
        session = Session(isolation="ssi")
        session.execute("define_relation(a, rollback)")
        session.execute("define_relation(b, rollback)")
        t0 = session.begin()
        t0.read(Rollback("b"))
        t0.stage(append("a", "t0"))
        session.commit(t0)
        t1 = session.begin()
        t1.read(Rollback("a"))
        t1.stage(append("b", "t1"))
        session.commit(t1)  # sequential: fine
        # now genuinely concurrent skew
        t2 = session.begin()
        t3 = session.begin()
        t2.read(Rollback("b"))
        t2.stage(append("a", "t2"))
        session.commit(t2)
        t3.read(Rollback("a"))
        t3.stage(append("b", "t3"))
        with pytest.raises(ConcurrencyError, match="ssi"):
            session.commit(t3)

    def test_run_retries_through_conflicts(self):
        session = Session(isolation="si")
        session.execute("define_relation(r, rollback)")
        rigged = {"done": False}

        def body(transaction):
            if not rigged["done"]:
                rigged["done"] = True
                rival = session.begin()
                rival.stage(append("r", "rival"))
                session.commit(rival)
            transaction.read(Rollback("r"))
            transaction.stage(append("r", "mine"))

        session.run(body)
        assert session.query("rollback(r, now)") == vs("rival", "mine")


class TestAutocommitRouting:
    @pytest.mark.parametrize("level", ["si", "ssi"])
    def test_execute_routes_through_the_manager(self, level):
        session = Session(isolation=level)
        session.execute("define_relation(r, rollback)")
        session.execute(
            "modify_state(r, state (v: string) { (\"a\") })"
        )
        manager = session.transaction_manager
        assert manager.commit_count == 2
        assert session.database is manager.database

    def test_serial_execute_and_transactions_share_state(self):
        session = Session()
        session.execute("define_relation(r, rollback)")
        t = session.begin()  # lazily creates the serial manager
        t.stage(append("r", "txn"))
        session.commit(t)
        # ...and autocommitted writes keep flowing through it
        session.execute(
            "modify_state(r, rollback(r, now))"
        )
        assert session.database is session.transaction_manager.database


class TestServerStoreIsolation:
    def test_default_serial(self):
        store = ServerStore()
        assert store.isolation == "serial"
        assert isinstance(store.manager, TransactionManager)

    @pytest.mark.parametrize("level", ["si", "ssi"])
    def test_mvcc_write_path(self, level):
        store = ServerStore(isolation=level)
        assert store.isolation == level
        assert isinstance(store.manager, TransactionManager)
        assert store.manager.isolation == level

    def test_mvcc_requires_plain_backing(self, tmp_path):
        with pytest.raises(ValueError, match="serialize writes"):
            ServerStore(durable_dir=str(tmp_path), isolation="si")
        with pytest.raises(ValueError, match="serialize writes"):
            ServerStore(shards=2, isolation="ssi")
