"""Tests for the transaction manager: snapshot reads, optimistic
validation, atomic commit, monotone commit timestamps."""

import pytest

from repro.errors import ConcurrencyError
from repro.concurrency.manager import TransactionManager
from repro.concurrency.transactions import Transaction, TransactionStatus
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.core.txn import NOW
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

KV = Schema([Attribute("k", INTEGER)])


def kv(*keys):
    return SnapshotState(KV, [[k] for k in keys])


def append(identifier, key):
    return ModifyState(
        identifier, Union(Rollback(identifier), Const(kv(key)))
    )


@pytest.fixture
def manager():
    m = TransactionManager()
    t = m.begin()
    t.stage(DefineRelation("r", "rollback"))
    t.stage(ModifyState("r", Const(kv(0))))
    m.commit(t)
    return m


class TestBasicLifecycle:
    def test_commit_applies_atomically(self, manager):
        t = manager.begin()
        t.stage(append("r", 1))
        t.stage(append("r", 2))
        db = manager.commit(t)
        assert Rollback("r", NOW).evaluate(db) == kv(0, 1, 2)
        assert t.status is TransactionStatus.COMMITTED

    def test_commit_timestamps_monotone(self, manager):
        stamps = []
        for key in range(1, 4):
            t = manager.begin()
            t.stage(append("r", key))
            manager.commit(t)
            stamps.append(t.commit_txn)
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_nothing_visible_before_commit(self, manager):
        before = manager.database
        t = manager.begin()
        t.stage(append("r", 99))
        assert manager.database == before
        manager.abort(t)
        assert manager.database == before

    def test_abort_then_use_rejected(self, manager):
        t = manager.begin()
        manager.abort(t)
        with pytest.raises(ConcurrencyError):
            t.stage(append("r", 1))
        with pytest.raises(ConcurrencyError):
            manager.commit(t)

    def test_double_commit_rejected(self, manager):
        t = manager.begin()
        t.stage(append("r", 1))
        manager.commit(t)
        with pytest.raises(ConcurrencyError):
            manager.commit(t)

    def test_empty_transaction_commits(self, manager):
        before = manager.database
        t = manager.begin()
        manager.commit(t)
        assert manager.database == before


class TestSnapshotReads:
    def test_read_sees_begin_snapshot(self, manager):
        reader = manager.begin()
        writer = manager.begin()
        writer.stage(append("r", 42))
        manager.commit(writer)
        # the reader still sees the database as of its begin
        assert reader.read(Rollback("r", NOW)) == kv(0)

    def test_read_records_read_set(self, manager):
        t = manager.begin()
        t.read(Rollback("r", NOW))
        assert "r" in t.read_set

    def test_staged_expressions_count_as_reads(self, manager):
        t = manager.begin()
        t.stage(append("r", 1))  # expression contains ρ(r, now)
        assert "r" in t.read_set
        assert "r" in t.write_set


class TestValidation:
    def test_read_write_conflict_aborts(self, manager):
        reader_writer = manager.begin()
        reader_writer.read(Rollback("r", NOW))
        reader_writer.stage(DefineRelation("other", "rollback"))

        interferer = manager.begin()
        interferer.stage(append("r", 7))
        manager.commit(interferer)

        with pytest.raises(ConcurrencyError, match="aborted"):
            manager.commit(reader_writer)
        assert reader_writer.status is TransactionStatus.ABORTED
        assert manager.abort_count == 1

    def test_disjoint_relations_do_not_conflict(self, manager):
        t1 = manager.begin()
        t1.stage(DefineRelation("a", "rollback"))
        t1.stage(ModifyState("a", Const(kv(1))))

        t2 = manager.begin()
        t2.stage(DefineRelation("b", "rollback"))
        t2.stage(ModifyState("b", Const(kv(2))))

        manager.commit(t1)
        manager.commit(t2)  # no conflict: t2 never read or wrote 'a'
        assert manager.commit_count == 3  # setup + two

    def test_blind_write_after_concurrent_write_is_allowed(self, manager):
        # t reads nothing; a concurrent writer touching the same relation
        # does not invalidate it (no stale read exists).
        t = manager.begin()
        t.stage(ModifyState("r", Const(kv(5))))
        # constant expression: no rollback leaf, empty read set? The
        # staged ModifyState reads nothing, so the write is blind.
        assert t.read_set == frozenset()

        interferer = manager.begin()
        interferer.stage(append("r", 7))
        manager.commit(interferer)

        db = manager.commit(t)
        assert Rollback("r", NOW).evaluate(db) == kv(5)

    def test_run_retries_until_success(self, manager):
        calls = []

        def body(t: Transaction) -> None:
            calls.append(1)
            t.read(Rollback("r", NOW))
            t.stage(append("r", 10 + len(calls)))
            if len(calls) == 1:
                # interfere mid-transaction on the first attempt
                other = manager.begin()
                other.stage(append("r", 99))
                manager.commit(other)

        manager.run(body)
        assert len(calls) == 2  # first attempt aborted, second committed
        assert manager.abort_count == 1

    def test_run_gives_up_after_retries(self, manager):
        def body(t: Transaction) -> None:
            t.read(Rollback("r", NOW))
            t.stage(append("r", 1))
            other = manager.begin()
            other.stage(append("r", 99))
            manager.commit(other)

        with pytest.raises(ConcurrencyError, match="retries"):
            manager.run(body, retries=2)

    def test_run_aborts_transaction_when_body_raises(self, manager):
        # Regression: a raising body used to leak the transaction in
        # ACTIVE status — never aborted, never counted.
        seen = []

        def body(t: Transaction) -> None:
            seen.append(t)
            t.read(Rollback("r", NOW))
            raise RuntimeError("boom")

        before = manager.database
        with pytest.raises(RuntimeError, match="boom"):
            manager.run(body)
        assert len(seen) == 1  # a body error is not retried
        assert seen[0].status is TransactionStatus.ABORTED
        assert manager.abort_count == 1
        assert manager.database is before  # nothing applied

    def test_run_aborts_on_keyboard_interrupt(self, manager):
        def body(t: Transaction) -> None:
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            manager.run(body)
        assert manager.abort_count == 1

    def test_apply_failure_aborts_instead_of_leaking(self, manager):
        # Regression: a command that staged fine but *failed at apply
        # time* (its expression reads an unbound relation) used to
        # escape commit() with the transaction still ACTIVE — pinning
        # the validation log horizon forever.
        from repro.errors import UnknownRelationError

        before = manager.database

        def body(t: Transaction) -> None:
            t.stage(ModifyState("r", Rollback("missing", NOW)))

        with pytest.raises(UnknownRelationError):
            manager.run(body)
        assert manager.outstanding_count == 0
        assert manager.abort_count == 1
        assert manager.database is before

    def test_direct_commit_apply_failure_aborts(self, manager):
        from repro.errors import UnknownRelationError

        t = manager.begin()
        t.stage(ModifyState("r", Rollback("missing", NOW)))
        with pytest.raises(UnknownRelationError):
            manager.commit(t)
        assert t.status is TransactionStatus.ABORTED
        assert manager.outstanding_count == 0


class TestValidationLogPruning:
    """Backward validation keeps no per-commit log that could grow
    without bound, yet still refuses every stale read: a commit stays
    visible to the check while some outstanding transaction began at or
    before its commit timestamp."""

    def test_log_empties_with_no_outstanding_txns(self, manager):
        for key in range(1, 20):
            t = manager.begin()
            t.stage(append("r", key))
            manager.commit(t)
        assert manager.outstanding_count == 0
        assert manager.validation_log_size == 0

    def test_outstanding_reader_pins_the_log(self, manager):
        reader = manager.begin()
        reader.read(Rollback("r"))
        for key in range(1, 6):
            t = manager.begin()
            t.stage(append("r", key))
            manager.commit(t)
        # every commit since the reader began must stay validatable
        with pytest.raises(ConcurrencyError):
            manager.commit(reader)
        manager.abort(reader)
        assert manager.validation_log_size == 0

    def test_log_pruned_after_reader_finishes(self, manager):
        reader = manager.begin()
        reader.read(Rollback("r"))
        for key in range(1, 4):
            t = manager.begin()
            t.stage(append("r", key))
            manager.commit(t)
        with pytest.raises(ConcurrencyError):
            manager.commit(reader)
        manager.abort(reader)
        t = manager.begin()
        t.stage(append("r", 99))
        manager.commit(t)
        assert manager.validation_log_size == 0

    def test_conflict_detection_survives_pruning(self, manager):
        """Pruning must never drop an entry a live transaction could
        conflict with."""
        for key in range(1, 10):
            t = manager.begin()
            t.stage(append("r", key))
            manager.commit(t)
        stale = manager.begin()
        stale.read(Rollback("r"))
        stale.stage(append("r", 100))
        winner = manager.begin()
        winner.stage(append("r", 200))
        manager.commit(winner)
        with pytest.raises(ConcurrencyError):
            manager.commit(stale)

    def test_commit_prunes_its_own_entry_horizon(self, manager):
        a = manager.begin()
        a.stage(append("r", 1))
        b = manager.begin()
        b.read(Rollback("r"))
        manager.commit(a)
        with pytest.raises(ConcurrencyError):
            manager.commit(b)  # b read r, a wrote it: backward validation
        assert manager.conflict_count == 1
        assert manager.outstanding_count == 0
        assert manager.validation_log_size == 0


class TestNoOpCommitPruning:
    """Regression: a commit whose every command no-ops (paper semantics:
    modify_state on an unbound relation) used to append a validation
    entry stamped with the *current* transaction number, which the
    ``< horizon`` prune could never drop — one stuck entry per no-op
    commit, forever."""

    def test_noop_commit_leaves_no_log_entry(self, manager):
        t = manager.begin()
        t.stage(ModifyState("unbound", Const(kv(1))))  # silent no-op
        before = manager.database.transaction_number
        manager.commit(t)
        assert t.status is TransactionStatus.COMMITTED
        assert manager.database.transaction_number == before
        assert manager.validation_log_size == 0

    def test_noop_commits_never_accumulate(self, manager):
        # the original leak: N no-op commits retained N entries
        for _ in range(10):
            t = manager.begin()
            t.stage(ModifyState("unbound", Const(kv(1))))
            manager.commit(t)
        assert manager.validation_log_size == 0
        assert manager.outstanding_count == 0

    def test_empty_write_set_commit_leaves_no_log_entry(self, manager):
        t = manager.begin()
        t.read(Rollback("r"))
        manager.commit(t)
        assert manager.validation_log_size == 0

    def test_noop_write_does_not_invalidate_readers(self, manager):
        # the dropped entry must be safe to drop: a no-op writer cannot
        # have changed anything a concurrent reader observed
        reader = manager.begin()
        reader.read(Rollback("r"))
        noop = manager.begin()
        noop.stage(ModifyState("unbound", Const(kv(1))))
        manager.commit(noop)
        reader.stage(append("r", 7))
        manager.commit(reader)  # must not abort
        assert manager.abort_count == 0


class TestAbortDuringApplyPruning:
    """Regression: a transaction that aborts at *apply* time (strict
    command failure) must release its hold on the validation horizon so
    entries pinned on its behalf are pruned immediately."""

    def test_apply_abort_prunes_pinned_entries(self, manager):
        from repro.errors import CommandError

        pinner = manager.begin()  # outstanding begin pins the horizon
        reader = manager.begin()
        reader.read(Rollback("r"))
        writer = manager.begin()
        writer.stage(append("r", 1))
        manager.commit(writer)
        with pytest.raises(ConcurrencyError):
            manager.commit(reader)  # read r before the writer committed
        pinner.stage(ModifyState("missing", Const(kv(1)), strict=True))
        with pytest.raises(CommandError):
            manager.commit(pinner)
        assert pinner.status is TransactionStatus.ABORTED
        assert manager.outstanding_count == 0
        assert manager.validation_log_size == 0
