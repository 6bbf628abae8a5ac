"""The si and ssi levels: snapshot reads, first-committer-wins, SSI,
pruning."""

from __future__ import annotations

import random

import pytest

from repro.concurrency import TransactionManager, TransactionStatus
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.core.relation import RelationType
from repro.errors import CommandError, ConcurrencyError


def rows(state):
    return [r[0] for r in state.sorted_rows()]


@pytest.fixture
def manager(make_state):
    """An SI manager with rollback relations A and B installed."""
    m = TransactionManager(isolation="si")
    setup = m.begin()
    for ident in ("A", "B"):
        setup.stage(DefineRelation(ident, RelationType.ROLLBACK))
        setup.stage(ModifyState(ident, Const(make_state(ident.lower()))))
    m.commit(setup)
    return m


class TestLifecycle:
    def test_rejects_unknown_isolation(self):
        with pytest.raises(ConcurrencyError):
            TransactionManager(isolation="serializable")

    def test_commit_empty_transaction(self):
        m = TransactionManager(isolation="si")
        txn = m.begin()
        database = m.commit(txn)
        assert txn.status is TransactionStatus.COMMITTED
        assert database.transaction_number == 0
        assert m.commit_count == 1

    def test_double_commit_rejected(self, manager):
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(ConcurrencyError):
            manager.commit(txn)

    def test_abort_is_idempotent(self, manager):
        txn = manager.begin()
        manager.abort(txn)
        manager.abort(txn)
        assert manager.abort_count == 1
        assert manager.outstanding_count == 0

    def test_snapshot_age_tracks_oldest(self, manager, make_state):
        old = manager.begin()
        assert manager.snapshot_age() == 0
        writer = manager.begin()
        writer.stage(ModifyState("A", Const(make_state("x"))))
        manager.commit(writer)
        assert manager.snapshot_age() == 1
        manager.abort(old)
        assert manager.snapshot_age() == 0

    def test_snapshot_age_is_the_oldest_of_any_finish_order(
        self, manager, test_seed
    ):
        rng = random.Random(test_seed)
        live = []
        for step in range(200):
            if live and rng.random() < 0.5:
                txn = live.pop(rng.randrange(len(live)))
                if rng.random() < 0.5:
                    # a fresh relation: never conflicts, always advances
                    txn.stage(
                        DefineRelation(f"x{step}", RelationType.ROLLBACK)
                    )
                    manager.commit(txn)
                else:
                    manager.abort(txn)
            else:
                live.append(manager.begin())
            oldest = min((t.begin_txn for t in live), default=None)
            expected = (
                0 if oldest is None
                else manager.database.transaction_number - oldest
            )
            assert manager.snapshot_age() == expected


class TestSnapshotReads:
    def test_reads_pin_begin_snapshot(self, manager, make_state):
        reader = manager.begin()
        writer = manager.begin()
        writer.stage(ModifyState("A", Const(make_state("new"))))
        manager.commit(writer)
        assert rows(reader.read(Rollback("A"))) == ["a"]
        # ... and repeatedly: snapshot reads never move
        assert rows(reader.read(Rollback("A"))) == ["a"]

    def test_committed_writes_read_snapshot_values(
        self, manager, make_state
    ):
        # T appends to A; a concurrent commit moves B.  T's expression
        # over A must evaluate against T's snapshot, and T's commit must
        # not disturb the concurrent B write.
        txn = manager.begin()
        txn.stage(
            ModifyState("A", Union(Rollback("A"), Const(make_state("x"))))
        )
        other = manager.begin()
        other.stage(ModifyState("B", Const(make_state("concurrent"))))
        manager.commit(other)
        database = manager.commit(txn)
        assert rows(Rollback("A").evaluate(database)) == ["a", "x"]
        assert rows(Rollback("B").evaluate(database)) == ["concurrent"]

    def test_transaction_reads_its_own_writes(self, manager, make_state):
        txn = manager.begin()
        txn.stage(
            ModifyState("A", Union(Rollback("A"), Const(make_state("x"))))
        )
        txn.stage(
            ModifyState("A", Union(Rollback("A"), Const(make_state("y"))))
        )
        database = manager.commit(txn)
        assert rows(Rollback("A").evaluate(database)) == ["a", "x", "y"]

    def test_version_chain_keeps_both_writers(self, manager, make_state):
        t1 = manager.begin()
        t2 = manager.begin()
        t1.stage(ModifyState("A", Const(make_state("one"))))
        t2.stage(ModifyState("B", Const(make_state("two"))))
        manager.commit(t1)
        database = manager.commit(t2)
        # both committed versions are addressable off the chains
        assert rows(Rollback("A", t1.commit_txn).evaluate(database)) == [
            "one"
        ]
        assert rows(Rollback("B", t2.commit_txn).evaluate(database)) == [
            "two"
        ]

    def test_unbound_modify_is_noop_against_snapshot(
        self, manager, make_state
    ):
        # C is defined by a concurrent transaction; T's snapshot has no
        # C, so T's non-strict modify of C is the paper's no-op.
        txn = manager.begin()
        txn.stage(ModifyState("C", Const(make_state("ghost"))))
        definer = manager.begin()
        definer.stage(DefineRelation("C", RelationType.ROLLBACK))
        definer.stage(ModifyState("C", Const(make_state("real"))))
        manager.commit(definer)
        with pytest.raises(ConcurrencyError):
            # both wrote C: first-committer-wins aborts T
            manager.commit(txn)

    def test_strict_modify_unbound_aborts_at_apply(
        self, manager, make_state
    ):
        txn = manager.begin()
        txn.stage(
            ModifyState("nope", Const(make_state("x")), strict=True)
        )
        with pytest.raises(CommandError):
            manager.commit(txn)
        assert txn.status is TransactionStatus.ABORTED
        assert manager.outstanding_count == 0


class TestFirstCommitterWins:
    def test_overlapping_writes_conflict(self, manager, make_state):
        t1 = manager.begin()
        t2 = manager.begin()
        t1.stage(ModifyState("A", Const(make_state("one"))))
        t2.stage(ModifyState("A", Const(make_state("two"))))
        manager.commit(t1)
        with pytest.raises(ConcurrencyError):
            manager.commit(t2)
        assert t2.status is TransactionStatus.ABORTED
        assert manager.conflict_count == 1

    def test_disjoint_writes_commit(self, manager, make_state):
        t1 = manager.begin()
        t2 = manager.begin()
        t1.stage(ModifyState("A", Const(make_state("one"))))
        t2.stage(ModifyState("B", Const(make_state("two"))))
        manager.commit(t1)
        manager.commit(t2)
        assert manager.conflict_count == 0

    def test_read_only_transactions_never_abort(
        self, manager, make_state
    ):
        reader = manager.begin()
        reader.read(Rollback("A"))
        reader.read(Rollback("B"))
        for _ in range(3):
            writer = manager.begin()
            writer.stage(ModifyState("A", Const(make_state("w"))))
            manager.commit(writer)
        manager.commit(reader)  # must not raise

    def test_sequential_writers_never_conflict(self, manager, make_state):
        for i in range(5):
            txn = manager.begin()
            txn.stage(ModifyState("A", Const(make_state(f"v{i}"))))
            manager.commit(txn)
        assert manager.conflict_count == 0

    def test_write_skew_admitted_under_si(self, manager, make_state):
        t1 = manager.begin()
        t2 = manager.begin()
        t1.read(Rollback("A"))
        t1.read(Rollback("B"))
        t2.read(Rollback("A"))
        t2.read(Rollback("B"))
        t1.stage(ModifyState("A", Const(make_state("skew"))))
        manager.commit(t1)
        t2.stage(ModifyState("B", Const(make_state("skew"))))
        manager.commit(t2)  # SI: disjoint writes, both commit
        assert manager.conflict_count == 0

    def test_mutation_knob_admits_lost_update(self, make_state):
        # the knob exists solely for the checker's mutation test
        m = TransactionManager(isolation="si", first_committer_wins=False)
        setup = m.begin()
        setup.stage(DefineRelation("A", RelationType.ROLLBACK))
        setup.stage(ModifyState("A", Const(make_state("a"))))
        m.commit(setup)
        t1 = m.begin()
        t2 = m.begin()
        t1.stage(
            ModifyState("A", Union(Rollback("A"), Const(make_state("x"))))
        )
        t2.stage(
            ModifyState("A", Union(Rollback("A"), Const(make_state("y"))))
        )
        m.commit(t1)
        database = m.commit(t2)
        # t2 overwrote t1's append from its stale snapshot: lost update
        assert rows(Rollback("A").evaluate(database)) == ["a", "y"]

    def test_run_retries_through_conflicts(self, manager, make_state):
        # two interleaved run() bodies appending to the same relation:
        # the second attempt re-reads the moved snapshot and succeeds
        first = manager.begin()
        first.stage(
            ModifyState("A", Union(Rollback("A"), Const(make_state("x"))))
        )

        def body(txn):
            seen = rows(txn.read(Rollback("A")))
            txn.stage(
                ModifyState(
                    "A",
                    Union(
                        Rollback("A"),
                        Const(make_state(f"after-{len(seen)}")),
                    ),
                )
            )
            if first.status is TransactionStatus.ACTIVE:
                manager.commit(first)

        database = manager.run(body)
        assert "after-2" in rows(Rollback("A").evaluate(database))
        assert manager.conflict_count == 1

    def test_run_raising_body_aborts(self, manager):
        with pytest.raises(RuntimeError):
            manager.run(lambda txn: (_ for _ in ()).throw(RuntimeError()))
        assert manager.outstanding_count == 0


class TestSSI:
    @pytest.fixture
    def ssi(self, make_state):
        m = TransactionManager(isolation="ssi")
        setup = m.begin()
        for ident in ("A", "B"):
            setup.stage(DefineRelation(ident, RelationType.ROLLBACK))
            setup.stage(
                ModifyState(ident, Const(make_state(ident.lower())))
            )
        m.commit(setup)
        return m

    def test_write_skew_aborted(self, ssi, make_state):
        t1 = ssi.begin()
        t2 = ssi.begin()
        t1.read(Rollback("A"))
        t1.read(Rollback("B"))
        t2.read(Rollback("A"))
        t2.read(Rollback("B"))
        t1.stage(ModifyState("A", Const(make_state("skew"))))
        ssi.commit(t1)
        t2.stage(ModifyState("B", Const(make_state("skew"))))
        with pytest.raises(ConcurrencyError, match="ssi"):
            ssi.commit(t2)
        assert ssi.ssi_abort_count == 1

    def test_disjoint_read_write_pairs_commit(self, ssi, make_state):
        t1 = ssi.begin()
        t2 = ssi.begin()
        t1.read(Rollback("A"))
        t1.stage(ModifyState("A", Const(make_state("one"))))
        t2.read(Rollback("B"))
        t2.stage(ModifyState("B", Const(make_state("two"))))
        ssi.commit(t1)
        ssi.commit(t2)
        assert ssi.ssi_abort_count == 0

    def test_read_only_concurrent_with_writer_commits(
        self, ssi, make_state
    ):
        reader = ssi.begin()
        reader.read(Rollback("A"))
        writer = ssi.begin()
        writer.stage(ModifyState("B", Const(make_state("w"))))
        ssi.commit(writer)
        ssi.commit(reader)
        assert ssi.ssi_abort_count == 0

    def test_ssi_log_drains_when_idle(self, ssi, make_state):
        for i in range(4):
            t1 = ssi.begin()
            t1.read(Rollback("A"))
            t1.stage(ModifyState("A", Const(make_state(f"v{i}"))))
            ssi.commit(t1)
        assert ssi.outstanding_count == 0
        assert ssi.validation_log_size == 0

    def test_run_retries_through_ssi_abort(self, ssi, make_state):
        def body(txn):
            txn.read(Rollback("A"))
            txn.read(Rollback("B"))
            if not hasattr(body, "fired"):
                # a rival commits the other half of the skew before this
                # transaction stages its write: the rival passes (only
                # an incoming rw edge), this transaction aborts at its
                # commit for closing the structure, and the retry —
                # which begins after the rival — commits cleanly
                body.fired = True
                rival = ssi.begin()
                rival.read(Rollback("B"))
                rival.stage(ModifyState("A", Const(make_state("rival"))))
                ssi.commit(rival)
            txn.stage(ModifyState("B", Const(make_state("mine"))))

        database = ssi.run(body)
        assert rows(Rollback("B").evaluate(database)) == ["mine"]
        assert ssi.ssi_abort_count >= 1


class TestPruning:
    def test_outstanding_returns_to_zero(self, manager, make_state):
        rng = random.Random(7)
        live = []
        for step in range(60):
            if live and rng.random() < 0.5:
                txn = live.pop(rng.randrange(len(live)))
                if rng.random() < 0.3:
                    manager.abort(txn)
                else:
                    try:
                        manager.commit(txn)
                    except ConcurrencyError:
                        pass
            else:
                txn = manager.begin()
                rel = rng.choice(("A", "B"))
                txn.stage(
                    ModifyState(rel, Const(make_state(f"s{step}")))
                )
                live.append(txn)
        for txn in live:
            manager.abort(txn)
        assert manager.outstanding_count == 0
        assert manager.validation_log_size == 0

    def test_abort_during_apply_prunes(self, manager, make_state):
        # the aborting transaction is the oldest snapshot in an SSI
        # manager: its abort must release the retained commit records
        ssi = TransactionManager(isolation="ssi")
        setup = ssi.begin()
        setup.stage(DefineRelation("A", RelationType.ROLLBACK))
        setup.stage(ModifyState("A", Const(make_state("a"))))
        ssi.commit(setup)
        setup2 = ssi.begin()
        setup2.stage(DefineRelation("B", RelationType.ROLLBACK))
        setup2.stage(ModifyState("B", Const(make_state("b"))))
        ssi.commit(setup2)
        pinner = ssi.begin()
        pinner.read(Rollback("B"))
        writer = ssi.begin()
        writer.stage(ModifyState("A", Const(make_state("w"))))
        ssi.commit(writer)
        assert ssi.validation_log_size == 1  # retained for pinner
        pinner.stage(
            ModifyState("missing", Const(make_state("x")), strict=True)
        )
        with pytest.raises(CommandError):
            ssi.commit(pinner)
        assert pinner.status is TransactionStatus.ABORTED
        assert ssi.outstanding_count == 0
        assert ssi.validation_log_size == 0


class TestMetrics:
    def test_counters_under_enabled_registry(self, manager, make_state):
        from repro.obsv import registry as obsv

        obsv.enable()
        try:
            t1 = manager.begin()
            t2 = manager.begin()
            t1.stage(ModifyState("A", Const(make_state("one"))))
            t2.stage(ModifyState("A", Const(make_state("two"))))
            manager.commit(t1)
            with pytest.raises(ConcurrencyError):
                manager.commit(t2)
            counters = obsv.get().snapshot()["counters"]
            assert counters["concurrency.mvcc.begins"] == 2
            assert counters["concurrency.mvcc.commits"] == 1
            assert counters["concurrency.mvcc.aborts"] == 1
            assert counters["concurrency.mvcc.conflicts"] == 1
        finally:
            obsv.disable()
