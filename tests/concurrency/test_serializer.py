"""Tests for the interleaved scheduler: the committed database always
equals the serial execution of the committed transactions in commit order
(the paper's sequential-semantics requirement, experiment E10)."""

import pytest

from repro.concurrency.serializer import (
    ClientScript,
    InterleavedScheduler,
    serial_execution,
)
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.core.txn import NOW
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

KV = Schema([Attribute("k", INTEGER)])


def kv(*keys):
    return SnapshotState(KV, [[k] for k in keys])


def appender(identifier, key):
    def body(t):
        t.stage(DefineRelation(identifier, "rollback"))
        t.stage(
            ModifyState(
                identifier,
                Union(Rollback(identifier), Const(kv(key))),
            )
        )

    return body


def make_clients(n_clients, txns_each, shared_fraction=0.5):
    clients = []
    for ci in range(n_clients):
        bodies = []
        for bi in range(txns_each):
            # some clients write a shared relation, others private ones
            if (ci + bi) % 2 == 0 and shared_fraction > 0:
                identifier = "shared"
            else:
                identifier = f"private_{ci}"
            bodies.append(appender(identifier, ci * 100 + bi))
        clients.append(ClientScript(f"c{ci}", bodies))
    return clients


class TestSerializability:
    @pytest.mark.parametrize("seed", range(6))
    def test_final_db_equals_serial_replay(self, seed):
        scheduler = InterleavedScheduler(
            make_clients(3, 4), seed=seed, overlap=0.6
        )
        final = scheduler.run()
        replay = serial_execution(scheduler.committed_scripts)
        assert final == replay

    @pytest.mark.parametrize("seed", range(4))
    def test_all_transactions_eventually_commit(self, seed):
        clients = make_clients(3, 3)
        scheduler = InterleavedScheduler(clients, seed=seed, overlap=0.7)
        scheduler.run()
        expected = sum(len(c.bodies) for c in clients)
        assert len(scheduler.committed_scripts) == expected

    def test_shared_relation_collects_all_writes(self):
        # every client appends to the same relation; retries must not
        # lose updates
        clients = [
            ClientScript(
                f"c{ci}", [appender("shared", ci * 10 + bi)
                           for bi in range(3)]
            )
            for ci in range(3)
        ]
        scheduler = InterleavedScheduler(clients, seed=2, overlap=0.8)
        final = scheduler.run()
        rows = Rollback("shared", NOW).evaluate(final)
        expected_keys = {ci * 10 + bi for ci in range(3) for bi in range(3)}
        assert {row[0] for row in rows.sorted_rows()} == expected_keys

    def test_transaction_numbers_strictly_increase(self):
        scheduler = InterleavedScheduler(
            make_clients(2, 3), seed=9, overlap=0.5
        )
        final = scheduler.run()
        for identifier in final.state:
            txns = final.require(identifier).transaction_numbers
            assert list(txns) == sorted(set(txns))

    def test_no_overlap_degenerates_to_serial(self):
        # overlap=1.0 means "always start new work first", still valid;
        # overlap near 0 commits each transaction before the next begins.
        scheduler = InterleavedScheduler(
            make_clients(2, 3), seed=1, overlap=0.01
        )
        final = scheduler.run()
        assert scheduler.manager.abort_count == 0
        assert final == serial_execution(scheduler.committed_scripts)

    def test_contention_produces_aborts_but_correct_result(self):
        clients = [
            ClientScript(
                f"c{ci}",
                [appender("hot", ci * 10 + bi) for bi in range(4)],
            )
            for ci in range(4)
        ]
        scheduler = InterleavedScheduler(clients, seed=3, overlap=0.9)
        final = scheduler.run()
        assert final == serial_execution(scheduler.committed_scripts)
        # with heavy contention some aborts are expected (not required,
        # but the machinery must cope either way)
        assert scheduler.manager.commit_count == 16


class TestSchedulerCleanup:
    """Regression: a raising ``run`` (retries exhausted) used to leave
    the other in-flight transactions ACTIVE, pinning the manager's
    validation horizon so the commit log could never be pruned again."""

    def test_raising_run_aborts_in_flight_transactions(self):
        from repro.errors import ConcurrencyError

        clients = [
            ClientScript(
                f"c{ci}", [appender("hot", ci * 10 + bi) for bi in range(3)]
            )
            for ci in range(4)
        ]
        scheduler = InterleavedScheduler(
            clients, seed=11, overlap=0.95, max_retries=0
        )
        with pytest.raises(ConcurrencyError):
            scheduler.run()
        assert scheduler.manager.outstanding_count == 0
        # with nothing outstanding, the next commit prunes everything
        t = scheduler.manager.begin()
        t.stage(appender_command("cleanup", 1))
        scheduler.manager.commit(t)
        assert scheduler.manager.validation_log_size == 0

    def test_injected_mvcc_manager_is_used(self):
        from repro.concurrency import TransactionManager

        manager = TransactionManager(isolation="si")
        clients = make_clients(3, 2, shared_fraction=0)
        scheduler = InterleavedScheduler(clients, seed=5, manager=manager)
        final = scheduler.run()
        assert scheduler.manager is manager
        assert manager.commit_count == 6
        assert final == serial_execution(scheduler.committed_scripts)


def appender_command(identifier, key):
    from repro.core.commands import sequence

    return sequence(
        [
            DefineRelation(identifier, "rollback"),
            ModifyState(
                identifier, Union(Rollback(identifier), Const(kv(key)))
            ),
        ]
    )
