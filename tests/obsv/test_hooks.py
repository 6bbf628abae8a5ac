"""Cross-layer metric emission: expressions, storage, concurrency, lang.

Each test drives a real workload with metrics enabled (the ``metrics``
fixture) and asserts on the recorded instrument values — i.e. these are
integration tests of every instrumented hot path.
"""

from __future__ import annotations

import pytest

from repro.core.commands import DefineRelation, ModifyState
from repro.core.database import EMPTY_DATABASE
from repro.core.expressions import (
    Const,
    Difference,
    Rollback,
    Select,
    Union,
)
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.concurrency.manager import TransactionManager
from repro.lang.session import Session
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.predicates import Comparison, attr, lit
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.storage import (
    CheckpointDeltaBackend,
    DeltaBackend,
    VersionedDatabase,
)

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])


def _state(rows):
    return SnapshotState(KV, [list(r) for r in rows])


def _database():
    return run(
        [
            DefineRelation("r", "rollback"),
            ModifyState("r", Const(_state([(1, 1), (2, 2)]))),
        ]
    )


class TestExpressionMetrics:
    def test_nodes_evaluated_counts_every_node(self, metrics):
        database = _database()
        metrics.reset()  # drop counts from building the fixture database
        expression = Union(
            Rollback("r", NOW), Const(_state([(9, 9)]))
        )  # 3 nodes
        expression.evaluate(database)
        counters = metrics.snapshot()["counters"]
        assert counters["expr.nodes_evaluated"] == 3
        assert counters["expr.rollback_evaluations"] == 1

    def test_rollback_fanout(self, metrics):
        database = _database()
        metrics.reset()
        source = Rollback("r", NOW)
        # E − σ(E): the plain evaluator touches ρ twice
        Difference(
            source, Select(source, Comparison(attr("k"), "=", lit(1)))
        ).evaluate(database)
        assert (
            metrics.snapshot()["counters"]["expr.rollback_evaluations"] == 2
        )

    def test_disabled_emits_nothing(self):
        from repro.obsv import registry as obsv_registry

        database = _database()
        Rollback("r", NOW).evaluate(database)
        assert obsv_registry.get().snapshot()["counters"] == {}


class TestStorageMetrics:
    def test_replay_length_histogram(self, metrics):
        # fast paths off: this test measures the raw replay instrumentation
        vdb = VersionedDatabase(
            DeltaBackend(hot_reads=False, cache_capacity=0)
        )
        vdb.execute(DefineRelation("r", "rollback"))
        for i in range(6):
            vdb.set_state("r", _state([(j, j) for j in range(i + 1)]))
        # probe the oldest version: replays 0 deltas; newest: 5
        vdb.state_at("r", 2)
        vdb.state_at("r", 7)
        histogram = metrics.snapshot()["histograms"][
            "storage.forward-delta.replay_length"
        ]
        assert histogram["count"] == 2
        assert histogram["min"] == 0
        assert histogram["max"] == 5

    def test_hot_reads_and_cache_counters(self, metrics):
        vdb = VersionedDatabase(DeltaBackend())
        vdb.execute(DefineRelation("r", "rollback"))
        for i in range(6):
            vdb.set_state("r", _state([(j, j) for j in range(i + 1)]))
        vdb.state_at("r", 7)  # newest version: hot read, no replay
        vdb.state_at("r", 3)  # old version: replayed, then cached
        vdb.state_at("r", 3)  # served from the state cache
        counters = metrics.snapshot()["counters"]
        assert counters["storage.forward-delta.hot_reads"] == 1
        assert counters["storage.cache.misses"] == 1
        assert counters["storage.cache.hits"] == 1
        histogram = metrics.snapshot()["histograms"][
            "storage.forward-delta.replay_length"
        ]
        # only the one cold probe touched physical version records
        assert histogram["max"] == histogram["min"] > 0

    def test_checkpoint_hits_and_misses(self, metrics):
        vdb = VersionedDatabase(CheckpointDeltaBackend(2))
        vdb.execute(DefineRelation("r", "rollback"))
        for i in range(4):
            vdb.set_state("r", _state([(i, i)]))
        # versions at txns 2..5; checkpoints at versions 0 and 2
        vdb.state_at("r", 2)  # version 0: checkpoint hit
        vdb.state_at("r", 3)  # version 1: miss (1 replay)
        vdb.state_at("r", 4)  # version 2: checkpoint hit
        counters = metrics.snapshot()["counters"]
        assert counters["storage.checkpoint-delta.checkpoint_hits"] == 2
        assert counters["storage.checkpoint-delta.checkpoint_misses"] == 1

    def test_installs_and_atoms(self, metrics):
        vdb = VersionedDatabase(DeltaBackend())
        vdb.execute(DefineRelation("r", "rollback"))
        vdb.set_state("r", _state([(1, 1), (2, 2)]))
        vdb.set_state("r", _state([(1, 1)]))
        counters = metrics.snapshot()["counters"]
        assert counters["storage.forward-delta.installs"] == 2
        assert counters["storage.forward-delta.atoms_installed"] == 3
        assert counters["versioned_db.commands_executed"] == 1


class TestConcurrencyMetrics:
    def test_commit_and_latency(self, metrics):
        manager = TransactionManager(EMPTY_DATABASE)
        manager.run(
            lambda txn: txn.stage(DefineRelation("r", "rollback"))
        )
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["concurrency.commits"] == 1
        assert (
            snapshot["histograms"]["concurrency.validate_seconds"]["count"]
            == 1
        )
        assert (
            snapshot["histograms"]["concurrency.commit_seconds"]["count"]
            == 1
        )

    def test_abort_counted(self, metrics):
        manager = TransactionManager(_database())
        victim = manager.begin()
        victim.read(Rollback("r", NOW))
        other = manager.begin()
        other.stage(ModifyState("r", Const(_state([(5, 5)]))))
        manager.commit(other)
        with pytest.raises(Exception):
            manager.commit(victim)
        assert metrics.snapshot()["counters"]["concurrency.aborts"] == 1


class TestLangMetrics:
    def test_statements_and_queries_counted(self, metrics):
        session = Session()
        session.execute("define_relation(r, rollback)")
        session.execute_command(
            ModifyState("r", Const(_state([(1, 1)])))
        )
        session.query("rollback(r, now)")
        counters = metrics.snapshot()["counters"]
        assert counters["lang.statements_executed"] == 2
        assert counters["lang.queries"] == 1
