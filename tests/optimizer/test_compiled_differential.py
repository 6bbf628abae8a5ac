"""The C6 differential suite for the optimized + compiled read path.

Section 5 of the paper: *any* physical evaluation strategy is correct
iff it is observation-equivalent to the simple semantics.  The read
path now stacks three strategies — cost-guided rewriting, compiled
(flattened, CSE'd) execution, and per-backend physical storage — so
this suite drives all of them against ``Expression.evaluate`` as the
oracle:

* hypothesis-random expression trees, optimized and compiled, against
  the plain evaluator on a semantic database;
* directed queries over **all five** storage backends, with the
  compiled plan executing directly against the backend's database view;
* string queries through plain, snapshot-isolated, sharded
  (``shards=2``), durable, replica and cluster :class:`Session`
  objects — whose ``query`` path optimizes and
  compiles under the covers — against the oracle, twice each so the
  second call exercises the cached compiled plan.

Randomized parts follow the run-seed discipline (``REPRO_TEST_SEED``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core.commands import DefineRelation, ModifyState
from repro.core.compile import compile_expression
from repro.core.database import Database
from repro.core.expressions import (
    Const,
    Difference,
    Expression,
    Product,
    Project,
    Rollback,
    Select,
    Union,
    evaluate,
    is_empty_set,
)
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.errors import ConcurrencyError
from repro.lang.parser import parse_expression
from repro.lang.session import Session
from repro.optimizer import collect_statistics, optimize_with_cost
from repro.optimizer.equivalence import states_equal
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.predicates import And, Comparison, attr, lit
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.storage import (
    CheckpointDeltaBackend,
    DeltaBackend,
    FullCopyBackend,
    ReverseDeltaBackend,
    TupleTimestampBackend,
    VersionedDatabase,
)
from repro.storage.versioned_db import _BackendDatabaseView

from tests.conftest import kv_states

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])
XY = Schema([Attribute("x", INTEGER), Attribute("y", INTEGER)])
CATALOG = {"r": KV, "s": KV, "t": XY}

PK = Comparison(attr("k"), ">", lit(4))
PV = Comparison(attr("v"), "<", lit(3))
PX = Comparison(attr("x"), "=", lit(1))


def kv(*rows):
    return SnapshotState(KV, [list(r) for r in rows])


def xy(*rows):
    return SnapshotState(XY, [list(r) for r in rows])


def optimized_compiled(query: Expression, database) -> object:
    """The full physical read path: statistics → cost-guided rewrite →
    compiled plan → execution against ``database``."""
    stats = collect_statistics(database)
    plan = compile_expression(
        optimize_with_cost(query, CATALOG, stats)
    )
    return plan(database)


# ---------------------------------------------------------------------------
# hypothesis-random trees against the plain evaluator
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(
    st.builds(Const, kv_states(max_rows=4)),
    st.sampled_from(
        [
            Rollback("r", NOW),
            Rollback("r", 1),
            Rollback("r", 2),
            Rollback("s", NOW),
        ]
    ),
)

#: Schema-preserving combinators, so every random tree is well-typed.
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(Union, children, children),
        st.builds(Difference, children, children),
        st.builds(lambda e: Select(e, PK), children),
        st.builds(lambda e: Select(e, PV), children),
        st.builds(lambda e: Select(e, And(PK, PV)), children),
        st.builds(lambda e: Project(e, ("k", "v")), children),
    ),
    max_leaves=8,
)


class TestRandomTrees:
    @settings(max_examples=60, deadline=None)
    @given(_TREES, kv_states(max_rows=5), kv_states(max_rows=5))
    def test_optimized_compiled_equals_evaluate(self, query, s1, s2):
        database = run(
            [
                DefineRelation("r", "rollback"),
                ModifyState("r", Const(s1)),
                ModifyState("r", Const(s2)),
                DefineRelation("s", "rollback"),
                ModifyState("s", Const(s2)),
            ]
        )
        oracle = evaluate(query, database)
        physical = optimized_compiled(query, database)
        if is_empty_set(oracle):
            assert is_empty_set(physical)
        else:
            assert states_equal(oracle, physical)

    @settings(max_examples=30, deadline=None)
    @given(_TREES)
    def test_projection_on_top(self, query):
        database = run(
            [
                DefineRelation("r", "rollback"),
                ModifyState("r", Const(kv((1, 1), (5, 2), (7, 0)))),
                DefineRelation("s", "rollback"),
                ModifyState("s", Const(kv((5, 5), (9, 1)))),
            ]
        )
        wrapped = Project(query, ("k",))
        oracle = evaluate(wrapped, database)
        physical = optimized_compiled(wrapped, database)
        if is_empty_set(oracle):
            assert is_empty_set(physical)
        else:
            assert states_equal(oracle, physical)


# ---------------------------------------------------------------------------
# all five storage backends
# ---------------------------------------------------------------------------

BACKENDS = [
    FullCopyBackend,
    DeltaBackend,
    ReverseDeltaBackend,
    CheckpointDeltaBackend,
    TupleTimestampBackend,
]

STREAM = [
    DefineRelation("r", "rollback"),
    ModifyState("r", Const(kv((1, 10), (2, 20)))),
    ModifyState("r", Union(Rollback("r"), Const(kv((5, 1), (7, 2))))),
    ModifyState(
        "r",
        Difference(
            Rollback("r"),
            Select(Rollback("r"), Comparison(attr("k"), "=", lit(1))),
        ),
    ),
    DefineRelation("s", "rollback"),
    ModifyState("s", Union(Rollback("r", 2), Const(kv((9, 0))))),
    DefineRelation("t", "rollback"),
    ModifyState("t", Const(xy((1, 7), (5, 8)))),
]

QUERIES = [
    Select(Union(Rollback("r", NOW), Rollback("r", 2)), PK),
    Select(Union(Rollback("r", NOW), Rollback("s", NOW)), And(PK, PV)),
    Difference(Rollback("r", NOW), Select(Rollback("r", NOW), PK)),
    Project(
        Select(
            Product(Rollback("r", NOW), Rollback("t", NOW)),
            And(PK, PX),
        ),
        ("k", "x"),
    ),
    Union(Rollback("r", 1), Rollback("r", 3)),  # historical probes
]


class TestAllBackends:
    @pytest.mark.parametrize(
        "backend_cls", BACKENDS, ids=lambda cls: cls.__name__
    )
    def test_compiled_path_observation_equivalent(self, backend_cls):
        versioned = VersionedDatabase(backend_cls())
        oracle_db = run(STREAM)
        versioned.execute_all(STREAM)
        view = _BackendDatabaseView(
            versioned.backend, versioned.transaction_number
        )
        for query in QUERIES:
            oracle = evaluate(query, oracle_db)
            interpreted = versioned.evaluate(query)
            compiled = optimized_compiled(query, view)
            if is_empty_set(oracle):
                assert is_empty_set(interpreted)
                assert is_empty_set(compiled)
            else:
                assert states_equal(oracle, interpreted)
                assert states_equal(oracle, compiled)

    @pytest.mark.parametrize(
        "backend_cls", BACKENDS, ids=lambda cls: cls.__name__
    )
    def test_backend_statistics_feed_the_rewrite(self, backend_cls):
        versioned = VersionedDatabase(backend_cls())
        versioned.execute_all(STREAM)
        stats = collect_statistics(versioned)
        assert stats.get("r") == 3.0  # (2,20),(5,1),(7,2) after delete
        assert stats.version_count("r") == 3


# ---------------------------------------------------------------------------
# sessions: plain, sharded, durable, replica
# ---------------------------------------------------------------------------

SESSION_PROGRAM = """
define_relation(r, rollback);
modify_state(r, state (k: integer, v: integer) { (1, 10), (2, 20) });
modify_state(r, rollback(r, now) union state (k: integer, v: integer) { (5, 1), (7, 2) });
define_relation(t, rollback);
modify_state(t, state (x: integer, y: integer) { (1, 7), (5, 8) });
"""

SESSION_QUERIES = [
    "select [k > 4] (rollback(r, now) union rollback(r, 2))",
    "project [k] (select [k > 4 and v < 3] (rollback(r, now)))",
    "rollback(r, now) minus select [k > 4] (rollback(r, now))",
    "project [k, x] (select [k = x] (rollback(r, now) times rollback(t, now)))",
]


def check_session(session: Session, oracle_db: Database) -> None:
    """Every query, twice (second run hits the cached compiled plan),
    against the plain evaluator on the oracle database value."""
    for source in SESSION_QUERIES:
        oracle = evaluate(parse_expression(source), oracle_db)
        first = session.query(source)
        second = session.query(source)
        if is_empty_set(oracle):
            assert is_empty_set(first) and is_empty_set(second)
        else:
            assert states_equal(oracle, first)
            assert states_equal(oracle, second)


class TestSessions:
    def test_plain_session(self):
        session = Session()
        session.execute(SESSION_PROGRAM)
        check_session(session, session.database)
        assert session.plan_cache_info()["hits"] == len(SESSION_QUERIES)

    def test_sharded_session(self):
        session = Session(shards=2)
        session.execute(SESSION_PROGRAM)
        oracle_db = session.database
        check_session(session, oracle_db)
        session.close()

    def test_durable_and_replica_sessions(self, tmp_path):
        primary = Session(str(tmp_path / "primary"))
        primary.execute(SESSION_PROGRAM)
        replica = Session(replica_of=primary)
        try:
            check_session(primary, primary.database)
            check_session(replica, primary.database)
        finally:
            replica.close()
            primary.close()

    def test_seeded_random_workload_all_modes_agree(
        self, test_seed, tmp_path
    ):
        """A seeded random command stream applied to plain, si, sharded,
        durable and cluster sessions (plus a replica of the durable
        one); every mode must answer every query like the plain
        evaluator on its own database value (and the values must agree
        across modes)."""
        rng = random.Random(test_seed)
        commands = [
            "define_relation(r, rollback)",
            "modify_state(r, state (k: integer, v: integer) { (0, 0) })",
        ]
        for _ in range(12):
            k = rng.randrange(10)
            v = rng.randrange(5)
            if rng.random() < 0.7:
                commands.append(
                    "modify_state(r, rollback(r, now) union state "
                    f"(k: integer, v: integer) {{ ({k}, {v}) }})"
                )
            else:
                commands.append(
                    "modify_state(r, rollback(r, now) minus select "
                    f"[k = {k}] (rollback(r, now)))"
                )
        txn = rng.randrange(2, 8)
        queries = [
            f"select [k > {rng.randrange(5)}] (rollback(r, now) "
            f"union rollback(r, {txn}))",
            f"project [k] (select [v < {rng.randrange(1, 5)}] "
            "(rollback(r, now)))",
        ]

        plain = Session()
        snapshot_isolated = Session(isolation="si")
        sharded = Session(shards=2)
        durable = Session(str(tmp_path / "durable"))
        cluster = Session(
            cluster=ClusterConfig(shards=2, replicas_per_shard=1)
        )
        replica = Session(replica_of=durable)
        writers = (plain, snapshot_isolated, sharded, durable, cluster)
        try:
            for session in (sharded, durable, cluster, replica):
                with pytest.raises(ConcurrencyError):
                    session.transaction_manager
            for command in commands:
                for session in writers:
                    session.execute(command)
            replica.catch_up()
            for session in writers[1:] + (replica,):
                assert session.database == plain.database
            for source in queries:
                oracle = evaluate(
                    parse_expression(source), plain.database
                )
                for session in writers + (replica,):
                    for _ in range(2):
                        result = session.query(source)
                        if is_empty_set(oracle):
                            assert is_empty_set(result)
                        else:
                            assert states_equal(oracle, result)
        finally:
            for session in (replica, sharded, durable, cluster):
                session.close()
