"""Tests for the semantic function E: every expression form, the rollback
operator ρ/ρ̂, the untyped ∅, and side-effect freedom (claim C1)."""

import random
import sys

import pytest
from hypothesis import given, settings

from repro.errors import (
    ExpressionError,
    RelationTypeError,
    UnknownRelationError,
)
from repro.core.commands import DefineRelation, ModifyState
from repro.core.database import EMPTY_DATABASE
from repro.core.expressions import (
    Const,
    Derive,
    Difference,
    Product,
    Project,
    Rename,
    Rollback,
    Select,
    Union,
    evaluate,
    is_empty_set,
    subtrees,
)
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.historical.predicates import ValidAt
from repro.historical.state import HistoricalState
from repro.historical.temporal_exprs import ValidTime
from repro.snapshot.attributes import INTEGER, STRING, Attribute
from repro.snapshot.predicates import Comparison, attr, lit
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

from tests.conftest import kv_states

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])


def kv(*rows):
    return SnapshotState(KV, [list(r) for r in rows])


def const(*rows):
    return Const(kv(*rows))


class TestConst:
    def test_snapshot_const(self):
        assert const((1, 2)).evaluate(EMPTY_DATABASE) == kv((1, 2))

    def test_historical_const(self):
        state = HistoricalState.from_rows(KV, [([1, 2], [(0, 5)])])
        assert Const(state).evaluate(EMPTY_DATABASE) == state

    def test_non_state_rejected(self):
        with pytest.raises(ExpressionError):
            Const("not a state")  # type: ignore[arg-type]


class TestOperators:
    def test_union(self):
        e = Union(const((1, 1)), const((2, 2)))
        assert e.evaluate(EMPTY_DATABASE) == kv((1, 1), (2, 2))

    def test_difference(self):
        e = Difference(const((1, 1), (2, 2)), const((1, 1)))
        assert e.evaluate(EMPTY_DATABASE) == kv((2, 2))

    def test_product(self):
        other = Const(SnapshotState(Schema(["x"]), [["a"]]))
        e = Product(const((1, 1)), other)
        result = e.evaluate(EMPTY_DATABASE)
        assert result.schema.names == ("k", "v", "x")
        assert len(result) == 1

    def test_project(self):
        e = Project(const((1, 10), (2, 10)), ["v"])
        assert e.evaluate(EMPTY_DATABASE).sorted_rows() == [(10,)]

    def test_select(self):
        e = Select(const((1, 10), (2, 20)), Comparison(attr("v"), ">", lit(15)))
        assert e.evaluate(EMPTY_DATABASE).sorted_rows() == [(2, 20)]

    def test_rename(self):
        e = Rename(const((1, 10)), {"k": "key"})
        assert e.evaluate(EMPTY_DATABASE).schema.names == ("key", "v")

    def test_mixed_kinds_rejected(self):
        historical = Const(
            HistoricalState.from_rows(KV, [([1, 2], [(0, 5)])])
        )
        with pytest.raises(ExpressionError, match="mix"):
            Union(const((1, 1)), historical).evaluate(EMPTY_DATABASE)

    def test_derive_on_snapshot_rejected(self):
        with pytest.raises(ExpressionError):
            Derive(const((1, 1))).evaluate(EMPTY_DATABASE)

    def test_derive_on_historical(self):
        state = HistoricalState.from_rows(
            KV, [([1, 2], [(0, 5)]), ([3, 4], [(8, 9)])]
        )
        e = Derive(Const(state), predicate=ValidAt(ValidTime(), 2))
        assert e.evaluate(EMPTY_DATABASE) == HistoricalState.from_rows(
            KV, [([1, 2], [(0, 5)])]
        )

    def test_sugar_builders(self):
        e = (
            const((1, 1), (2, 2))
            .union(const((3, 3)))
            .select(Comparison(attr("k"), ">", lit(1)))
            .project(["k"])
        )
        assert e.evaluate(EMPTY_DATABASE).sorted_rows() == [(2,), (3,)]


class TestRollback:
    def test_rollback_to_past(self, rollback_db, faculty_states):
        # states installed at txns 2, 3, 4
        assert Rollback("faculty", 2).evaluate(rollback_db) == (
            faculty_states[0]
        )
        assert Rollback("faculty", 3).evaluate(rollback_db) == (
            faculty_states[1]
        )

    def test_rollback_interpolates(self, rollback_db, faculty_states):
        # txn 100 is after the last state; FINDSTATE takes the largest <=
        assert Rollback("faculty", 100).evaluate(rollback_db) == (
            faculty_states[2]
        )

    def test_rollback_now(self, rollback_db, faculty_states):
        assert Rollback("faculty", NOW).evaluate(rollback_db) == (
            faculty_states[2]
        )

    def test_default_numeral_is_now(self, rollback_db, faculty_states):
        assert Rollback("faculty").evaluate(rollback_db) == (
            faculty_states[2]
        )

    def test_rollback_before_first_is_empty_set(self, rollback_db):
        result = Rollback("faculty", 0).evaluate(rollback_db)
        assert is_empty_set(result)

    def test_unknown_relation_raises(self, rollback_db):
        with pytest.raises(UnknownRelationError):
            Rollback("ghost", NOW).evaluate(rollback_db)

    def test_snapshot_relation_rollback_to_past_rejected(self):
        db = run(
            [
                DefineRelation("s", "snapshot"),
                ModifyState("s", const((1, 1))),
            ]
        )
        # N = ∞ is legal on snapshot relations ...
        assert Rollback("s", NOW).evaluate(db) == kv((1, 1))
        # ... but a concrete past transaction is not (paper Section 3.1).
        with pytest.raises(RelationTypeError):
            Rollback("s", 1).evaluate(db)

    def test_rollback_on_temporal_relation(self):
        h1 = HistoricalState.from_rows(KV, [([1, 2], [(0, 5)])])
        h2 = HistoricalState.from_rows(
            KV, [([1, 2], [(0, 5)]), ([3, 4], [(2, 9)])]
        )
        db = run(
            [
                DefineRelation("t", "temporal"),
                ModifyState("t", Const(h1)),
                ModifyState("t", Const(h2)),
            ]
        )
        assert Rollback("t", 2).evaluate(db) == h1
        assert Rollback("t", NOW).evaluate(db) == h2


class TestEmptySetPropagation:
    """The untyped ∅ that FINDSTATE returns must flow through the
    operators with set-theoretic meaning."""

    @pytest.fixture
    def fresh_db(self):
        return run([DefineRelation("r", "rollback")])

    def test_union_identity(self, fresh_db):
        e = Union(Rollback("r"), const((1, 1)))
        assert e.evaluate(fresh_db) == kv((1, 1))
        e = Union(const((1, 1)), Rollback("r"))
        assert e.evaluate(fresh_db) == kv((1, 1))

    def test_difference(self, fresh_db):
        assert is_empty_set(
            Difference(Rollback("r"), const((1, 1))).evaluate(fresh_db)
        )
        assert Difference(const((1, 1)), Rollback("r")).evaluate(
            fresh_db
        ) == kv((1, 1))

    def test_product_annihilates(self, fresh_db):
        assert is_empty_set(
            Product(Rollback("r"), const((1, 1))).evaluate(fresh_db)
        )

    def test_unary_operators_propagate(self, fresh_db):
        assert is_empty_set(
            Project(Rollback("r"), ["k"]).evaluate(fresh_db)
        )
        assert is_empty_set(
            Select(
                Rollback("r"), Comparison(attr("k"), "=", lit(1))
            ).evaluate(fresh_db)
        )
        assert is_empty_set(
            Rename(Rollback("r"), {"k": "x"}).evaluate(fresh_db)
        )
        assert is_empty_set(Derive(Rollback("r")).evaluate(fresh_db))


class TestSideEffectFreedom:
    """Claim C1: evaluation of an expression on a specific database does
    not change that database."""

    def test_rollback_does_not_change_database(self, rollback_db):
        before = rollback_db
        Rollback("faculty", 2).evaluate(rollback_db)
        Rollback("faculty", NOW).evaluate(rollback_db)
        assert rollback_db == before

    def test_complex_expression_does_not_change_database(self, rollback_db):
        before_state = rollback_db.state
        before_txn = rollback_db.transaction_number
        e = Project(
            Select(
                Union(
                    Rollback("faculty", 2), Rollback("faculty", NOW)
                ),
                Comparison(attr("rank"), "!=", lit("emeritus")),
            ),
            ["name"],
        )
        e.evaluate(rollback_db)
        assert rollback_db.state == before_state
        assert rollback_db.transaction_number == before_txn

    @settings(max_examples=30)
    @given(kv_states(), kv_states())
    def test_evaluate_helper_is_pure(self, a, b):
        e = Union(Const(a), Const(b))
        first = evaluate(e, EMPTY_DATABASE)
        second = evaluate(e, EMPTY_DATABASE)
        assert first == second


class TestStructuralEquality:
    def test_expression_trees_hashable(self):
        a = Project(Union(const((1, 1)), Rollback("r", 3)), ["k"])
        b = Project(Union(const((1, 1)), Rollback("r", 3)), ["k"])
        assert a == b
        assert len({a, b}) == 1

    def test_rollback_identity(self):
        assert Rollback("r", 3) == Rollback("r", 3)
        assert Rollback("r", 3) != Rollback("r", 4)
        assert Rollback("r", NOW) == Rollback("r")

    def test_invalid_rollback_arguments(self):
        with pytest.raises(ExpressionError):
            Rollback("", 3)
        from repro.errors import RollbackError

        with pytest.raises(RollbackError):
            Rollback("r", -1)


#: One node of each composite type, each with a non-child field set.
COMPOSITES = [
    Union(const((1, 1)), Rollback("r", 3)),
    Difference(const((1, 1)), Rollback("r", 3)),
    Product(const((1, 1)), Rollback("s", 3)),
    Project(Rollback("r"), ["k"]),
    Select(Rollback("r"), Comparison(attr("k"), "=", lit(1))),
    Rename(Rollback("r"), {"k": "k2"}),
    Derive(Rollback("t"), ValidAt(ValidTime(), 3), ValidTime()),
]
_CHILD_AND_HASH_SLOTS = {"left", "right", "operand", "_hash"}


class TestShape:
    @pytest.mark.parametrize(
        "node", COMPOSITES, ids=lambda node: type(node).__name__
    )
    def test_with_own_children_is_equal(self, node):
        rebuilt = node.with_children(node.children())
        assert type(rebuilt) is type(node)
        assert rebuilt == node and hash(rebuilt) == hash(node)

    @pytest.mark.parametrize(
        "node", COMPOSITES, ids=lambda node: type(node).__name__
    )
    def test_new_children_keep_the_other_fields(self, node):
        children = tuple(
            Rollback(f"x{index}", 7) for index in range(len(node.children()))
        )
        rebuilt = node.with_children(children)
        assert type(rebuilt) is type(node)
        assert rebuilt.children() == children
        # names, predicate, mapping, δ's predicate and expression
        fields = [
            name
            for name in type(node).__slots__
            if name not in _CHILD_AND_HASH_SLOTS
        ]
        for name in fields:
            assert getattr(rebuilt, name) == getattr(node, name)

    def test_leaves_rebuild_to_themselves(self):
        for leaf in (const((1, 1)), Rollback("r", 3)):
            assert leaf.with_children(()) is leaf

    def test_subtrees_of_a_dag_once_children_first(self):
        from benchmarks.bench_e2_expression_eval import random_expression
        from repro.core.compile import compile_expression

        # the E2/E16 CSE workload: a random tree doubled eight times
        expression = random_expression(3, random.Random(5))
        for _ in range(8):
            expression = Union(expression, expression)
        assert compile_expression(expression).node_count == 1279
        order = list(subtrees(expression))
        assert len(order) == len(set(order)) == 12
        assert order[-1] == expression
        for index, node in enumerate(order):
            assert all(child in order[:index] for child in node.children())

    def test_subtrees_of_a_chain_deeper_than_the_recursion_limit(self):
        depth = sys.getrecursionlimit() + 1000
        expression = Rollback("r")
        for index in range(depth):
            expression = Select(
                expression, Comparison(attr("k"), ">=", lit(-index))
            )
        order = list(subtrees(expression))
        assert len(order) == depth + 1
        assert order[0] == Rollback("r") and order[-1] is expression
