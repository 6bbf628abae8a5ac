"""ScatterGatherRouter as a pure routing policy (injected callbacks)."""

import pytest

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
)
from repro.core.txn import NOW
from repro.sharding import ScatterGatherRouter
from repro.snapshot.predicates import Comparison, attr, lit
from repro.workloads.generators import StateGenerator

OWNERS = {"a": 0, "b": 1, "c": 1}


def make_router(calls=None):
    """A router over the static OWNERS map; the fake localizer shifts
    every explicit numeral down by one, and evaluation just records."""

    def evaluate(shard, expression):
        if calls is not None:
            calls.append((shard, expression))
        return ("evaluated", shard)

    return ScatterGatherRouter(
        owner_of=lambda identifier: OWNERS[identifier],
        localize_numeral=lambda identifier, numeral: numeral - 1,
        evaluate_on_shard=evaluate,
    )


SOME_STATE = StateGenerator(seed=1).snapshot_state(2)


class TestShardsOf:
    def test_const_only_touches_no_shard(self):
        router = make_router()
        assert router.shards_of(Const(SOME_STATE)) == frozenset()
        assert router.fanout(Const(SOME_STATE)) == 1

    def test_dag_walks_each_distinct_subtree_once(self):
        # 2**40 tree positions over 41 distinct subtrees: a walk that
        # revisits shared subtrees would not finish
        expression = Union(Rollback("a", NOW), Rollback("b", 2))
        for _ in range(40):
            expression = Union(expression, expression)
        router = make_router()
        assert router.shards_of(expression) == {0, 1}
        assert not router.is_local(expression, 0)

    def test_single_leaf(self):
        router = make_router()
        assert router.shards_of(Rollback("a", NOW)) == {0}

    def test_union_of_colocated_leaves_is_single_shard(self):
        router = make_router()
        expression = Union(Rollback("b", NOW), Rollback("c", 3))
        assert router.shards_of(expression) == {1}
        assert router.fanout(expression) == 1

    def test_cross_shard_union(self):
        router = make_router()
        expression = Union(Rollback("a", NOW), Rollback("b", NOW))
        assert router.shards_of(expression) == {0, 1}
        assert router.fanout(expression) == 2


class TestIsLocal:
    def test_now_leaf_on_its_owner(self):
        router = make_router()
        assert router.is_local(Rollback("a", NOW), 0)
        assert not router.is_local(Rollback("a", NOW), 1)

    def test_explicit_numeral_is_never_local(self):
        # a non-now numeral needs translation, so the expression cannot
        # ship untouched even to the owning shard
        router = make_router()
        assert not router.is_local(Rollback("a", 3), 0)

    def test_composite(self):
        router = make_router()
        local = Union(Rollback("b", NOW), Const(SOME_STATE))
        assert router.is_local(local, 1)
        assert not router.is_local(
            Union(local, Rollback("a", NOW)), 1
        )


class TestLocalize:
    def test_now_leaf_returned_by_identity(self):
        router = make_router()
        leaf = Rollback("a", NOW)
        assert router.localize(leaf, 0) is leaf

    def test_const_returned_by_identity(self):
        router = make_router()
        leaf = Const(SOME_STATE)
        assert router.localize(leaf, 0) is leaf

    def test_unchanged_numeral_returned_by_identity(self):
        calls = []
        router = ScatterGatherRouter(
            owner_of=OWNERS.__getitem__,
            localize_numeral=lambda identifier, numeral: numeral,
            evaluate_on_shard=lambda s, e: None,
        )
        leaf = Rollback("a", 4)
        assert router.localize(leaf, 0) is leaf

    def test_numeral_rewritten(self):
        router = make_router()
        localized = router.localize(Rollback("a", 4), 0)
        assert isinstance(localized, Rollback)
        assert localized.identifier == "a"
        assert localized.numeral == 3

    def test_rebuild_shares_unchanged_children(self):
        router = make_router()
        unchanged = Rollback("b", NOW)
        expression = Union(unchanged, Rollback("c", 5))
        localized = router.localize(expression, 1)
        assert localized is not expression
        assert localized.left is unchanged
        assert localized.right.numeral == 4

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda leaf: Union(leaf, leaf),
            lambda leaf: Difference(leaf, leaf),
            lambda leaf: Product(leaf, Rename(leaf, {"key": "key2"})),
            lambda leaf: Project(leaf, ["key"]),
            lambda leaf: Select(
                leaf, Comparison(attr("key"), ">=", lit(0))
            ),
            lambda leaf: Rename(leaf, {"key": "k2"}),
            lambda leaf: Derive(leaf),
        ],
    )
    def test_every_node_shape_rebuilds(self, wrap):
        router = make_router()
        expression = wrap(Rollback("a", 9))
        localized = router.localize(expression, 0)
        assert localized is not expression
        assert type(localized) is type(expression)
        # the rewritten tree carries the translated numeral everywhere
        assert all(
            leaf.numeral == 8 for leaf in _rollback_leaves(localized)
        )


def _rollback_leaves(expression):
    if isinstance(expression, Rollback):
        yield expression
    for child in expression.children():
        yield from _rollback_leaves(child)


class TestEvaluate:
    def test_single_shard_ships_whole_localized_tree(self):
        calls = []
        router = make_router(calls)
        expression = Union(Rollback("b", NOW), Rollback("c", 7))
        assert router.evaluate(expression) == ("evaluated", 1)
        assert len(calls) == 1
        shard, shipped = calls[0]
        assert shard == 1
        assert shipped.right.numeral == 6

    def test_const_only_goes_to_shard_zero(self):
        calls = []
        router = make_router(calls)
        router.evaluate(Const(SOME_STATE))
        assert [shard for shard, _ in calls] == [0]
