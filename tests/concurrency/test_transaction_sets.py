"""Read and write sets are kept as commands are staged.

SSI's commit reads both sets of every active transaction, so sets
recomputed on access would cost O(active × staged tree size) per commit.
These tests count expression walks rather than timing: each staged
expression is walked once, when it is staged, whatever the number of
concurrent transactions.
"""

import pytest

import repro.concurrency.transactions as transactions_module
from repro.concurrency import TransactionManager
from repro.core.commands import DefineRelation, ModifyState, sequence
from repro.core.expressions import Const, Rollback, Union
from repro.core.relation import RelationType


@pytest.fixture
def walks(monkeypatch):
    """Count every node the read-identifier walk visits (it walks
    ``subtrees`` through the module global, so each distinct expression
    node counts once per walk)."""
    calls = []
    original = transactions_module.subtrees

    def counting(expression):
        for node in original(expression):
            calls.append(node)
            yield node

    monkeypatch.setattr(transactions_module, "subtrees", counting)
    return calls


def _ssi_with(make_state, relations):
    manager = TransactionManager(isolation="ssi")
    setup = manager.begin()
    for relation in relations:
        setup.stage(DefineRelation(relation, RelationType.ROLLBACK))
        setup.stage(ModifyState(relation, Const(make_state("init"))))
    manager.commit(setup)
    return manager


def _append(relation, make_state, value):
    # three expression nodes: Union(Rollback, Const)
    return ModifyState(
        relation, Union(Rollback(relation), Const(make_state(value)))
    )


@pytest.mark.parametrize("active", [1, 4, 16])
def test_ssi_commits_walk_each_staged_expression_once(
    make_state, walks, active
):
    relations = [f"R{i}" for i in range(active)]
    manager = _ssi_with(make_state, relations)
    del walks[:]
    staged = []
    for i, relation in enumerate(relations):
        transaction = manager.begin()
        transaction.stage(_append(relation, make_state, f"v{i}"))
        staged.append(transaction)
    assert len(walks) == 3 * active  # staging walked each tree once
    del walks[:]
    # the first commit sees every other transaction still active
    for transaction in staged:
        manager.commit(transaction)
    assert manager.abort_count == 0
    assert walks == []  # commits walk nothing: the sets are kept


def test_staging_walks_each_expression_once(make_state, walks):
    manager = _ssi_with(make_state, ["A"])
    del walks[:]
    transaction = manager.begin()
    transaction.stage(_append("A", make_state, "x"))
    assert len(walks) == 3
    for _ in range(5):
        assert transaction.read_set == frozenset({"A"})
        assert transaction.write_set == frozenset({"A"})
    assert len(walks) == 3


def test_sets_cover_reads_sequences_and_defines(make_state):
    manager = _ssi_with(make_state, ["A", "B"])
    transaction = manager.begin()
    assert transaction.read_set == transaction.write_set == frozenset()
    transaction.read(Rollback("B"))
    transaction.stage(
        sequence(
            [
                DefineRelation("C", RelationType.ROLLBACK),
                _append("A", make_state, "y"),
            ]
        )
    )
    assert transaction.read_set == frozenset({"A", "B"})
    assert transaction.write_set == frozenset({"A", "C"})


def test_read_set_of_a_dag_walks_each_distinct_subtree_once(
    make_state, walks
):
    # 2**40 tree positions over 41 distinct subtrees: a walk that
    # revisits shared subtrees would not finish
    expression = Union(Rollback("A"), Const(make_state("x")))
    for _ in range(40):
        expression = Union(expression, expression)
    transaction = _ssi_with(make_state, ["A"]).begin()
    del walks[:]
    transaction.stage(ModifyState("A", expression))
    assert transaction.read_set == frozenset({"A"})
    assert len(walks) == 43
