"""The append path of rollback and temporal relations.

``Relation.with_new_state`` checks only the element it appends: the
receiver's elements were checked when it was built, so strictly
increasing transaction numbers (C4) hold by induction.  These tests pin
that down by counting element checks rather than timing, and prove the
single check still rejects every bad append deep in a history.
"""

import pytest

import repro.core.relation as relation_module
from repro.core.relation import Relation, RelationType
from repro.errors import RelationTypeError
from repro.historical.periods import PeriodSet
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

KV = Schema(["k"])

HISTORY_TYPES = (RelationType.ROLLBACK, RelationType.TEMPORAL)


def snap(*rows):
    return SnapshotState(KV, [[r] for r in rows])


def hist(*rows):
    return HistoricalState(
        KV,
        [HistoricalTuple([r], PeriodSet([(r, r + 2)]), schema=KV) for r in rows],
    )


def state_for(rtype, row):
    return hist(row) if rtype.stores_valid_time else snap(row)


def wrong_state_for(rtype, row):
    return snap(row) if rtype.stores_valid_time else hist(row)


def grown(rtype, depth):
    """A relation of ``depth`` elements at txns 1..depth, via the public
    constructor (one shared state keeps deep fixtures cheap)."""
    state = state_for(rtype, 0)
    return Relation(rtype, [(state, txn) for txn in range(1, depth + 1)])


@pytest.fixture
def element_checks(monkeypatch):
    """Count every call of the per-element check."""
    calls = []
    original = relation_module._check_element

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(relation_module, "_check_element", counting)
    return calls


@pytest.mark.parametrize("rtype", HISTORY_TYPES, ids=lambda t: t.value)
class TestAppendChecksOnlyTheNewElement:
    def test_check_count_is_independent_of_depth(self, rtype, element_checks):
        counts = []
        for depth in (10, 5000):
            relation = grown(rtype, depth)
            element_checks.clear()
            appended = relation.with_new_state(state_for(rtype, 1), depth + 1)
            counts.append(len(element_checks))
            assert appended.history_length == depth + 1
        assert counts[0] == counts[1] == 1

    def test_public_constructor_still_checks_every_element(
        self, rtype, element_checks
    ):
        grown(rtype, 50)
        assert len(element_checks) == 50

    def test_equal_txn_rejected(self, rtype):
        relation = grown(rtype, 5)
        with pytest.raises(RelationTypeError, match="strictly increasing"):
            relation.with_new_state(state_for(rtype, 1), 5)

    def test_lower_txn_rejected(self, rtype):
        relation = grown(rtype, 5)
        with pytest.raises(RelationTypeError, match="strictly increasing"):
            relation.with_new_state(state_for(rtype, 1), 3)

    def test_wrong_state_kind_rejected(self, rtype):
        relation = grown(rtype, 5)
        with pytest.raises(RelationTypeError, match="relations store"):
            relation.with_new_state(wrong_state_for(rtype, 1), 6)

    def test_grown_equals_public_constructor(self, rtype):
        elements = [(state_for(rtype, txn), txn * 3) for txn in range(1, 30)]
        relation = Relation(rtype)
        for state, txn in elements:
            relation = relation.with_new_state(state, txn)
        built = Relation(rtype, elements)
        assert relation == built
        assert hash(relation) == hash(built)
        assert relation.rstate == built.rstate
        assert relation.latest_txn == built.latest_txn == 87


@pytest.mark.parametrize(
    "rtype",
    (RelationType.SNAPSHOT, RelationType.HISTORICAL),
    ids=lambda t: t.value,
)
def test_replacement_checks_the_new_element(rtype, element_checks):
    relation = Relation(rtype, [(state_for(rtype, 0), 4)])
    element_checks.clear()
    replaced = relation.with_new_state(state_for(rtype, 1), 5)
    assert len(element_checks) == 1
    assert replaced == Relation(rtype, [(state_for(rtype, 1), 5)])
    with pytest.raises(RelationTypeError):
        relation.with_new_state(wrong_state_for(rtype, 1), 5)


def test_latest_txn():
    assert Relation(RelationType.ROLLBACK).latest_txn is None
    relation = Relation(RelationType.ROLLBACK, [(snap(1), 2), (snap(2), 7)])
    assert relation.latest_txn == relation.transaction_numbers[-1] == 7
