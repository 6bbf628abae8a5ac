"""Checkpoints encode each state once.

A :class:`DurableDatabase` keeps the JSON fragment of every state its
last checkpoint wrote (and of the tuple rows those states were built
from) and reuses them in the next one.  The body must stay
byte-identical to encoding the whole database afresh, across successive
checkpoints with appends, snapshot replacements and new relations in
between, and the memo must hold exactly the live states.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.durability.checkpoint as checkpoint_module
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.core.relation import RelationType
from repro.core.txn import NOW
from repro.durability.checkpoint import (
    StateFragments,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.durability.durable import DurableDatabase
from repro.durability.faults import MemoryStore
from repro.historical.chronons import FOREVER
from repro.historical.state import HistoricalState
from repro.persistence.json_codec import (
    canonical_json,
    database_to_dict,
    database_to_json,
    state_to_dict,
    state_to_json,
)
from repro.snapshot.attributes import INTEGER, STRING, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

ROWS = Schema([Attribute("s", STRING), Attribute("i", INTEGER)])
WHO = Schema([Attribute("who", STRING)])
NAMES = ("r", "s", "t", "u", "v", "w")

texts = st.text(
    alphabet=st.sampled_from(
        ['a', 'Z', ' ', '"', '\\', "'", '/', '\n', 'é', 'ß', '中', '☃', '😀']
    ),
    max_size=6,
)

snapshot_states = st.lists(
    st.tuples(texts, st.integers(-50, 50)), max_size=4
).map(lambda rows: SnapshotState(ROWS, [list(row) for row in rows]))

periods = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 8), st.booleans()).map(
        lambda p: (p[0], FOREVER if p[2] else p[0] + p[1])
    ),
    min_size=1,
    max_size=3,
)

historical_states = st.lists(
    st.tuples(texts, periods), max_size=4
).map(
    lambda rows: HistoricalState.from_rows(
        WHO, [([who], spans) for who, spans in rows]
    )
)


def plain_body(database):
    """The checkpoint body as the dict route writes it."""
    return json.dumps(
        database_to_dict(database),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    )


def live_state_count(database):
    return len(
        {
            id(state)
            for identifier in database.state
            for state, _ in database.require(identifier).rstate
        }
    )


def newest_body(store):
    name = list_checkpoints(store)[-1]
    return json.loads(store.read(name).decode("utf-8"))["database"]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_memoized_checkpoints_match_the_plain_encoding(data):
    store = MemoryStore()
    durable = DurableDatabase(store, checkpoint_every=0)
    types = {}
    for _ in range(data.draw(st.integers(2, 5), label="checkpoints")):
        for _ in range(data.draw(st.integers(1, 8), label="commands")):
            unbound = [n for n in NAMES if n not in types]
            if not types or (unbound and data.draw(st.booleans())):
                name = data.draw(st.sampled_from(unbound))
                rtype = data.draw(st.sampled_from(list(RelationType)))
                durable.execute(DefineRelation(name, rtype.value))
                types[name] = rtype
                continue
            name = data.draw(st.sampled_from(sorted(types)))
            relation = durable.database.require(name)
            if types[name].stores_valid_time:
                state = data.draw(historical_states)
            else:
                state = data.draw(snapshot_states)
            how = data.draw(st.sampled_from(["const", "union", "reinstall"]))
            if how == "reinstall" and relation.rstate:
                # an earlier state object installed again: one live state
                # at two transaction numbers
                state = data.draw(st.sampled_from(relation.rstate))[0]
            if how == "union":
                # shares the current state's tuples, as appends do
                expression = Union(Rollback(name, NOW), Const(state))
            else:
                expression = Const(state)
            durable.execute(ModifyState(name, expression))
        durable.checkpoint()
        database = durable.database
        assert newest_body(store) == plain_body(database)
        assert len(durable._fragments) == live_state_count(database)
    durable.close()
    reopened = DurableDatabase(store)
    assert reopened.database == durable.database
    reopened.close()


@settings(max_examples=100, deadline=None)
@given(state=st.one_of(snapshot_states, historical_states))
def test_state_to_json_matches_the_dict_route(state):
    assert state_to_json(state) == canonical_json(state_to_dict(state))


def test_database_to_json_matches_the_dict_route():
    state = SnapshotState(ROWS, [['q"\\é', 1], ["☃", 2]])
    durable = DurableDatabase(MemoryStore(), checkpoint_every=0)
    durable.execute(DefineRelation("é", "rollback"))
    durable.execute(ModifyState("é", Const(state)))
    database = durable.database
    assert database_to_json(database) == plain_body(database)
    assert database_to_json(database) == canonical_json(
        database_to_dict(database)
    )


@pytest.fixture
def encodings(monkeypatch):
    """Count the states encoded from rows, the states encoded whole, and
    the rows encoded, by checkpoints."""
    calls = {"state_to_json": [], "state_to_dict": [], "row_json": []}
    for name, log in calls.items():
        original = getattr(checkpoint_module, name)

        def counting(*args, original=original, log=log):
            log.append(args[0])
            return original(*args)

        monkeypatch.setattr(checkpoint_module, name, counting)
    return calls


def append_rows(durable, first, count):
    for value in range(first, first + count):
        added = Const(SnapshotState(ROWS, [["x", value]]))
        durable.execute(ModifyState("r", Union(Rollback("r", NOW), added)))


def test_each_checkpoint_encodes_only_new_states_and_rows(encodings):
    durable = DurableDatabase(MemoryStore(), checkpoint_every=0)
    durable.execute(DefineRelation("r", "rollback"))
    for round_ in range(3):
        append_rows(durable, round_ * 50, 50)
        for log in encodings.values():
            log.clear()
        durable.checkpoint()
        # each version adds one tuple to the one before it, so every new
        # state is assembled from cached rows and each row encoded once
        assert len(encodings["state_to_json"]) == 50
        assert encodings["state_to_dict"] == []
        assert len(encodings["row_json"]) == 50
        assert len(durable._fragments) == 50 * (round_ + 1)
    durable.close()


def test_states_sharing_no_rows_are_encoded_whole(encodings):
    store = MemoryStore()
    durable = DurableDatabase(store, checkpoint_every=0)
    durable.execute(DefineRelation("r", "rollback"))
    append_rows(durable, 0, 30)
    durable.checkpoint()
    durable.close()
    # recovery decodes every state on its own: no tuple is shared
    reopened = DurableDatabase(store, checkpoint_every=0)
    for log in encodings.values():
        log.clear()
    reopened.checkpoint()
    assert len(encodings["state_to_json"]) == 1  # the newest state
    assert len(encodings["state_to_dict"]) == 29
    assert len(encodings["row_json"]) == 30
    append_rows(reopened, 30, 5)
    for log in encodings.values():
        log.clear()
    reopened.checkpoint()
    assert len(encodings["state_to_json"]) == 5
    assert encodings["state_to_dict"] == []
    assert len(encodings["row_json"]) == 5
    reopened.close()


def test_memo_and_fresh_checkpoints_are_byte_identical():
    durable = DurableDatabase(MemoryStore(), checkpoint_every=0)
    durable.execute(DefineRelation("r", "temporal"))
    durable.execute(DefineRelation("s", "snapshot"))
    fragments = StateFragments()
    for step in range(4):
        durable.execute(
            ModifyState(
                "r",
                Const(
                    HistoricalState.from_rows(
                        WHO, [(["ann\\" + "é" * step], [(step, FOREVER)])]
                    )
                ),
            )
        )
        durable.execute(
            ModifyState("s", Const(SnapshotState(ROWS, [['"', step]])))
        )
        memo_store, fresh_store = MemoryStore(), MemoryStore()
        name = write_checkpoint(memo_store, durable.database, step, fragments)
        write_checkpoint(fresh_store, durable.database, step)
        assert memo_store.read(name) == fresh_store.read(name)
        assert read_checkpoint(memo_store, name) == (step, durable.database)
    durable.close()
