"""Differential: MVCC vs the serial oracle, across all five backends.

Transactions with non-overlapping write sets never conflict under
first-committer-wins, and the serial level is the oracle: run the same
bodies in the same commit order through both levels and the committed
databases must be *identical* ``Database`` values — same version
chains, same transaction stamps.  The committed scripts are then
replayed into every physical storage backend, which
must agree with each other and with the in-memory chains at every
``(relation, txn)`` probe.
"""

from __future__ import annotations

import random

import pytest

from repro.concurrency import TransactionManager
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.optimizer.equivalence import states_equal
from repro.storage import (
    CheckpointDeltaBackend,
    DeltaBackend,
    FullCopyBackend,
    ReverseDeltaBackend,
    TupleTimestampBackend,
    VersionedDatabase,
)
from repro.storage.versioned_db import backends_agree

BACKENDS = [
    FullCopyBackend,
    DeltaBackend,
    ReverseDeltaBackend,
    CheckpointDeltaBackend,
    TupleTimestampBackend,
]

RELATIONS = ("A", "B", "C", "D")


def _bodies(make_state, seed: int, rounds: int):
    """Per-client transaction bodies with disjoint write sets: client i
    only ever writes relation ``RELATIONS[i]`` (reads its own relation
    too, so read sets stay disjoint and the serial oracle never
    aborts)."""
    rng = random.Random(seed)
    scripted: list[tuple[int, list]] = []
    for round_no in range(rounds):
        # fixed round-robin client order: any window of up to
        # len(RELATIONS) consecutive transactions touches distinct
        # clients, so in-flight write sets never overlap (the rng
        # still varies each transaction's append count)
        for client, relation in enumerate(RELATIONS):
            commands = []
            if round_no == 0:
                commands.append(DefineRelation(relation, "rollback"))
                commands.append(
                    ModifyState(
                        relation, Const(make_state(f"{relation}.init"))
                    )
                )
            appends = rng.randrange(1, 3)
            for n in range(appends):
                commands.append(
                    ModifyState(
                        relation,
                        Union(
                            Rollback(relation),
                            Const(
                                make_state(f"{relation}.{round_no}.{n}")
                            ),
                        ),
                    )
                )
            scripted.append((client, commands))
    return scripted


def _run(manager, scripted, interleave: int):
    """Drive ``scripted`` through ``manager`` with up to ``interleave``
    transactions in flight, committing in FIFO order so both levels
    assign identical commit stamps."""
    in_flight = []
    committed_scripts = []

    def drain():
        transaction = in_flight.pop(0)
        manager.commit(transaction)
        committed_scripts.append(list(transaction.commands))

    for _, commands in scripted:
        transaction = manager.begin()
        for command in commands:
            transaction.stage(command)
        in_flight.append(transaction)
        while len(in_flight) > interleave:
            drain()
    while in_flight:
        drain()
    return committed_scripts


@pytest.mark.parametrize("interleave", [1, 2, 3])
def test_disjoint_writes_identical_databases(
    make_state, test_seed, interleave
):
    scripted = _bodies(make_state, test_seed, rounds=3)
    mvcc = TransactionManager(isolation="si")
    serial = TransactionManager()
    _run(mvcc, scripted, interleave)
    _run(serial, scripted, interleave)
    assert mvcc.abort_count == 0
    assert serial.abort_count == 0
    assert mvcc.database == serial.database  # chains, stamps, everything


def test_committed_scripts_replay_identically_on_all_backends(
    make_state, test_seed
):
    scripted = _bodies(make_state, test_seed, rounds=2)
    mvcc = TransactionManager(isolation="si")
    committed = _run(mvcc, scripted, interleave=3)
    assert mvcc.abort_count == 0

    versioned = [VersionedDatabase(cls()) for cls in BACKENDS]
    for vdb in versioned:
        for script in committed:
            vdb.execute_all(script)

    final_txn = mvcc.database.transaction_number
    assert all(v.transaction_number == final_txn for v in versioned)

    probes = [
        (relation, txn)
        for relation in RELATIONS
        for txn in range(final_txn + 1)
    ]
    assert backends_agree([v.backend for v in versioned], probes)

    # ...and the backends agree with the in-memory MVCC version chains
    state = mvcc.database.state
    for relation in RELATIONS:
        chain = state.require(relation)
        current = versioned[0].backend.state_at(relation, final_txn)
        assert states_equal(chain.current_state, current), relation


def test_ssi_disjoint_writes_also_match_oracle(make_state, test_seed):
    scripted = _bodies(make_state, test_seed + 1, rounds=2)
    ssi = TransactionManager(isolation="ssi")
    serial = TransactionManager()
    _run(ssi, scripted, interleave=3)
    _run(serial, scripted, interleave=3)
    assert ssi.abort_count == 0
    assert ssi.database == serial.database
