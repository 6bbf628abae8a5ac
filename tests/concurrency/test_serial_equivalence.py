"""The serial level makes the same decisions as plain backward validation.

The serial level checks a transaction's read set against the
relation → last-commit map the si/ssi levels use for their write sets.
The original rule scanned a log instead: each commit that advanced the
transaction number left (transaction number before commit, write set),
and a committing transaction aborted iff some entry at or after its
begin point wrote a relation it read.  The two are the same rule
("a writer committed after T began" ⇔ ``last_writer[r] > T.begin``);
this test replays random schedules through both and demands the same
commit/abort decision for every transaction and the same final
database.

The schedules also touch a relation the setup never defines, so some
commits are the paper's no-op (``modify_state`` on an unbound
identifier) and must not count as writes.
"""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.concurrency import Transaction, TransactionManager
from repro.concurrency import TransactionStatus
from repro.core.commands import sequence
from repro.core.database import EMPTY_DATABASE
from repro.errors import ConcurrencyError
from repro.workloads.histories import run_schedule, schedule_from_choices

DEFINED = ("A", "B")
GHOST = "G"  # never defined: writes to it are no-ops


class BackwardValidation:
    """The reference: scan a log of (txn before commit, write set) of
    every commit that advanced the transaction number."""

    def __init__(self) -> None:
        self.database = EMPTY_DATABASE
        self.log: list[tuple[int, frozenset]] = []
        self.ids = itertools.count(1)

    def begin(self) -> Transaction:
        database = self.database
        return Transaction(
            next(self.ids), database.transaction_number, database
        )

    def commit(self, transaction: Transaction):
        for before, writes in self.log:
            if before >= transaction.begin_txn and (
                transaction.read_set & writes
            ):
                transaction.status = TransactionStatus.ABORTED
                raise ConcurrencyError("stale read")
        new = self.database
        if transaction.commands:
            new = sequence(transaction.commands).execute(new)
        if new.transaction_number > self.database.transaction_number:
            self.log.append(
                (self.database.transaction_number, transaction.write_set)
            )
        self.database = new
        transaction.status = TransactionStatus.COMMITTED
        transaction.commit_txn = new.transaction_number
        return new

    def abort(self, transaction: Transaction) -> None:
        transaction.status = TransactionStatus.ABORTED


@settings(max_examples=200, deadline=None)
@given(
    choices=st.lists(st.integers(min_value=0, max_value=4095), max_size=80),
    txn_count=st.integers(min_value=2, max_value=6),
)
# t1.read(A), t0.append(A), t0.commit, t1.commit: fails a manager that
# probes the write set instead of the read set
@example(choices=[1, 145, 0, 102], txn_count=2)
# t0.append(A), t1.append(G), t2.append(G), then all commit: fails a
# manager that records the no-op commit of t1 as a write of G
@example(choices=[0, 3, 1, 9, 2, 405], txn_count=3)
def test_serial_level_matches_backward_validation(choices, txn_count):
    schedule = [
        op
        for op in schedule_from_choices(
            choices, txn_count, DEFINED + (GHOST,)
        )
        # a read evaluates at once, and the ghost is unbound
        if not (op.kind == "read" and op.relation == GHOST)
    ]
    manager = TransactionManager()
    reference = BackwardValidation()
    ours = run_schedule(manager, schedule, DEFINED)
    theirs = run_schedule(reference, schedule, DEFINED)
    assert [(t.status, t.commit_txn) for t in ours.txns] == [
        (t.status, t.commit_txn) for t in theirs.txns
    ], f"schedule={schedule}"
    assert manager.database == reference.database
    assert manager.outstanding_count == 0
