"""Client-visible transactions."""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import ConcurrencyError
from repro.core.commands import Command, DefineRelation, ModifyState
from repro.core.commands import Sequence as CommandSequence
from repro.core.database import Database
from repro.core.expressions import Expression, Rollback, subtrees

__all__ = ["TransactionStatus", "Transaction"]


class TransactionStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


def _written_identifiers(command: Command) -> frozenset[str]:
    if isinstance(command, (DefineRelation, ModifyState)):
        return frozenset({command.identifier})
    if isinstance(command, CommandSequence):
        return _written_identifiers(command.first) | _written_identifiers(
            command.second
        )
    return frozenset()


def _read_identifiers_of_expression(expression: Expression) -> frozenset[str]:
    return frozenset(
        node.identifier
        for node in subtrees(expression)
        if isinstance(node, Rollback)
    )


def _read_identifiers(command: Command) -> frozenset[str]:
    if isinstance(command, ModifyState):
        return _read_identifiers_of_expression(command.expression)
    if isinstance(command, CommandSequence):
        return _read_identifiers(command.first) | _read_identifiers(
            command.second
        )
    return frozenset()


class Transaction:
    """A unit of work with snapshot reads and staged writes.

    A transaction reads against the database as of its *begin* time (a
    consistent snapshot — trivially consistent here because databases are
    immutable values) and stages commands.  Nothing touches the shared
    database until :meth:`TransactionManager.commit` validates and applies
    the staged commands atomically under the next commit timestamp.
    """

    __slots__ = (
        "txn_id",
        "begin_txn",
        "snapshot",
        "commands",
        "status",
        "commit_txn",
        "read_set",
        "write_set",
    )

    def __init__(
        self, txn_id: int, begin_txn: int, snapshot: Database
    ) -> None:
        self.txn_id = txn_id
        #: The database transaction number when this transaction began.
        self.begin_txn = begin_txn
        #: The immutable database value this transaction reads.
        self.snapshot = snapshot
        self.commands: list[Command] = []
        self.status = TransactionStatus.ACTIVE
        #: The commit transaction number, set on commit.
        self.commit_txn: Optional[int] = None
        #: Identifiers read — explicitly or inside staged expressions.
        #: Kept up to date by :meth:`read` and :meth:`stage`, so each
        #: expression is walked once however often a manager asks.
        self.read_set: frozenset[str] = frozenset()
        #: Identifiers the staged commands write.
        self.write_set: frozenset[str] = frozenset()

    # -- client operations -------------------------------------------------------

    def read(self, expression: Expression):
        """Evaluate an expression against the begin-time snapshot,
        recording the relations it touched in the read set."""
        self._require_active()
        self.read_set |= _read_identifiers_of_expression(expression)
        return expression.evaluate(self.snapshot)

    def stage(self, command: Command) -> None:
        """Add a command to the transaction's write script."""
        self._require_active()
        self.commands.append(command)
        self.read_set |= _read_identifiers(command)
        self.write_set |= _written_identifiers(command)

    # -- internal ------------------------------------------------------------------

    def _require_active(self) -> None:
        if self.status is not TransactionStatus.ACTIVE:
            raise ConcurrencyError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.txn_id}, status={self.status.value}, "
            f"begin={self.begin_txn}, commit={self.commit_txn})"
        )
