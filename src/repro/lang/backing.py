"""The one seam between a session and the store that owns its database.

In the paper a database is one value, ``DATABASE ≜ STATE × TXN``, and a
sentence is function composition over that value.  A
:class:`~repro.lang.session.Session` therefore holds exactly one owner
of the current value — its *backing* — and talks to it only through the
small :class:`Backing` protocol.  Five classes implement it:
:class:`MemoryBacking` (the plain in-memory holder below),
:class:`~repro.durability.DurableDatabase` (WAL + checkpoints),
:class:`~repro.replication.Replica` (read-only follower),
:class:`~repro.sharding.ShardedDatabase` (coordinator over N shards)
and :class:`~repro.cluster.Cluster` (sharded primaries × replica sets).
"""

from __future__ import annotations

from typing import Protocol, Union

from repro.core.commands import Command
from repro.core.database import EMPTY_DATABASE, Database
from repro.core.expressions import Expression

__all__ = ["Backing", "MemoryBacking"]

#: WAL fsync policy of durable, sharded and server backings.
DEFAULT_FSYNC = "batch(64, 100)"
#: Commands between automatic checkpoints of a durable backing.
DEFAULT_CHECKPOINT_EVERY = 256


class Backing(Protocol):
    """What a session needs from the owner of its database value.

    ``database`` is the current value (coordinators assemble it on
    demand); ``execute`` returns the new value, or the new global
    transaction number on coordinators; ``catch_up`` applies shipped
    records and returns how many it applied.
    """

    #: True when reads may run the session's compiled plans straight
    #: against ``database``; False when they must go through
    #: ``evaluate`` (a replica's staleness bound, a coordinator's
    #: scatter-gather).
    compiled_reads: bool
    database: Database
    transaction_number: int

    def execute(self, command: Command) -> Union[Database, int]: ...
    def evaluate(self, expression: Expression): ...
    def sync(self) -> None: ...
    def checkpoint(self) -> None: ...
    def catch_up(self) -> int: ...
    def close(self) -> None: ...


class MemoryBacking:
    """The plain backing: one database value held in memory."""

    __slots__ = ("database",)

    compiled_reads = True

    def __init__(self, database: Database = EMPTY_DATABASE) -> None:
        self.database = database

    @property
    def transaction_number(self) -> int:
        return self.database.transaction_number

    def execute(self, command: Command) -> Database:
        self.database = command.execute(self.database)
        return self.database

    def evaluate(self, expression: Expression):
        return expression.evaluate(self.database)

    def sync(self) -> None:
        pass

    checkpoint = close = sync

    def catch_up(self) -> int:
        return 0
