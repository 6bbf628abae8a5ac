"""Migration of old rollback history into an archive, and tiered reads."""

from __future__ import annotations

from typing import Optional

from repro.errors import RelationTypeError, StorageError
from repro.core.database import Database
from repro.core.expressions import EMPTY_SET
from repro.core.relation import Relation
from repro.core.txn import NOW, Numeral, TransactionNumber, is_now
from repro.archive.store import ArchivedSegment, ArchiveStore

__all__ = ["archive_before", "TieredReader"]


def archive_before(
    database: Database,
    identifier: str,
    cutoff_txn: TransactionNumber,
    store: ArchiveStore,
) -> Database:
    """Move the relation's (state, txn) pairs with txn < ``cutoff_txn``
    into ``store``; return the database with only the remaining pairs.

    Only rollback and temporal relations can be archived (snapshot and
    historical relations have no history to migrate).  Archiving is a
    *physical* reorganization: the information content of (live database,
    archive) is unchanged, which :class:`TieredReader` and the tests make
    precise.  The database's transaction number is untouched — archiving
    is not a transaction on the data.
    """
    relation = database.require(identifier)
    if not relation.rtype.keeps_history:
        raise RelationTypeError(
            f"cannot archive {relation.rtype.value} relation "
            f"{identifier!r}; only rollback and temporal relations "
            "retain history"
        )
    old_pairs = [
        (state, txn)
        for state, txn in relation.rstate
        if txn < cutoff_txn
    ]
    if not old_pairs:
        raise StorageError(
            f"nothing to archive: {identifier!r} has no states before "
            f"transaction {cutoff_txn}"
        )
    if len(old_pairs) == relation.history_length:
        raise StorageError(
            f"refusing to archive the entire history of {identifier!r}; "
            "keep at least the most recent state live"
        )
    live_pairs = [
        (state, txn)
        for state, txn in relation.rstate
        if txn >= cutoff_txn
    ]
    store.add_segment(ArchivedSegment(identifier, old_pairs))
    live_relation = Relation(relation.rtype, live_pairs)
    return database.with_binding(
        identifier, live_relation, database.transaction_number
    )


class TieredReader:
    """``FINDSTATE`` across the live database and an archive.

    The paper's ``ρ(I, N)`` semantics is preserved: a probe transaction
    that predates the live relation's first recorded state is answered
    from the archive; everything else is answered live.
    """

    def __init__(self, database: Database, store: ArchiveStore) -> None:
        self._database = database
        self._store = store

    @property
    def database(self) -> Database:
        """The live database value."""
        return self._database

    def rollback(self, identifier: str, numeral: Numeral = NOW):
        """``ρ(I, N)`` over live + archived history.  Returns the
        paper's ∅ marker when no state anywhere qualifies."""
        relation = self._database.require(identifier)
        probe = (
            self._database.transaction_number
            if is_now(numeral)
            else int(numeral)  # type: ignore[arg-type]
        )
        live = relation.rstate
        if live and probe >= live[0][1]:
            return relation.find_state(probe)
        archived = self._store.find_state(identifier, probe)
        if archived is None:
            return EMPTY_SET
        return archived

    def history_length(self, identifier: str) -> int:
        """Total recorded states, live plus archived."""
        live = self._database.require(identifier).history_length
        archived = sum(
            len(segment)
            for segment in self._store.segments_of(identifier)
        )
        return live + archived
