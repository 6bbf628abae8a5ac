"""Executing the paper's commands against a physical backend.

:class:`VersionedDatabase` is the bridge between the *logical* language
(commands and expressions from :mod:`repro.core`) and a *physical*
:class:`~repro.storage.backend.StorageBackend`.  It maintains the global
transaction counter and interprets ``define_relation`` / ``modify_state``
exactly as the denotational semantics prescribes, but persists relation
states through the backend instead of the in-memory ``RELATION`` value.

Correctness claim (the paper's Section 5): a physical implementation is
correct iff it is observation-equivalent to the simple semantics.
:func:`backends_agree` operationalizes the check, and the test suite plus
experiment E7 run it for every backend over randomized update streams.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import CommandError, RelationTypeError, StorageError
from repro.core.commands import Command, DefineRelation, ModifyState
from repro.core.commands import Sequence as CommandSequence
from repro.core.expressions import (
    EMPTY_SET,
    Expression,
    is_empty_set,
)
from repro.obsv import registry as _obsv
from repro.core.relation import EMPTY_STATE, RelationType
from repro.core.txn import TransactionNumber
from repro.historical.state import HistoricalState
from repro.snapshot.state import SnapshotState
from repro.storage.backend import State, StorageBackend

__all__ = ["VersionedDatabase", "backends_agree"]


class _BackendRelationView:
    """The slice of the ``Relation`` interface expressions need, served
    from a backend."""

    __slots__ = ("_backend", "_identifier")

    def __init__(self, backend: StorageBackend, identifier: str) -> None:
        self._backend = backend
        self._identifier = identifier

    @property
    def rtype(self) -> RelationType:
        return self._backend.type_of(self._identifier)

    def find_state(self, txn: TransactionNumber):
        state = self._backend.state_at(self._identifier, txn)
        return EMPTY_STATE if state is None else state

    @property
    def history_length(self) -> int:
        # ``version_count`` is an O(1) length read; materializing the
        # transaction-number tuple here made every expression-evaluation
        # read pay O(history).
        return self._backend.version_count(self._identifier)

    @property
    def current_state(self):
        txn = self._backend.latest_txn(self._identifier)
        if txn is None:
            return EMPTY_STATE
        return self._backend.state_at(self._identifier, txn)


class _BackendDatabaseView:
    """The slice of the ``Database`` interface expressions need."""

    __slots__ = ("_backend", "_txn")

    def __init__(self, backend: StorageBackend, txn: TransactionNumber) -> None:
        self._backend = backend
        self._txn = txn

    @property
    def transaction_number(self) -> TransactionNumber:
        return self._txn

    def lookup(self, identifier: str) -> Optional[_BackendRelationView]:
        # ``has`` is an O(1) membership probe; ``identifiers()`` would
        # rebuild a sorted tuple on every expression-evaluation lookup.
        if not self._backend.has(identifier):
            return None
        return _BackendRelationView(self._backend, identifier)

    def require(self, identifier: str) -> _BackendRelationView:
        view = self.lookup(identifier)
        if view is None:
            from repro.errors import UnknownRelationError

            raise UnknownRelationError(
                f"identifier {identifier!r} is unbound in this "
                "versioned database"
            )
        return view


class VersionedDatabase:
    """A database whose relation states live in a storage backend.

    >>> vdb = VersionedDatabase(FullCopyBackend())        # doctest: +SKIP
    >>> vdb.execute(DefineRelation('r', 'rollback'))      # doctest: +SKIP
    """

    def __init__(self, backend: StorageBackend) -> None:
        self._backend = backend
        self._txn: TransactionNumber = 0

    @property
    def backend(self) -> StorageBackend:
        """The underlying physical backend."""
        return self._backend

    @property
    def transaction_number(self) -> TransactionNumber:
        """The most recent transaction number."""
        return self._txn

    # -- command execution ------------------------------------------------------

    def execute(self, command: Command) -> None:
        """Execute a command with the paper's semantics, persisting
        through the backend.

        Mirrors :meth:`repro.core.commands.Command.execute` exactly —
        including the ``strict`` escape hatch (raise instead of the
        paper's silent no-op) — so that the physical path stays
        observation-equivalent to the pure semantics, flags included.
        """
        if isinstance(command, CommandSequence):
            self.execute(command.first)
            self.execute(command.second)
            return
        if _obsv.enabled():
            _obsv.get().counter("versioned_db.commands_executed").inc()
        if isinstance(command, DefineRelation):
            if self._backend.has(command.identifier):
                if command.strict:
                    raise CommandError(
                        f"define_relation: {command.identifier!r} is "
                        "already defined"
                    )
                return  # paper semantics: no-op on a bound identifier
            self._backend.create(command.identifier, command.rtype)
            self._txn += 1
            return
        if isinstance(command, ModifyState):
            if not self._backend.has(command.identifier):
                if command.strict:
                    raise CommandError(
                        f"modify_state: {command.identifier!r} is not "
                        "defined"
                    )
                return  # paper semantics: no-op on an unbound identifier
            self.set_state(
                command.identifier, self.evaluate(command.expression)
            )
            return
        raise CommandError(f"cannot execute command {command!r}")

    def execute_all(self, commands: Iterable[Command]) -> None:
        """Execute commands in order."""
        for command in commands:
            self.execute(command)

    # -- direct write path (used by workload streams) ------------------------------

    def define(
        self,
        identifier: str,
        rtype: RelationType | str,
        *,
        strict: bool = False,
    ) -> None:
        """``define_relation`` without going through a Command object.

        Matches the ``DefineRelation`` command path exactly: redefining a
        bound identifier is the paper's silent no-op (no transaction
        number consumed, original type retained) unless ``strict=True``,
        which raises :class:`CommandError` — the same escape hatch the
        command carries.
        """
        if isinstance(rtype, str):
            rtype = RelationType.from_name(rtype)
        if self._backend.has(identifier):
            if strict:
                raise CommandError(
                    f"define: {identifier!r} is already defined"
                )
            return  # paper semantics: no-op on a bound identifier
        self._backend.create(identifier, rtype)
        self._txn += 1

    def set_state(self, identifier: str, state) -> None:
        """Install an explicit new state (the ``modify_state`` write path
        once the expression has been evaluated)."""
        rtype = self._backend.type_of(identifier)
        state = self._resolve_empty(identifier, state)
        self._check_kind(rtype, state)
        self._txn += 1
        self._backend.install(identifier, state, self._txn)

    # -- read path ----------------------------------------------------------------

    def evaluate(self, expression: Expression):
        """Evaluate an algebraic expression against the current contents
        (the semantic function **E** over the backend)."""
        return expression.evaluate(
            _BackendDatabaseView(self._backend, self._txn)  # type: ignore[arg-type]
        )

    def state_at(
        self, identifier: str, txn: TransactionNumber
    ) -> Optional[State]:
        """``FINDSTATE`` directly against the backend."""
        return self._backend.state_at(identifier, txn)

    # -- recovery ---------------------------------------------------------------

    def restore(self, database) -> None:
        """Load a semantic :class:`~repro.core.database.Database` value
        into the backend — the crash-recovery path that rebuilds a
        physical representation from a checkpoint + WAL replay, and the
        replica re-snapshot path that rebuilds one from a shipped
        checkpoint.

        A non-empty backend is wiped first via
        :meth:`~repro.storage.backend.StorageBackend.clear`, which also
        drops its cached ``(identifier, version_index)`` reconstructions
        — without that, a cached pre-restore state could be served at
        coordinates the restored history reuses.  Every relation is then
        created and its full state sequence installed with the original
        transaction numbers, so subsequent ``state_at`` probes answer
        exactly as the restored value prescribes.
        """
        if self._backend.identifiers():
            try:
                self._backend.clear()
            except NotImplementedError:
                raise StorageError(
                    "restore over a non-empty backend needs "
                    f"{type(self._backend).__name__}.clear(); the "
                    "backend predates it — pass an empty backend instead"
                ) from None
        for identifier in database.state:
            relation = database.require(identifier)
            self._backend.create(identifier, relation.rtype)
            for state, txn in relation.rstate:
                self._backend.install(identifier, state, txn)
        self._txn = database.transaction_number

    def current(self, identifier: str) -> Optional[State]:
        """The relation's most recent state."""
        return self._backend.state_at(identifier, self._txn)

    # -- internal -------------------------------------------------------------------

    def _resolve_empty(self, identifier: str, state):
        if not is_empty_set(state) and state is not EMPTY_SET:
            return state
        latest = self._backend.state_at(identifier, self._txn)
        if latest is None:
            raise CommandError(
                f"cannot install the untyped empty set into "
                f"{identifier!r}: the relation has no prior state to "
                "take a schema from"
            )
        if isinstance(latest, HistoricalState):
            return HistoricalState.empty(latest.schema)
        return SnapshotState.empty(latest.schema)

    @staticmethod
    def _check_kind(rtype: RelationType, state) -> None:
        if rtype.stores_valid_time and not isinstance(
            state, HistoricalState
        ):
            raise RelationTypeError(
                f"{rtype.value} relations store historical states, got "
                f"{type(state).__name__}"
            )
        if not rtype.stores_valid_time and not isinstance(
            state, SnapshotState
        ):
            raise RelationTypeError(
                f"{rtype.value} relations store snapshot states, got "
                f"{type(state).__name__}"
            )


def backends_agree(
    backends: Sequence[StorageBackend],
    probes: Iterable[tuple[str, TransactionNumber]],
) -> bool:
    """Observation equivalence: every backend answers every
    ``(identifier, txn)`` probe with the same state (or the same absence).

    Raises :class:`StorageError` naming the first disagreement, so test
    failures are diagnosable.
    """
    backends = list(backends)
    if len(backends) < 2:
        return True
    reference = backends[0]
    for identifier, txn in probes:
        expected = reference.state_at(identifier, txn)
        for other in backends[1:]:
            actual = other.state_at(identifier, txn)
            if actual != expected:
                raise StorageError(
                    f"backends disagree at ({identifier!r}, txn {txn}): "
                    f"{reference.name} says "
                    f"{None if expected is None else len(expected)} "
                    f"tuples, {other.name} says "
                    f"{None if actual is None else len(actual)}"
                )
    return True
