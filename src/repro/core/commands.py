"""Commands and the semantic function **C**.

Section 3.5 of the paper:

    ``C : COMMAND → [DATABASE → [DATABASE]]``

"Commands are the only language constructs that change the database.
Execution of a command either produces a new database or leaves the
database unchanged."  Because our databases are immutable values, "changes"
are realized functionally: :meth:`Command.execute` returns a new
:class:`~repro.core.database.Database`.

The two commands are:

* ``define_relation(I, Y)`` — bind type ``Y`` and an empty state sequence to
  an unbound identifier ``I``; a no-op when ``I`` is already bound.
* ``modify_state(I, E)`` — evaluate ``E`` against the *current* database and
  install the resulting state in relation ``I`` at transaction ``n + 1``:
  replacing the single element for snapshot/historical relations, appending
  for rollback/temporal relations; a no-op when ``I`` is unbound.

Sequencing ``C1 ; C2`` composes: ``C[[C1, C2]] d = C[[C2]](C[[C1]] d)``.

Note the paper's exact no-op semantics: ``define_relation`` on a bound
identifier and ``modify_state`` on an unbound identifier "leave the database
unchanged" — including its transaction number.  The strict mode offered by
:class:`ModifyState` and :class:`DefineRelation` (``strict=True``) instead
raises, which implementations typically prefer; the default follows the
paper.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import CommandError, RelationTypeError
from repro.core.database import Database
from repro.core.expressions import Expression
from repro.core.relation import Relation, RelationType, find_type
from repro.historical.state import HistoricalState
from repro.snapshot.state import SnapshotState

__all__ = [
    "Command",
    "DefineRelation",
    "ModifyState",
    "Sequence",
    "execute",
    "sequence",
]


class Command:
    """Base class for commands; the semantic function **C** restricted to
    each construct is its :meth:`execute`."""

    __slots__ = ()

    def execute(self, database: Database) -> Database:
        """``C[[self]] database`` — the resulting database."""
        raise NotImplementedError

    def then(self, next_command: "Command") -> "Sequence":
        """Sequential composition ``self ; next_command``."""
        return Sequence(self, next_command)


class DefineRelation(Command):
    """``define_relation(I, Y)`` (Section 3.5).

    If ``I`` is unbound, bind it to ``(Y, ⟨⟩)`` — the named type and an
    empty state sequence — and increment the database's transaction number.
    If ``I`` is already bound, leave the database unchanged (or raise, in
    strict mode).
    """

    __slots__ = ("identifier", "rtype", "strict")

    def __init__(
        self,
        identifier: str,
        rtype: RelationType | str,
        strict: bool = False,
    ) -> None:
        if not identifier or not isinstance(identifier, str):
            raise CommandError(
                f"define_relation requires an identifier, got {identifier!r}"
            )
        if isinstance(rtype, str):
            rtype = RelationType.from_name(rtype)
        self.identifier = identifier
        self.rtype = rtype
        self.strict = strict

    def execute(self, database: Database) -> Database:
        if database.state.is_bound(self.identifier):
            if self.strict:
                raise CommandError(
                    f"define_relation: {self.identifier!r} is already "
                    "defined"
                )
            return database
        new_relation = Relation(self.rtype, ())
        return database.with_binding(
            self.identifier,
            new_relation,
            database.transaction_number + 1,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DefineRelation)
            and self.identifier == other.identifier
            and self.rtype == other.rtype
        )

    def __hash__(self) -> int:
        return hash(("DefineRelation", self.identifier, self.rtype))

    def __repr__(self) -> str:
        return f"define_relation({self.identifier}, {self.rtype.value})"


class ModifyState(Command):
    """``modify_state(I, E)`` (Sections 3.5 and 4).

    Evaluate ``E`` on the current database to produce a state, pair it with
    transaction number ``n + 1``, and install it in relation ``I``:
    *replacing* the single element for snapshot and historical relations,
    *appending* for rollback and temporal relations.  If ``I`` is unbound,
    leave the database unchanged (or raise, in strict mode).

    Append, delete and replace (Quel-style updates) are all special cases
    obtained by choosing ``E`` appropriately — see :mod:`repro.quel`.
    """

    __slots__ = ("identifier", "expression", "strict")

    def __init__(
        self,
        identifier: str,
        expression: Expression,
        strict: bool = False,
    ) -> None:
        if not identifier or not isinstance(identifier, str):
            raise CommandError(
                f"modify_state requires an identifier, got {identifier!r}"
            )
        if not isinstance(expression, Expression):
            raise CommandError(
                f"modify_state requires an Expression, got {expression!r}"
            )
        self.identifier = identifier
        self.expression = expression
        self.strict = strict

    def execute(self, database: Database) -> Database:
        relation = database.lookup(self.identifier)
        if relation is None:
            if self.strict:
                raise CommandError(
                    f"modify_state: {self.identifier!r} is not defined"
                )
            return database
        # E is evaluated against the database *before* the change; the new
        # state is stamped with transaction number n + 1.
        new_state = self.expression.evaluate(database)
        rtype = find_type(relation, database.transaction_number)
        new_state = self._resolve_empty_set(relation, rtype, new_state)
        self._check_state_kind(rtype, new_state)
        next_txn = database.transaction_number + 1
        return database.with_binding(
            self.identifier,
            relation.with_new_state(new_state, next_txn),
            next_txn,
        )

    def _resolve_empty_set(
        self, relation: Relation, rtype: RelationType, state: object
    ):
        """Give the paper's untyped ∅ a schema before it is stored.

        The expression may denote ∅ (e.g. ``ρ(R, now) − ρ(R, now)`` via a
        rollback on an empty relation).  Our states are typed by a schema,
        so we borrow the schema of the relation's most recent state; if
        the relation has never had a state, storing ∅ carries no
        information and we reject it with a clear error.
        """
        from repro.core.expressions import is_empty_set

        if not is_empty_set(state):
            return state
        if relation.history_length == 0:
            raise CommandError(
                f"modify_state({self.identifier!r}, ...): the expression "
                "denotes the untyped empty set and the relation has no "
                "prior state to take a schema from; use an explicit "
                "empty constant state instead"
            )
        latest = relation.current_state
        if isinstance(latest, HistoricalState):
            return HistoricalState.empty(latest.schema)
        assert isinstance(latest, SnapshotState)
        return SnapshotState.empty(latest.schema)

    @staticmethod
    def _check_state_kind(rtype: RelationType, state: object) -> None:
        if rtype.stores_valid_time and not isinstance(
            state, HistoricalState
        ):
            raise RelationTypeError(
                f"modify_state on a {rtype.value} relation requires an "
                "expression denoting an historical state, got "
                f"{type(state).__name__}"
            )
        if not rtype.stores_valid_time and not isinstance(
            state, SnapshotState
        ):
            raise RelationTypeError(
                f"modify_state on a {rtype.value} relation requires an "
                "expression denoting a snapshot state, got "
                f"{type(state).__name__}"
            )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModifyState)
            and self.identifier == other.identifier
            and self.expression == other.expression
        )

    def __hash__(self) -> int:
        return hash(("ModifyState", self.identifier, self.expression))

    def __repr__(self) -> str:
        return f"modify_state({self.identifier}, {self.expression!r})"


class Sequence(Command):
    """``C1 ; C2`` — ``C[[C1, C2]] d ≜ C[[C2]](C[[C1]] d)`` (Section 3.5)."""

    __slots__ = ("first", "second")

    def __init__(self, first: Command, second: Command) -> None:
        self.first = first
        self.second = second

    def execute(self, database: Database) -> Database:
        return self.second.execute(self.first.execute(database))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sequence)
            and self.first == other.first
            and self.second == other.second
        )

    def __hash__(self) -> int:
        return hash(("Sequence", self.first, self.second))

    def __repr__(self) -> str:
        return f"{self.first!r}; {self.second!r}"


def sequence(commands: Iterable[Command]) -> Command:
    """Fold a non-empty iterable of commands into :class:`Sequence`
    nodes.

    The tree is balanced rather than left- or right-nested: sequential
    composition is associative (``C[[C1, C2]] d = C[[C2]](C[[C1]] d)``),
    so the shape is semantically irrelevant, and a balanced shape keeps
    the execution recursion depth at O(log n) for long sentences.
    """
    items = list(commands)
    if not items:
        raise CommandError("a command sequence must be non-empty")

    def build(lo: int, hi: int) -> Command:
        if hi - lo == 1:
            return items[lo]
        mid = (lo + hi) // 2
        return Sequence(build(lo, mid), build(mid, hi))

    return build(0, len(items))


def execute(command: Command, database: Database) -> Database:
    """The semantic function **C** as a standalone entry point:
    ``execute(c, d)`` is ``C[[c]] d``."""
    return command.execute(database)
