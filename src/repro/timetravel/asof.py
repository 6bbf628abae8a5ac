"""Pinning expressions to a transaction, and virtual views."""

from __future__ import annotations

from typing import Optional

from repro.errors import ExpressionError
from repro.core.database import Database
from repro.core.expressions import Const, Expression, Rollback
from repro.core.txn import NOW, Numeral, TransactionNumber, is_now

__all__ = ["as_of", "View"]


def as_of(expression: Expression, txn: TransactionNumber) -> Expression:
    """The expression with every database-relative ``now`` pinned to
    ``txn``.

    ``ρ(R, now)`` becomes ``ρ(R, txn)``; explicit numerals are left
    alone (they already denote fixed past states); constants are
    timeless.  Evaluating the result against the *current* database
    yields what the original expression would have yielded against the
    database as of ``txn`` — provided every source relation keeps
    history (``ρ`` with a numeral requires a rollback/temporal relation,
    and the evaluation will say so otherwise).
    """
    if isinstance(expression, Const):
        return expression
    if isinstance(expression, Rollback):
        if is_now(expression.numeral):
            return Rollback(expression.identifier, txn)
        if expression.numeral > txn:
            raise ExpressionError(
                f"cannot pin to transaction {txn}: the expression "
                f"already references the later transaction "
                f"{expression.numeral} explicitly"
            )
        return expression
    children = expression.children()
    if children:
        return expression.with_children(
            [as_of(child, txn) for child in children]
        )
    raise ExpressionError(
        f"cannot pin expression {expression!r} to a transaction"
    )


class View:
    """A named virtual relation defined by an expression.

    A view has no stored states; its state as of transaction ``k`` is
    the pinned expression evaluated against the database.  Because
    expressions are side-effect-free, a view over rollback/temporal
    sources is itself rollback-able for free.
    """

    __slots__ = ("name", "expression")

    def __init__(self, name: str, expression: Expression) -> None:
        if not name:
            raise ExpressionError("a view needs a name")
        self.name = name
        self.expression = expression

    def state(
        self, database: Database, numeral: Numeral = NOW
    ):
        """The view's state as of ``numeral`` (default: now)."""
        if is_now(numeral):
            return self.expression.evaluate(database)
        pinned = as_of(self.expression, int(numeral))  # type: ignore[arg-type]
        return pinned.evaluate(database)

    def __repr__(self) -> str:
        return f"View({self.name}, {self.expression!r})"
