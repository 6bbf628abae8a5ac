"""Generated inputs, each built twice: as source text for the program
and as a core AST for the oracle.

The oracle never goes through the program's parser, optimizer or
compiler: it evaluates the AST with :func:`repro.core.sentences.run` /
:func:`repro.core.commands.execute` and ``Expression.evaluate``, the
pure semantic functions.  A parse or plan error therefore shows up as a
mismatch, not as two identical wrong answers.
"""

from __future__ import annotations

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import (
    Const,
    Difference,
    Product,
    Project,
    Rollback,
    Select,
    Union,
)
from repro.core.txn import NOW
from repro.snapshot.attributes import INTEGER, STRING, Attribute
from repro.snapshot.predicates import And, AttributeRef, Comparison, Literal
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

_DOMAINS = {"integer": INTEGER, "string": STRING}


class Q:
    """An expression as (text, AST)."""

    __slots__ = ("text", "ast")

    def __init__(self, text: str, ast) -> None:
        self.text = text
        self.ast = ast

    def __or__(self, other: "Q") -> "Q":
        return Q(f"({self.text} union {other.text})", Union(self.ast, other.ast))

    def __sub__(self, other: "Q") -> "Q":
        return Q(f"({self.text} minus {other.text})",
                 Difference(self.ast, other.ast))

    def __mul__(self, other: "Q") -> "Q":
        return Q(f"({self.text} times {other.text})",
                 Product(self.ast, other.ast))


class Cmd:
    """A command as (text, AST); ``size`` is its text in bytes, the
    unit of ``bytes_*_per_user_byte``."""

    __slots__ = ("text", "ast")

    def __init__(self, text: str, ast) -> None:
        self.text = text
        self.ast = ast

    @property
    def size(self) -> int:
        return len(self.text.encode("utf-8"))


def _literal(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(value)


class Rel:
    """A rollback relation with a typed schema."""

    def __init__(self, name: str, columns: list[tuple[str, str]]) -> None:
        self.name = name
        self.columns = columns
        self.schema = Schema(
            [Attribute(column, _DOMAINS[domain]) for column, domain in columns]
        )
        self._decl = ", ".join(f"{c}: {d}" for c, d in columns)

    def define(self) -> Cmd:
        return Cmd(f"define_relation({self.name}, rollback);",
                   DefineRelation(self.name, "rollback"))

    def modify(self, expression: Q) -> Cmd:
        return Cmd(f"modify_state({self.name}, {expression.text});",
                   ModifyState(self.name, expression.ast))

    def at(self, txn=None) -> Q:
        numeral = "now" if txn is None else str(txn)
        return Q(f"rollback({self.name}, {numeral})",
                 Rollback(self.name, NOW if txn is None else txn))

    def const(self, rows: list[tuple]) -> Q:
        body = ", ".join(
            "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows
        )
        return Q(f"state ({self._decl}) {{ {body} }}",
                 Const(SnapshotState(self.schema, rows)))


def select(conditions: list[tuple[str, str, object]], operand: Q) -> Q:
    """``select[a op v and ...](operand)``; a value written ``"@b"``
    names attribute ``b`` instead of a literal."""
    texts = []
    predicate = None
    for attribute, op, value in conditions:
        if isinstance(value, str) and value.startswith("@"):
            right, right_text = AttributeRef(value[1:]), value[1:]
        else:
            right, right_text = Literal(value), _literal(value)
        texts.append(f"{attribute} {op} {right_text}")
        term = Comparison(AttributeRef(attribute), op, right)
        predicate = term if predicate is None else And(predicate, term)
    return Q(f"select[{' and '.join(texts)}]({operand.text})",
             Select(operand.ast, predicate))


def project(names: list[str], operand: Q) -> Q:
    return Q(f"project[{', '.join(names)}]({operand.text})",
             Project(operand.ast, names))
