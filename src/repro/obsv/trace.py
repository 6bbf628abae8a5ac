"""EXPLAIN-style traces: the operator tree with per-node timings.

:func:`trace_evaluate` compiles an expression with
:func:`repro.core.compile.compile_expression` — the engine that serves
reads — and runs that plan's steps one at a time, recording per step
the wall-clock cost of the node's *local* work (excluding children),
the cumulative subtree cost, and the result cardinality.  The trace is
the real evaluation, not a re-implementation that could drift: each
step calls the handler the plan resolved.  A subtree the tree repeats
is one step, run once; its trace node appears under every parent.

:func:`trace_command` runs a command and attaches the expression trace of
its ``modify_state`` payload; :func:`format_trace` renders either as an
aligned text tree, the moral equivalent of a DBMS ``EXPLAIN ANALYZE``::

    modify_state(r, ...)                            txn 3 → 4
    └─ Union                       rows=4   self=0.01ms total=0.21ms
       ├─ ρ(r, now)                rows=3   self=0.18ms total=0.18ms
       └─ Const(snapshot)          rows=1   self=0.02ms total=0.02ms

Tracing is independent of the metrics switch: it is explicitly requested
per call, never ambient, so it costs nothing when unused.
"""

from __future__ import annotations

import time
from typing import Optional, Union as TypingUnion

from repro.core.commands import (
    Command,
    DefineRelation,
    ModifyState,
    Sequence as CommandSequence,
)
from repro.core.compile import compile_expression
from repro.core.database import Database
from repro.core.expressions import Expression, is_empty_set

__all__ = [
    "ExpressionTrace",
    "CommandTrace",
    "trace_evaluate",
    "trace_command",
    "format_trace",
]


class ExpressionTrace:
    """One operator-tree node of a traced evaluation."""

    __slots__ = ("operator", "detail", "rows", "self_seconds", "children")

    def __init__(
        self,
        operator: str,
        detail: str,
        rows: Optional[int],
        self_seconds: float,
        children: list["ExpressionTrace"],
    ) -> None:
        #: Node class name (``Union``, ``Select``, ``Rollback`` ...).
        self.operator = operator
        #: The node's ``repr`` with its subtree elided — predicate,
        #: projection list, rollback target, etc.
        self.detail = detail
        #: Result cardinality; ``None`` when the result is the untyped ∅.
        self.rows = rows
        #: Seconds spent in this node's own work, children excluded.
        self.self_seconds = self_seconds
        self.children = children

    @property
    def total_seconds(self) -> float:
        """Cumulative cost of this subtree."""
        return self.self_seconds + sum(
            child.total_seconds for child in self.children
        )

    def to_dict(self) -> dict:
        """Plain-data form for JSON export alongside metrics sidecars."""
        return {
            "operator": self.operator,
            "detail": self.detail,
            "rows": self.rows,
            "self_seconds": self.self_seconds,
            "total_seconds": self.total_seconds,
            "children": [child.to_dict() for child in self.children],
        }


class CommandTrace:
    """A traced command execution: the command, its transaction-number
    effect, and the expression trace of a ``modify_state`` payload."""

    __slots__ = (
        "command",
        "txn_before",
        "txn_after",
        "seconds",
        "expression",
        "children",
    )

    def __init__(
        self,
        command: str,
        txn_before: int,
        txn_after: int,
        seconds: float,
        expression: Optional[ExpressionTrace],
        children: list["CommandTrace"],
    ) -> None:
        self.command = command
        self.txn_before = txn_before
        self.txn_after = txn_after
        self.seconds = seconds
        self.expression = expression
        self.children = children

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "txn_before": self.txn_before,
            "txn_after": self.txn_after,
            "seconds": self.seconds,
            "expression": (
                None if self.expression is None else self.expression.to_dict()
            ),
            "children": [child.to_dict() for child in self.children],
        }


def _node_detail(node: Expression) -> str:
    """A short label for a node: its repr with child reprs elided."""
    children = node.children()
    if not children:
        return repr(node)
    text = repr(node)
    for child in children:
        text = text.replace(repr(child), "…")
    if len(text) > 60:
        text = text[:57] + "..."
    return text


def trace_evaluate(
    expression: Expression, database: Database
) -> tuple[object, ExpressionTrace]:
    """Evaluate ``expression`` against ``database``, returning
    ``(result, trace)``.

    The result is exactly what ``expression.evaluate(database)`` returns
    (the compiled plan is observation-equivalent to it); the trace is
    the operator tree with per-step timings and cardinalities.
    """
    values: list = []
    traces: list[ExpressionTrace] = []
    for handler, node, operand_slots in compile_expression(
        expression
    ).steps:
        start = time.perf_counter()
        if handler is None:
            result = node.evaluate(database)
        else:
            result = handler(
                node, [values[slot] for slot in operand_slots], database
            )
        elapsed = time.perf_counter() - start
        values.append(result)
        traces.append(
            ExpressionTrace(
                type(node).__name__,
                _node_detail(node),
                None if is_empty_set(result) else len(result),  # type: ignore[arg-type]
                elapsed,
                [traces[slot] for slot in operand_slots],
            )
        )
    return values[-1], traces[-1]


def trace_command(
    command: Command, database: Database
) -> tuple[Database, CommandTrace]:
    """Execute ``command`` against ``database``, returning
    ``(new_database, trace)``.

    For ``modify_state`` the expression evaluation is traced *and* the
    command is executed through its own ``execute`` (which re-evaluates
    the expression), so the returned database is byte-for-byte what
    untraced execution produces — tracing roughly doubles evaluation
    cost and is meant for interactive EXPLAIN, not ambient use.
    """
    if isinstance(command, CommandSequence):
        sub_traces: list[CommandTrace] = []
        start = time.perf_counter()
        current = database
        for part in (command.first, command.second):
            current, sub = trace_command(part, current)
            sub_traces.append(sub)
        elapsed = time.perf_counter() - start
        return current, CommandTrace(
            "sequence",
            database.transaction_number,
            current.transaction_number,
            elapsed,
            None,
            sub_traces,
        )
    expression_trace: Optional[ExpressionTrace] = None
    if isinstance(command, ModifyState) and database.lookup(
        command.identifier
    ) is not None:
        _, expression_trace = trace_evaluate(command.expression, database)
    start = time.perf_counter()
    new_database = command.execute(database)
    elapsed = time.perf_counter() - start
    return new_database, CommandTrace(
        repr(command),
        database.transaction_number,
        new_database.transaction_number,
        elapsed,
        expression_trace,
        [],
    )


def _format_expression(
    trace: ExpressionTrace, prefix: str, is_last: bool, lines: list[str]
) -> None:
    connector = "└─ " if is_last else "├─ "
    rows = "∅" if trace.rows is None else str(trace.rows)
    label = f"{prefix}{connector}{trace.detail}"
    lines.append(
        f"{label:<48s} rows={rows:<6s} "
        f"self={trace.self_seconds * 1e3:7.3f}ms "
        f"total={trace.total_seconds * 1e3:7.3f}ms"
    )
    child_prefix = prefix + ("   " if is_last else "│  ")
    for i, child in enumerate(trace.children):
        _format_expression(
            child, child_prefix, i == len(trace.children) - 1, lines
        )


def format_trace(
    trace: TypingUnion[ExpressionTrace, CommandTrace]
) -> str:
    """Render a trace as an aligned text tree (EXPLAIN ANALYZE style)."""
    lines: list[str] = []
    if isinstance(trace, ExpressionTrace):
        _format_expression(trace, "", True, lines)
        return "\n".join(lines)
    lines.append(
        f"{trace.command}    "
        f"txn {trace.txn_before} → {trace.txn_after}  "
        f"[{trace.seconds * 1e3:.3f}ms]"
    )
    if trace.expression is not None:
        _format_expression(trace.expression, "", True, lines)
    for child in trace.children:
        lines.append(format_trace(child))
    return "\n".join(lines)
