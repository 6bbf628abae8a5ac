"""Compiling expression trees into flat, batch-level execution plans.

The interpreted evaluator walks the tree on every call: each node pays a
Python method call, an isinstance dispatch chain, and — for trees with
shared subtrees — repeated evaluation of equal subexpressions.  For the
hot production shape (the same query issued over and over against a
session) that per-call tree walk is pure overhead: the tree never
changes between calls.

:func:`compile_expression` flattens a tree once into a
:class:`CompiledPlan` — a topologically ordered list of *steps*, one per
**distinct** subtree in :func:`~repro.core.expressions.subtrees` order
(common subexpressions are hash-consed away, so a shared subtree is
evaluated once per call however often the tree repeats it).  Each
composite step captures its :data:`~repro.core.expressions.NODE_HANDLERS`
handler at compile time, so executing a plan is a tight loop of
pre-resolved callables over a value array — no per-call isinstance
chains, no recursion, no dictionary probes.

This is the one engine that serves reads; each node's own ``evaluate``
is the paper-literal oracle beside it.  A compiled plan is
observation-equivalent to ``evaluate`` (the paper's C6: any physical
evaluation strategy is correct iff observation-equivalent to the simple
semantics); the differential suite in
``tests/optimizer/test_compiled_differential.py`` checks it over all
five storage backends, and :func:`repro.obsv.trace.trace_evaluate`
times the same steps for EXPLAIN ANALYZE.

Compilation and execution are both iterative (explicit stack / flat
loop), so plans for trees deeper than the Python recursion limit — the
shape the Quel translator emits for long conjunctions — compile and run
fine.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.database import Database
from repro.core.expressions import (
    NODE_HANDLERS,
    Expression,
    State,
    subtrees,
)

__all__ = ["CompiledPlan", "compile_expression"]


#: Observability slot for the compiled engine, installed by
#: :func:`repro.obsv.hooks.install` (``engine.*`` metrics).  Module
#: global so the disabled cost per execution is one load and an
#: ``is None`` branch; this module never imports :mod:`repro.obsv`.
_OBSERVER = None


class CompiledPlan:
    """A flat, reusable execution plan for one expression tree.

    The plan is a sequence of steps in bottom-up topological order;
    step ``i`` writes slot ``i`` of a per-execution value array, and the
    last slot is the root's result.  Calling the plan evaluates it
    against a database, exactly like ``expression.evaluate(database)``.
    """

    __slots__ = ("expression", "_steps", "_n_nodes")

    def __init__(
        self,
        expression: Expression,
        steps: "list[tuple[Callable | None, Expression, tuple[int, ...]]]",
        n_nodes: int,
    ) -> None:
        self.expression = expression
        self._steps = steps
        self._n_nodes = n_nodes

    @property
    def steps(
        self,
    ) -> "tuple[tuple[Callable | None, Expression, tuple[int, ...]], ...]":
        """The plan's ``(handler, node, operand slots)`` steps, in
        execution order.  ``handler`` is ``None`` for a leaf, which
        evaluates itself; otherwise the step's value is
        ``handler(node, [values[slot] for slot in operand slots],
        database)``."""
        return tuple(self._steps)

    @property
    def step_count(self) -> int:
        """Distinct subtrees in the plan (after common-subexpression
        elimination)."""
        return len(self._steps)

    @property
    def node_count(self) -> int:
        """Nodes in the original tree (before sharing); the difference
        with :attr:`step_count` is the work CSE saves per execution."""
        return self._n_nodes

    def __call__(self, database: Database) -> State:
        """Execute the plan — ``E[[expression]] database``."""
        observer = _OBSERVER
        values: list = [None] * len(self._steps)
        for index, (handler, node, operand_slots) in enumerate(
            self._steps
        ):
            if handler is None:
                # leaves (Const, Rollback, third-party nodes) evaluate
                # themselves so their own observer hooks fire
                values[index] = node.evaluate(database)
            else:
                if observer is not None:
                    observer.node()
                values[index] = handler(
                    node,
                    [values[slot] for slot in operand_slots],
                    database,
                )
        if observer is not None:
            observer.executed(len(self._steps))
        return values[-1]

    def __repr__(self) -> str:
        return (
            f"CompiledPlan({self.step_count} steps, "
            f"{self.node_count} tree nodes)"
        )


def compile_expression(
    expression: Expression,
) -> Callable[[Database], State]:
    """Compile a tree into a :class:`CompiledPlan` closure.

    The plan assigns one step per distinct subtree (expressions are
    immutable, hashable values, so equal subtrees denote the same state
    within one evaluation) and resolves each composite node's handler
    once.  The returned plan is a pure function of the database argument
    and can be cached and reused across evaluations; the Session plan
    cache stores one per normalized query text.
    """
    slots: dict[Expression, int] = {}
    steps: list = []
    for node in subtrees(expression):
        handler = NODE_HANDLERS.get(type(node))
        if handler is None:
            steps.append((None, node, ()))
        else:
            operand_slots = tuple(
                slots[child] for child in node.children()
            )
            steps.append((handler, node, operand_slots))
        slots[node] = len(steps) - 1

    # Tree size (nodes before sharing), computed bottom-up over the
    # distinct subtrees so heavily shared (DAG-shaped) trees don't cost
    # an exponential walk: size(node) = 1 + Σ size(child).
    sizes: list[int] = []
    for _, node, operand_slots in steps:
        sizes.append(1 + sum(sizes[slot] for slot in operand_slots))
    plan = CompiledPlan(expression, steps, sizes[-1] if sizes else 0)
    if _OBSERVER is not None:
        _OBSERVER.compiled(plan.step_count, plan.node_count)
    return plan
