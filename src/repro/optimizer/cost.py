"""A cardinality-based cost model and plan explainer.

The model estimates, for each node, the cardinality of its result and the
cumulative number of tuples *produced* while evaluating the tree (a proxy
for work under our set-at-a-time evaluator).  Cardinalities come from a
statistics mapping (relation identifier -> estimated tuple count) with
textbook default selectivities; a :class:`repro.optimizer.stats.Statistics`
object additionally prices rollback leaves by version-chain depth (the
reconstruction work a historical ``ρ(I, N)`` probe pays on a delta
backend).

Everything is computed in **one bottom-up pass** per tree
(:func:`analyze`): each distinct subtree's cardinality and cumulative
cost are established exactly once and reused by every parent.  The
public helpers :func:`estimate_cardinality`, :func:`estimate_cost` and
:func:`explain` all delegate to that pass, so pricing a chain of depth
*n* visits *n* nodes — not the *n²/2* the naive formulation
(``cost = card(root) + Σ cost(children)`` with ``card`` recomputed from
scratch at every level) pays.  :attr:`PlanAnalysis.node_visits` counts
the visits so the regression test can assert linearity without timing
anything.

This is intentionally simple: its job in the reproduction is to show that
rewrites the rules license reduce estimated *and measured* cost (benchmark
E4), not to be a state-of-the-art estimator.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.expressions import (
    Const,
    Derive,
    Difference,
    Expression,
    Product,
    Project,
    Rename,
    Rollback,
    Select,
    Union,
    subtrees,
)

__all__ = [
    "PlanAnalysis",
    "analyze",
    "estimate_cardinality",
    "estimate_cost",
    "explain",
]

#: Default selectivity of a selection predicate.
SELECT_SELECTIVITY = 0.33
#: Default duplicate-elimination factor for projections.
PROJECT_DEDUP = 0.9
#: Default cardinality for a rollback leaf with no statistics.
DEFAULT_RELATION_CARD = 100.0
#: Cost per recorded version of reaching back through a relation's
#: history — the reconstruction work a ``ρ(I, N)`` probe may pay on a
#: delta backend.  Charged only when the statistics carry version
#: counts (a plain ``{identifier: cardinality}`` dict never does).
VERSION_ACCESS_WEIGHT = 0.5

Stats = Mapping[str, float]


class PlanAnalysis:
    """Cardinality and cost for every distinct subtree of one plan.

    Produced by :func:`analyze` in a single bottom-up pass.  Shared
    subtrees are priced once; per-occurrence work still counts toward
    the parent's cumulative cost (our evaluator re-produces a shared
    subtree's tuples at each occurrence unless the compiled engine's
    CSE is in play, and the cost model prices the plain evaluator).
    """

    __slots__ = ("expression", "node_visits", "_cards", "_costs")

    def __init__(
        self,
        expression: Expression,
        cards: "dict[Expression, float]",
        costs: "dict[Expression, float]",
        node_visits: int,
    ) -> None:
        self.expression = expression
        #: Distinct subtrees priced during the pass — the unit the
        #: linear-cost regression test counts.
        self.node_visits = node_visits
        self._cards = cards
        self._costs = costs

    def cardinality(self, node: Optional[Expression] = None) -> float:
        """Estimated result cardinality of ``node`` (default: root)."""
        return self._cards[self.expression if node is None else node]

    def cost(self, node: Optional[Expression] = None) -> float:
        """Estimated cumulative tuples produced evaluating ``node``
        (default: root)."""
        return self._costs[self.expression if node is None else node]

    def __repr__(self) -> str:
        return (
            f"PlanAnalysis(cost={self.cost():.1f}, "
            f"card={self.cardinality():.1f}, "
            f"visits={self.node_visits})"
        )


def analyze(
    expression: Expression, stats: Optional[Stats] = None
) -> PlanAnalysis:
    """Price every distinct subtree in one bottom-up pass.

    Walks :func:`~repro.core.expressions.subtrees`, so arbitrarily deep
    chains — the shape the Quel translator emits for long conjunctions —
    analyze without recursion and in time linear in the number of
    distinct subtrees.
    """
    stats = stats if stats is not None else {}
    version_count = getattr(stats, "version_count", None)
    cards: dict = {}
    costs: dict = {}
    visits = 0

    for node in subtrees(expression):
        children = node.children()
        visits += 1
        card = _node_cardinality(node, children, cards, stats)
        cost = card + sum(costs[child] for child in children)
        if version_count is not None and isinstance(node, Rollback):
            cost += VERSION_ACCESS_WEIGHT * version_count(
                node.identifier, 0
            )
        cards[node] = card
        costs[node] = cost

    return PlanAnalysis(expression, cards, costs, visits)


def _node_cardinality(
    node: Expression,
    children: "tuple[Expression, ...]",
    cards: "dict[Expression, float]",
    stats: Stats,
) -> float:
    """One node's output cardinality, given its children's."""
    if isinstance(node, Const):
        return float(len(node.state))
    if isinstance(node, Rollback):
        return float(stats.get(node.identifier, DEFAULT_RELATION_CARD))
    if isinstance(node, Union):
        return cards[node.left] + cards[node.right]
    if isinstance(node, Difference):
        return cards[node.left]
    if isinstance(node, Product):
        return cards[node.left] * cards[node.right]
    if isinstance(node, Select):
        return SELECT_SELECTIVITY * cards[node.operand]
    if isinstance(node, Project):
        return PROJECT_DEDUP * cards[node.operand]
    if isinstance(node, (Rename, Derive)):
        return cards[node.operand]
    return DEFAULT_RELATION_CARD


def estimate_cardinality(
    expression: Expression, stats: Optional[Stats] = None
) -> float:
    """Estimated result cardinality of the expression."""
    return analyze(expression, stats).cardinality()


def estimate_cost(
    expression: Expression, stats: Optional[Stats] = None
) -> float:
    """Estimated total tuples produced while evaluating the tree —
    the result cardinality of every node occurrence, summed."""
    return analyze(expression, stats).cost()


def explain(
    expression: Expression,
    stats: Optional[Stats] = None,
    indent: int = 0,
) -> str:
    """An EXPLAIN-style rendering of the tree with estimated
    cardinalities (one cost pass for the whole tree, then an iterative
    render — deep plans neither re-price nor recurse)."""
    analysis = analyze(expression, stats)
    lines: list = []
    stack: "list[tuple[Expression, int]]" = [(expression, indent)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        label = _node_label(node)
        card = analysis.cardinality(node)
        lines.append(f"{pad}{label}  (≈{card:.0f} tuples)")
        for child in reversed(node.children()):
            stack.append((child, depth + 1))
    return "\n".join(lines)


def _node_label(expression: Expression) -> str:
    if isinstance(expression, Const):
        return f"Const[{len(expression.state)} tuples]"
    if isinstance(expression, Rollback):
        return f"Rollback[{expression.identifier} @ {expression.numeral!r}]"
    if isinstance(expression, Union):
        return "Union"
    if isinstance(expression, Difference):
        return "Difference"
    if isinstance(expression, Product):
        return "Product"
    if isinstance(expression, Select):
        return f"Select[{expression.predicate!r}]"
    if isinstance(expression, Project):
        return f"Project[{', '.join(expression.names)}]"
    if isinstance(expression, Rename):
        return "Rename"
    if isinstance(expression, Derive):
        return "Derive"
    return type(expression).__name__
