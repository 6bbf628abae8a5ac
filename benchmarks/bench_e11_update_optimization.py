"""E11 — update optimization (the paper's Section 1 benefit).

"Update optimizations analogous to the retrieval optimizations ... can
now be investigated in a rigorous fashion."  The measured case is the
delete rewrite ``ρ − σ_F(ρ) → σ_{¬F}(ρ)`` over Quel-translated delete
statements: the optimized command evaluates one pass instead of two
evaluations plus a set difference.  Correctness: both command streams
build *identical* databases.
"""

from __future__ import annotations

import time

from repro.core.commands import DefineRelation, ModifyState
from repro.core.compile import compile_expression
from repro.core.database import EMPTY_DATABASE
from repro.core.expressions import Const, Rollback, Union
from repro.core.sentences import run
from repro.optimizer import optimize_update
from repro.quel import QuelTranslator, parse_statement
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])
CATALOG = {"r": KV}


def build_commands(cardinality: int, deletes: int):
    """Seed the relation, then issue `deletes` selective deletions."""
    translator = QuelTranslator({"r": KV})
    base = SnapshotState(
        KV, [[i, i % 50] for i in range(cardinality)]
    )
    commands = [
        DefineRelation("r", "rollback"),
        ModifyState("r", Const(base)),
    ]
    for i in range(deletes):
        commands.append(
            translator.translate(
                parse_statement(f"delete from r where v = {i % 50}")
            )
        )
        # re-add some tuples so later deletes have work to do
        refill = SnapshotState(
            KV, [[cardinality + i * 7 + j, (i + j) % 50]
                 for j in range(5)]
        )
        commands.append(
            ModifyState("r", Union(Rollback("r"), Const(refill)))
        )
    return commands


def verify_identical(cardinality: int = 200, deletes: int = 10) -> bool:
    commands = build_commands(cardinality, deletes)
    plain = run(commands)
    optimized = run(
        [optimize_update(c, CATALOG) for c in commands]
    )
    assert plain == optimized
    return True


def _time(callable_, repeat=3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def speedup_table(cardinalities=(200, 800, 2000), deletes=15):
    """Measured rows for the *cheap source* case (delete from ρ leaf):
    (cardinality, naive s, optimized s, speedup)."""
    rows = []
    for cardinality in cardinalities:
        commands = build_commands(cardinality, deletes)
        optimized_commands = [
            optimize_update(c, CATALOG) for c in commands
        ]
        naive_seconds = _time(lambda: run(commands))
        optimized_seconds = _time(lambda: run(optimized_commands))
        rows.append(
            (
                cardinality,
                naive_seconds,
                optimized_seconds,
                naive_seconds / optimized_seconds,
            )
        )
    return rows


def expensive_source_commands(cardinality: int, deletes: int):
    """Deletes whose source is an *expensive* expression: a union of two
    rollback relations with a selection.  The naive form evaluates that
    source twice; the rewrite evaluates it once."""
    from repro.core.expressions import Difference, Select
    from repro.snapshot.predicates import Comparison, attr, lit

    half = cardinality // 2
    s1 = SnapshotState(KV, [[i, i % 50] for i in range(half)])
    s2 = SnapshotState(
        KV, [[i + half, i % 50] for i in range(half)]
    )
    commands = [
        DefineRelation("a", "rollback"),
        ModifyState("a", Const(s1)),
        DefineRelation("b", "rollback"),
        ModifyState("b", Const(s2)),
        DefineRelation("view", "rollback"),
        ModifyState("view", Union(Rollback("a"), Rollback("b"))),
    ]
    for i in range(deletes):
        source = Select(
            Union(Rollback("a"), Rollback("b")),
            Comparison(attr("v"), ">=", lit(0)),
        )
        doomed = Select(
            source, Comparison(attr("v"), "=", lit(i % 50))
        )
        commands.append(
            ModifyState("view", Difference(source, doomed))
        )
    return commands


def _run_compiled(commands):
    """``run(commands)`` with each update payload evaluated through a
    compiled plan, which evaluates every distinct subtree once — so the
    duplicated source is evaluated once per update."""
    database = EMPTY_DATABASE
    for command in commands:
        if isinstance(command, ModifyState) and database.lookup(
            command.identifier
        ) is not None:
            state = compile_expression(command.expression)(database)
            command = ModifyState(command.identifier, Const(state))
        database = command.execute(database)
    return database


def expensive_source_table(cardinalities=(400, 1200, 2400), deletes=10):
    catalog = {"a": KV, "b": KV, "view": KV}
    rows = []
    for cardinality in cardinalities:
        commands = expensive_source_commands(cardinality, deletes)
        optimized = [optimize_update(c, catalog) for c in commands]
        assert run(commands) == run(optimized) == _run_compiled(commands)
        naive_seconds = _time(lambda: run(commands))
        optimized_seconds = _time(lambda: run(optimized))
        compiled_seconds = _time(lambda: _run_compiled(commands))
        rows.append(
            (
                cardinality,
                naive_seconds,
                optimized_seconds,
                compiled_seconds,
            )
        )
    return rows


def report() -> str:
    lines = ["E11 — update optimization (delete rewrite)"]
    verify_identical()
    lines.append(
        "  correctness: naive and optimized command streams build "
        "identical databases"
    )
    lines.append("  cheap source (delete from a ρ leaf):")
    lines.append(
        f"  {'|R|':>6s} {'naive':>9s} {'optimized':>10s} {'speedup':>8s}"
    )
    for cardinality, naive_s, opt_s, speedup in speedup_table():
        lines.append(
            f"  {cardinality:6d} {naive_s * 1e3:6.1f} ms "
            f"{opt_s * 1e3:7.1f} ms {speedup:7.2f}x"
        )
    lines.append(
        "  expensive source (delete from a selected union view — the "
        "naive form evaluates it twice):"
    )
    lines.append(
        f"  {'|R|':>6s} {'naive':>9s} {'rewrite':>9s} {'compiled':>9s}"
    )
    for cardinality, naive_s, opt_s, compiled_s in expensive_source_table():
        lines.append(
            f"  {cardinality:6d} {naive_s * 1e3:6.1f} ms "
            f"{opt_s * 1e3:6.1f} ms {compiled_s * 1e3:6.1f} ms"
        )
    lines.append(
        "  shape: with compiled predicates and C-level set difference, "
        "the delete rewrite is ~neutral; the compiled engine's "
        "common-subexpression sharing attacks the duplicated source "
        "directly — update optimization is investigable, exactly as "
        "the paper promises"
    )
    return "\n".join(lines)


def bench_naive_delete_stream(benchmark):
    commands = build_commands(500, 10)
    benchmark(run, commands)


def bench_optimized_delete_stream(benchmark):
    commands = [
        optimize_update(c, CATALOG) for c in build_commands(500, 10)
    ]
    benchmark(run, commands)


if __name__ == "__main__":
    print(report())
