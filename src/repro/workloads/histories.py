"""Assembled histories for the benchmark harness, and the
property-based isolation checker (E20).

The second half of this module is the adversarial proof for the
isolation levels of :class:`~repro.concurrency.manager.TransactionManager`:
it generates randomized concurrent schedules (interleaved
begin/read/write/commit/abort over shared relations), runs them
through a manager at any level, records
the *observed* history — which version every read saw, which version
every commit installed — and checks isolation by building Adya's Direct
Serialization Graph (DSG) and classifying its cycles:

* ``ww`` edges — version order: the writer of version ``k`` of a
  relation precedes the writer of version ``k+1``;
* ``wr`` edges — read dependency: the writer of the version a
  transaction observed precedes the reader;
* ``rw`` edges — antidependency: a transaction that observed version
  ``k`` precedes the writer of version ``k+1`` (it logically ran
  before the overwrite).

A serial or SSI run must produce an acyclic DSG.  A snapshot-isolation
run may produce cycles, but every one must contain **at least two** rw
antidependency edges — the write-skew shape — because first-committer-
wins forbids both G1 anomalies (cycles of ww/wr edges alone) and
lost-update cycles (exactly one rw edge).  The checker tests exactly
that, so a conflict-detection bug surfaces as a concrete illegal cycle
rather than a silently wrong database.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import ConcurrencyError, WorkloadError
from repro.core.commands import Command, DefineRelation, ModifyState
from repro.core.database import Database
from repro.core.expressions import Const, Rollback, Union
from repro.core.relation import RelationType
from repro.benzvi.bridge import OperationKind, TemporalOperation
from repro.historical.intervals import Interval
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.storage.backend import State, StorageBackend
from repro.storage.versioned_db import VersionedDatabase
from repro.workloads.streams import UpdateStream

__all__ = [
    "command_history",
    "populate_backends",
    "random_operation_stream",
    "ScheduleOp",
    "schedule_from_choices",
    "random_schedule",
    "run_schedule",
    "TxnRecord",
    "History",
    "DSG",
    "build_dsg",
    "check_history",
    "CheckResult",
    "SETUP",
]


def command_history(
    stream: UpdateStream,
    identifier: str = "r",
    rtype: Optional[RelationType] = None,
) -> list[Command]:
    """``define_relation`` followed by one ``modify_state`` per stream
    state — the command list whose sentence builds the history under the
    core semantics."""
    if rtype is None:
        rtype = (
            RelationType.TEMPORAL
            if stream.historical
            else RelationType.ROLLBACK
        )
    commands: list[Command] = [DefineRelation(identifier, rtype)]
    commands += [
        ModifyState(identifier, Const(state)) for state in stream.states()
    ]
    return commands


def populate_backends(
    backends: Sequence[StorageBackend],
    states: Sequence[State],
    identifier: str = "r",
    rtype: RelationType = RelationType.ROLLBACK,
) -> list[VersionedDatabase]:
    """Install the same state sequence into every backend; returns the
    wrapping :class:`VersionedDatabase` objects (one per backend)."""
    databases = [VersionedDatabase(backend) for backend in backends]
    for database in databases:
        database.define(identifier, rtype)
    for state in states:
        for database in databases:
            database.set_state(identifier, state)
    return databases


def random_operation_stream(
    length: int,
    fact_space: int = 50,
    horizon: int = 500,
    seed: int = 0,
) -> list[TemporalOperation]:
    """A seeded stream of insert/delete/modify operations over single-
    attribute facts, for the Ben-Zvi comparison (E9).

    Facts are integers in ``range(fact_space)``; an operation only deletes
    or modifies facts that are currently believed, so the stream is always
    applicable.
    """
    rng = random.Random(seed)
    alive: set[int] = set()
    operations: list[TemporalOperation] = []

    def random_interval() -> Interval:
        start = rng.randrange(horizon - 1)
        end = start + rng.randrange(1, max(2, horizon - start))
        return Interval(start, end)

    for _ in range(length):
        roll = rng.random()
        if alive and roll < 0.2:
            fact = rng.choice(sorted(alive))
            operations.append(
                TemporalOperation(OperationKind.DELETE, (fact,))
            )
            alive.discard(fact)
        elif alive and roll < 0.45:
            fact = rng.choice(sorted(alive))
            operations.append(
                TemporalOperation(
                    OperationKind.MODIFY, (fact,), random_interval()
                )
            )
        else:
            fact = rng.randrange(fact_space)
            operations.append(
                TemporalOperation(
                    OperationKind.INSERT, (fact,), random_interval()
                )
            )
            alive.add(fact)
    return operations


# ---------------------------------------------------------------------------
# Randomized concurrent schedules
# ---------------------------------------------------------------------------

#: DSG node standing for the setup transaction that installed the
#: initial version of every relation.
SETUP = -1

_OP_KINDS = ("read", "append", "write")


@dataclass(frozen=True)
class ScheduleOp:
    """One step of a concurrent schedule.

    ``kind`` is one of ``read`` (evaluate ``ρ(relation, now)`` against
    the transaction's snapshot), ``append`` (stage
    ``modify_state(relation, ρ(relation) ∪ const)`` — a read *and* a
    write of the relation), ``write`` (stage a blind
    ``modify_state(relation, const)``), ``commit`` or ``abort``.
    ``txn`` is the logical client index; the transaction begins
    implicitly at its first op.
    """

    kind: str
    txn: int
    relation: Optional[str] = None

    def __repr__(self) -> str:
        if self.relation is None:
            return f"t{self.txn}.{self.kind}"
        return f"t{self.txn}.{self.kind}({self.relation})"


def schedule_from_choices(
    choices: Sequence[int],
    txn_count: int,
    relations: Sequence[str],
) -> list[ScheduleOp]:
    """Decode a flat list of non-negative integers into a well-formed
    schedule — the deterministic mapping Hypothesis shrinks through.

    Choices are consumed in ``(client pick, action pick)`` pairs; every
    transaction still open when the choices run out is committed, so
    *every* integer list decodes to a schedule in which each of the
    ``txn_count`` clients finishes exactly once.  Because action code 0
    is commit, shrinking the integers toward zero shrinks the schedule
    toward trivial commit-only transactions — minimal failing schedules
    stay human-readable.
    """
    if txn_count < 1:
        raise WorkloadError("schedule needs at least one transaction")
    if not relations:
        raise WorkloadError("schedule needs at least one relation")
    ops: list[ScheduleOp] = []
    finished: set[int] = set()
    action_space = 2 + len(_OP_KINDS) * len(relations)
    pairs = (len(choices) // 2) * 2
    for at in range(0, pairs, 2):
        live = [t for t in range(txn_count) if t not in finished]
        if not live:
            break
        txn = live[choices[at] % len(live)]
        action = choices[at + 1] % action_space
        if action == 0:
            ops.append(ScheduleOp("commit", txn))
            finished.add(txn)
        elif action == 1:
            ops.append(ScheduleOp("abort", txn))
            finished.add(txn)
        else:
            code = action - 2
            relation = relations[code // len(_OP_KINDS)]
            ops.append(
                ScheduleOp(_OP_KINDS[code % len(_OP_KINDS)], txn, relation)
            )
    for txn in range(txn_count):
        if txn not in finished:
            ops.append(ScheduleOp("commit", txn))
    return ops


def random_schedule(
    seed: int,
    txn_count: int = 4,
    relations: Sequence[str] = ("A", "B", "C"),
    length: int = 24,
) -> list[ScheduleOp]:
    """A seeded random schedule of ``length`` interleaved steps."""
    rng = random.Random(seed)
    choices = [rng.randrange(1024) for _ in range(2 * length)]
    return schedule_from_choices(choices, txn_count, relations)


# ---------------------------------------------------------------------------
# Running a schedule and recording the observed history
# ---------------------------------------------------------------------------


@dataclass
class TxnRecord:
    """What one scheduled transaction actually did and observed."""

    client: int
    status: str = "open"  # open | committed | aborted
    begin_txn: Optional[int] = None
    commit_txn: Optional[int] = None
    #: relation → transaction stamp of the version this txn observed
    #: (snapshot reads: at most one observed version per relation).
    reads: dict[str, int] = field(default_factory=dict)
    #: relation → transaction stamp of the final version this txn
    #: installed at commit.
    writes: dict[str, int] = field(default_factory=dict)


@dataclass
class History:
    """The observed execution of one schedule."""

    isolation: str
    relations: tuple[str, ...]
    #: relation → transaction stamp of the setup-installed version.
    setup: dict[str, int]
    txns: list[TxnRecord]
    schedule: list[ScheduleOp]

    @property
    def committed(self) -> list[TxnRecord]:
        return [t for t in self.txns if t.status == "committed"]

    @property
    def aborted(self) -> list[TxnRecord]:
        return [t for t in self.txns if t.status == "aborted"]


_SCHEDULE_SCHEMA = Schema(["v"])


def _version_of(database: Database, relation: str) -> int:
    """The transaction stamp of the latest state of ``relation`` in the
    (snapshot) database — the version a read observes."""
    bound = database.state.lookup(relation)
    if bound is None:
        return 0
    latest = bound.latest_txn
    return 0 if latest is None else latest


def run_schedule(
    manager,
    schedule: Iterable[ScheduleOp],
    relations: Sequence[str],
) -> History:
    """Execute a schedule against a
    :class:`~repro.concurrency.manager.TransactionManager` at any
    isolation level and record the observed history.

    A setup transaction first installs an initial version of every
    relation.  Commit failures (:class:`ConcurrencyError`) are recorded
    as aborts, never raised: conflict-detection behaviour is exactly
    what the checker wants to observe.
    """
    schedule = list(schedule)
    setup = manager.begin()
    for relation in relations:
        setup.stage(DefineRelation(relation, RelationType.ROLLBACK))
        setup.stage(
            ModifyState(
                relation,
                Const(SnapshotState(_SCHEDULE_SCHEMA, [("init",)])),
            )
        )
    database = manager.commit(setup)
    setup_versions = {r: _version_of(database, r) for r in relations}

    txn_count = max((op.txn for op in schedule), default=-1) + 1
    records = [TxnRecord(client=i) for i in range(txn_count)]
    live: dict[int, object] = {}

    def transaction_for(client: int):
        transaction = live.get(client)
        if transaction is None:
            transaction = manager.begin()
            live[client] = transaction
            records[client].begin_txn = transaction.begin_txn
        return transaction

    for op in schedule:
        record = records[op.txn]
        if record.status != "open":
            raise WorkloadError(
                f"malformed schedule: {op!r} after t{op.txn} finished"
            )
        transaction = transaction_for(op.txn)
        if op.kind == "read":
            transaction.read(Rollback(op.relation))
            record.reads.setdefault(
                op.relation, _version_of(transaction.snapshot, op.relation)
            )
        elif op.kind == "append":
            value = f"t{op.txn}.{len(transaction.commands)}"
            transaction.stage(
                ModifyState(
                    op.relation,
                    Union(
                        Rollback(op.relation),
                        Const(
                            SnapshotState(_SCHEDULE_SCHEMA, [(value,)])
                        ),
                    ),
                )
            )
            record.reads.setdefault(
                op.relation, _version_of(transaction.snapshot, op.relation)
            )
        elif op.kind == "write":
            value = f"t{op.txn}.{len(transaction.commands)}"
            transaction.stage(
                ModifyState(
                    op.relation,
                    Const(SnapshotState(_SCHEDULE_SCHEMA, [(value,)])),
                )
            )
        elif op.kind == "commit":
            live.pop(op.txn, None)
            try:
                database = manager.commit(transaction)
            except ConcurrencyError:
                record.status = "aborted"
            else:
                record.status = "committed"
                record.commit_txn = database.transaction_number
                for relation in transaction.write_set:
                    record.writes[relation] = _version_of(
                        database, relation
                    )
        elif op.kind == "abort":
            live.pop(op.txn, None)
            manager.abort(transaction)
            record.status = "aborted"
        else:
            raise WorkloadError(f"unknown schedule op kind {op.kind!r}")

    isolation = getattr(manager, "isolation", "serial")
    return History(
        isolation=isolation,
        relations=tuple(relations),
        setup=setup_versions,
        txns=records,
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# The Direct Serialization Graph and its cycle classification
# ---------------------------------------------------------------------------


@dataclass
class DSG:
    """Adya's Direct Serialization Graph over committed transactions.

    Nodes are indices into ``History.txns`` plus :data:`SETUP`; edges
    are ``(src, dst, kind)`` with kind ``ww``, ``wr`` or ``rw``.
    """

    nodes: list[int]
    edges: list[tuple[int, int, str]]
    #: Reads that observed a version no committed transaction (nor
    #: setup) installed — a G1-style anomaly in itself.
    phantom_reads: list[tuple[int, str, int]]

    def edges_of_kinds(self, kinds) -> dict[int, list[int]]:
        adjacency: dict[int, list[int]] = {n: [] for n in self.nodes}
        for src, dst, kind in self.edges:
            if kind in kinds:
                adjacency[src].append(dst)
        return adjacency


def build_dsg(history: History) -> DSG:
    """Build the DSG from the observed reads/writes of a history."""
    committed = [
        i for i, t in enumerate(history.txns) if t.status == "committed"
    ]
    nodes = [SETUP] + committed
    edges: set[tuple[int, int, str]] = set()
    phantom: list[tuple[int, str, int]] = []

    # Per relation: the installed version sequence, in stamp order
    # (stamps are commit transaction numbers, so stamp order is
    # installation order).
    for relation in history.relations:
        versions: list[tuple[int, int]] = []  # (stamp, writer node)
        setup_stamp = history.setup.get(relation, 0)
        versions.append((setup_stamp, SETUP))
        for i in committed:
            stamp = history.txns[i].writes.get(relation)
            if stamp is not None:
                versions.append((stamp, i))
        versions.sort()
        writer_of = {stamp: node for stamp, node in versions}
        next_writer: dict[int, int] = {}
        for (stamp, _), (_, later) in zip(versions, versions[1:]):
            next_writer[stamp] = later

        # ww: version order.
        for (_, earlier), (_, later) in zip(versions, versions[1:]):
            if earlier != later:
                edges.add((earlier, later, "ww"))

        # wr and rw: what each committed reader observed.
        for i in committed:
            observed = history.txns[i].reads.get(relation)
            if observed is None:
                continue
            writer = writer_of.get(observed)
            if writer is None:
                phantom.append((i, relation, observed))
                continue
            if writer != i:
                edges.add((writer, i, "wr"))
            overwriter = next_writer.get(observed)
            if overwriter is not None and overwriter != i:
                edges.add((i, overwriter, "rw"))

    return DSG(nodes=nodes, edges=sorted(edges), phantom_reads=phantom)


def _find_cycle(adjacency: dict[int, list[int]]) -> Optional[list[int]]:
    """One cycle in the directed graph, as a node list, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}
    parent: dict[int, int] = {}
    for root in adjacency:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adjacency[root]))]
        color[root] = GRAY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if color[succ] == WHITE:
                    color[succ] = GRAY
                    parent[succ] = node
                    stack.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if color[succ] == GRAY:
                    cycle = [succ, node]
                    walk = node
                    while walk != succ:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
        # exhausted this root's component
    return None


def _reachable(
    adjacency: dict[int, list[int]], start: int, goal: int
) -> bool:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in adjacency.get(node, ()):
            if succ == goal:
                return True
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


@dataclass
class CheckResult:
    """The isolation verdict for one history."""

    isolation: str
    ok: bool
    violations: list[str]
    #: True when the full DSG has a cycle that is *allowed* at this
    #: level — i.e. an SI run that exhibited write skew.
    write_skew: bool

    def __str__(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        skew = " (write skew observed)" if self.write_skew else ""
        detail = "; ".join(self.violations)
        return f"[{self.isolation}] {status}{skew} {detail}".rstrip()


def check_history(
    history: History, isolation: Optional[str] = None
) -> CheckResult:
    """Check a history against its isolation level's DSG contract.

    * every level: no read of a never-installed version, and no cycle
      among ``ww``/``wr`` edges alone (G1c);
    * ``si``: additionally, no cycle with exactly **one** ``rw`` edge
      (the lost-update shape first-committer-wins must prevent); cycles
      with two or more ``rw`` edges are the write-skew anomaly SI
      legitimately admits, and are reported via ``write_skew``;
    * ``serial`` / ``ssi``: no cycle of any kind.
    """
    level = isolation or history.isolation
    dsg = build_dsg(history)
    violations: list[str] = []

    for reader, relation, version in dsg.phantom_reads:
        violations.append(
            f"t{reader} read version {version} of {relation!r} which no "
            "committed transaction installed"
        )

    committed_adj = dsg.edges_of_kinds({"ww", "wr"})
    cycle = _find_cycle(committed_adj)
    if cycle is not None:
        violations.append(
            f"G1c: cycle of committed dependencies {cycle} (ww/wr edges "
            "only) — impossible under any isolation level here"
        )

    full_adj = dsg.edges_of_kinds({"ww", "wr", "rw"})
    full_cycle = _find_cycle(full_adj)
    write_skew = False

    if level in ("serial", "ssi"):
        if full_cycle is not None:
            violations.append(
                f"{level}: DSG cycle {full_cycle} — history is not "
                "serializable"
            )
    elif level == "si":
        for src, dst, kind in dsg.edges:
            if kind != "rw":
                continue
            if _reachable(committed_adj, dst, src):
                violations.append(
                    f"si: rw antidependency t{src}→t{dst} closed by "
                    "ww/wr path — a cycle with a single rw edge (lost "
                    "update), which first-committer-wins must prevent"
                )
        if full_cycle is not None and not violations:
            write_skew = True
    else:
        raise WorkloadError(f"unknown isolation level {level!r}")

    return CheckResult(
        isolation=level,
        ok=not violations,
        violations=violations,
        write_skew=write_skew,
    )
