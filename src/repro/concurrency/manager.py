"""The transaction manager: one commit protocol, three isolation levels.

The paper lets implementations run transactions concurrently "as long as
the semantics of sequential update with a monotonically increasing
transaction time is preserved" (Section 3.2).  Its rollback relations
already *are* multi-version storage: every ``modify_state`` appends a
``(state, transaction number)`` pair and old versions stay addressable.
:class:`TransactionManager` builds every isolation level on that:

* **Snapshot reads, lock-free.**  ``begin()`` captures the current
  immutable :class:`~repro.core.database.Database` value; every read of
  the transaction evaluates against that value directly off the version
  chains.  No lock, queue or validation structure is touched on the
  read path.
* **One conflict rule.**  At commit a transaction aborts iff some
  relation in its *probe set* was written by a transaction that
  committed after this one began.  The check is one dict probe per
  relation against a relation → last-commit map — O(probe set),
  independent of how many transactions are in flight.
* **Monotone commit numbers.**  A valid transaction's writes land in
  the current database under the next transaction number(s).

The levels differ only in the probe set and in how the writes land:

``serial``
    Backward validation, in the style of the time-stamp concurrency
    control work the paper cites: the probe set is the **read** set, so
    a transaction whose reads may be stale aborts.  Its staged commands
    are re-executed against the *current* database, so expressions like
    ``ρ(R, now) ∪ constant`` incorporate concurrent, non-conflicting
    writes to *other* relations.  The committed database always equals
    the serial execution of the committed transactions in commit order
    (experiment E10).
``si``
    Snapshot isolation: the probe set is the **write** set
    (first-committer-wins).  Staged ``modify_state`` expressions are
    evaluated against the snapshot (plus the transaction's own earlier
    writes) and the resulting states installed at commit — "reads come
    from the begin snapshot, writes land at commit".  Admits *write
    skew* (disjoint writes under overlapping reads), exactly the cycles
    the DSG checker in :mod:`repro.workloads.histories` classifies as
    the only ones an SI run may produce.
``ssi``
    SI plus rw-antidependency tracking at relation granularity, in the
    style of Cahill et al.: a committing transaction that is the pivot
    of a dangerous structure (an incoming *and* an outgoing rw edge),
    or that completes a committed pivot's structure, aborts.  The
    tracking may abort conservatively (flags are kept per transaction,
    not per edge pair) but never admits a non-serializable history.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import CommandError, ConcurrencyError
from repro.core.commands import (
    Command,
    ModifyState,
    Sequence as CommandSequence,
    sequence,
)
from repro.core.database import EMPTY_DATABASE, Database
from repro.core.expressions import Const
from repro.concurrency.transactions import Transaction, TransactionStatus
from repro.obsv import registry as _obsv

__all__ = ["TransactionManager", "ISOLATION_LEVELS"]

#: Every isolation level the manager implements; the one list Session,
#: the server config and ``serve --isolation`` check against.
ISOLATION_LEVELS = ("serial", "si", "ssi")


class _CommitRecord:
    """One committed transaction retained for SSI antidependency
    tracking (pruned once no live transaction can be concurrent)."""

    __slots__ = (
        "txn_id", "commit_txn", "read_set", "write_set", "in_rw", "out_rw"
    )

    def __init__(
        self,
        txn_id: int,
        commit_txn: int,
        read_set: frozenset,
        write_set: frozenset,
        in_rw: bool,
        out_rw: bool,
    ) -> None:
        self.txn_id = txn_id
        self.commit_txn = commit_txn
        self.read_set = read_set
        self.write_set = write_set
        #: Some concurrent transaction read a relation this one wrote.
        self.in_rw = in_rw
        #: This transaction read a relation a concurrent one wrote.
        self.out_rw = out_rw


class TransactionManager:
    """Assigns concurrent transactions monotonically increasing commit
    transaction numbers under one of :data:`ISOLATION_LEVELS`.

    ``first_committer_wins=False`` disables the last-writer conflict
    check.  It exists solely so the DSG isolation checker can prove it
    *catches* the resulting lost updates (the mutation test the test
    suite runs); never disable it in real use.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        isolation: str = "serial",
        *,
        first_committer_wins: bool = True,
    ) -> None:
        if isolation not in ISOLATION_LEVELS:
            raise ConcurrencyError(
                f"isolation must be one of {ISOLATION_LEVELS}, got "
                f"{isolation!r}"
            )
        self._database = database if database is not None else EMPTY_DATABASE
        self._isolation = isolation
        self._serial = isolation == "serial"
        #: serial keeps the metric names of the original single-writer
        #: manager; si and ssi report under ``concurrency.mvcc.*``.
        self._metrics = "concurrency." if self._serial else "concurrency.mvcc."
        self._first_committer_wins = first_committer_wins
        self._next_txn_id = 1
        #: relation identifier → database transaction number of the most
        #: recent committed write.  The whole conflict check: a
        #: transaction conflicts iff one of its probe set's entries
        #: exceeds its begin point.  Bounded by the number of relations,
        #: so never pruned.
        self._last_writer: dict[str, int] = {}
        #: txn_id → Transaction for every begun-but-unfinished
        #: transaction (the visibility horizon).
        self._active: dict[int, Transaction] = {}
        #: SSI only: committed transactions still concurrent with some
        #: active transaction, with their rw-conflict flags.
        self._commit_log: deque[_CommitRecord] = deque()
        #: SSI only: rw flags of *active* transactions, marked by
        #: committing writers whose write set met their read set.
        self._active_flags: dict[int, list[bool]] = {}
        self._commits = 0
        self._aborts = 0
        self._conflicts = 0
        self._ssi_aborts = 0

    # -- state ------------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The current committed database."""
        return self._database

    @property
    def isolation(self) -> str:
        """``"serial"``, ``"si"`` or ``"ssi"``."""
        return self._isolation

    @property
    def commit_count(self) -> int:
        """Number of committed transactions."""
        return self._commits

    @property
    def abort_count(self) -> int:
        """Aborts of every kind (conflicts, SSI aborts, explicit)."""
        return self._aborts

    @property
    def conflict_count(self) -> int:
        """Aborts by the last-writer conflict check (stale reads under
        serial, first-committer-wins under si/ssi)."""
        return self._conflicts

    @property
    def ssi_abort_count(self) -> int:
        """Dangerous-structure aborts (ssi only)."""
        return self._ssi_aborts

    @property
    def outstanding_count(self) -> int:
        """Transactions begun but neither committed nor aborted."""
        return len(self._active)

    @property
    def validation_log_size(self) -> int:
        """Committed transactions retained for SSI antidependency
        tracking (always 0 under serial and si; bounded by the oldest
        outstanding snapshot under ssi)."""
        return len(self._commit_log)

    def snapshot_age(self) -> int:
        """How many transaction numbers the oldest active snapshot
        trails the current database (0 when idle)."""
        if not self._active:
            return 0
        return self._database.transaction_number - self._oldest_begin()

    def _oldest_begin(self) -> int:
        """The begin point of the oldest active transaction, in O(1):
        ``_active`` keeps begin order and begin points never decrease,
        so the first entry still present is the oldest."""
        return next(iter(self._active.values())).begin_txn

    # -- lifecycle ----------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction reading the current database value as its
        snapshot.  Nothing is locked; concurrent begins share structure."""
        transaction = Transaction(
            txn_id=self._next_txn_id,
            begin_txn=self._database.transaction_number,
            snapshot=self._database,
        )
        self._next_txn_id += 1
        self._active[transaction.txn_id] = transaction
        if self._isolation == "ssi":
            self._active_flags[transaction.txn_id] = [False, False]
        if _obsv.enabled():
            _obsv.get().counter(self._metrics + "begins").inc()
            self._observe_active()
        return transaction

    def commit(self, transaction: Transaction) -> Database:
        """Validate and atomically apply the transaction.

        Raises :class:`ConcurrencyError` (and marks the transaction
        aborted) when validation fails.  Returns the new database.
        """
        if transaction.status is not TransactionStatus.ACTIVE:
            raise ConcurrencyError(
                f"transaction {transaction.txn_id} is "
                f"{transaction.status.value}"
            )
        if _obsv.enabled():
            registry = _obsv.get()
            with registry.timer(self._metrics + "validate_seconds"):
                self._validate(transaction)
            with registry.timer(self._metrics + "commit_seconds"):
                new_database = self._apply(transaction)
        else:
            self._validate(transaction)
            new_database = self._apply(transaction)
        commit_txn = new_database.transaction_number
        if self._isolation == "ssi":
            self._record_ssi_commit(transaction, commit_txn)
        if not self._serial or commit_txn > self._database.transaction_number:
            # serial records only commits that advanced the transaction
            # number: a no-op apply (every command skipped) changed
            # nothing a concurrent reader could have observed
            for identifier in transaction.write_set:
                self._last_writer[identifier] = commit_txn
        self._database = new_database
        transaction.status = TransactionStatus.COMMITTED
        transaction.commit_txn = commit_txn
        self._commits += 1
        self._finish(transaction)
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter(self._metrics + "commits").inc()
            registry.histogram(self._metrics + "snapshot_age").observe(
                commit_txn - transaction.begin_txn
            )
        return new_database

    def abort(self, transaction: Transaction) -> None:
        """Abort without touching the database."""
        if transaction.status is not TransactionStatus.ACTIVE:
            return
        transaction.status = TransactionStatus.ABORTED
        self._aborts += 1
        self._finish(transaction)
        if _obsv.enabled():
            _obsv.get().counter(self._metrics + "aborts").inc()

    def run(
        self, body: Callable[[Transaction], None], retries: int = 3
    ) -> Database:
        """Run ``body`` inside a transaction, retrying up to ``retries``
        times on a validation conflict.

        A raising ``body`` must not leak an ACTIVE transaction: the
        transaction is aborted (counted in :attr:`abort_count`) and the
        exception propagates, never retried.
        """
        last_error: Optional[ConcurrencyError] = None
        for attempt in range(retries + 1):
            if attempt and _obsv.enabled():
                _obsv.get().counter(self._metrics + "retries").inc()
            transaction = self.begin()
            try:
                body(transaction)
            except BaseException:
                self.abort(transaction)
                raise
            try:
                return self.commit(transaction)
            except ConcurrencyError as error:
                last_error = error
        raise ConcurrencyError(
            f"transaction failed after {retries} retries: {last_error}"
        )

    # -- validation ----------------------------------------------------------------

    def _validate(self, transaction: Transaction) -> None:
        """Abort if a relation in the probe set (serial: read set;
        si/ssi: write set) was written by a transaction that committed
        after this one began; under ssi, then check dangerous
        structures."""
        if self._first_committer_wins:
            probe = (
                transaction.read_set if self._serial
                else transaction.write_set
            )
            begin = transaction.begin_txn
            last_writer = self._last_writer
            conflict = [r for r in probe if last_writer.get(r, -1) > begin]
            if conflict:
                conflict.sort()
                self.abort(transaction)
                self._conflicts += 1
                if _obsv.enabled():
                    _obsv.get().counter(self._metrics + "conflicts").inc()
                if self._serial:
                    why = (
                        f": read {conflict} which a concurrent transaction "
                        "wrote after this transaction began"
                    )
                else:
                    why = (
                        f" (first-committer-wins): {conflict} written by a "
                        "transaction that committed after this one began"
                    )
                raise ConcurrencyError(
                    f"transaction {transaction.txn_id} aborted{why}"
                )
        if self._isolation == "ssi":
            self._check_dangerous_structures(transaction)

    def _check_dangerous_structures(self, transaction: Transaction) -> None:
        """SSI: abort a committing transaction that would complete a
        dangerous structure (a pivot with both an incoming and an
        outgoing rw-antidependency).

        Relation-granularity version of Cahill et al.'s commit-time
        test: flags are maintained on active transactions (marked by
        committing writers) and on retained committed transactions, so
        a pivot is caught whether it is this transaction or an already
        committed one whose structure this commit would close.
        """
        reads = transaction.read_set
        writes = transaction.write_set
        flags = self._active_flags.get(transaction.txn_id, [False, False])
        has_in, has_out = flags
        begin = transaction.begin_txn
        for record in self._commit_log:
            if record.commit_txn <= begin:
                continue  # committed before this transaction began
            if record.write_set & reads:
                # T read a version record later overwrote: T --rw--> C.
                # C gains an incoming edge, so C is a complete pivot iff
                # it already has an outgoing one; T is the only
                # abortable party.
                has_out = True
                if record.out_rw:
                    self._ssi_abort(
                        transaction,
                        f"committing would make committed transaction "
                        f"{record.txn_id} a dangerous-structure pivot",
                    )
            if record.read_set & writes:
                # C read what T now overwrites: C --rw--> T.  C gains an
                # outgoing edge: pivot iff it already has an incoming.
                has_in = True
                if record.in_rw:
                    self._ssi_abort(
                        transaction,
                        f"committing would close committed transaction "
                        f"{record.txn_id}'s dangerous structure "
                        "(it has both rw-antidependency edges)",
                    )
        for other in self._active.values():
            if other.txn_id == transaction.txn_id:
                continue
            if other.read_set & writes:
                # an in-flight reader of something T writes: A --rw--> T
                has_in = True
            if other.write_set & reads:
                # T read what an in-flight transaction intends to write;
                # pessimistic (A may yet abort) but never unsound.
                has_out = True
        if has_in and has_out:
            self._ssi_abort(
                transaction,
                "it is the pivot of a dangerous structure (incoming and "
                "outgoing rw-antidependencies)",
            )
        flags[0] = has_in
        flags[1] = has_out

    def _ssi_abort(self, transaction: Transaction, why: str) -> None:
        self.abort(transaction)
        self._ssi_aborts += 1
        if _obsv.enabled():
            _obsv.get().counter("concurrency.mvcc.ssi_aborts").inc()
        raise ConcurrencyError(
            f"transaction {transaction.txn_id} aborted (ssi): {why}"
        )

    def _record_ssi_commit(
        self, transaction: Transaction, commit_txn: int
    ) -> None:
        """Retain the committed transaction for future antidependency
        checks and push rw flags onto whoever it conflicts with."""
        reads = transaction.read_set
        writes = transaction.write_set
        flags = self._active_flags.get(transaction.txn_id, [False, False])
        begin = transaction.begin_txn
        for record in self._commit_log:
            if record.commit_txn <= begin:
                continue
            if record.write_set & reads:
                record.in_rw = True  # T --rw--> C
            if record.read_set & writes:
                record.out_rw = True  # C --rw--> T
        for txn_id, other in self._active.items():
            if txn_id == transaction.txn_id:
                continue
            if other.read_set & writes:
                # A --rw--> T: the still-active reader gained an
                # outgoing edge it must account for at its own commit.
                self._active_flags[txn_id][1] = True
        self._commit_log.append(
            _CommitRecord(
                txn_id=transaction.txn_id,
                commit_txn=commit_txn,
                read_set=reads,
                write_set=writes,
                in_rw=flags[0],
                out_rw=flags[1],
            )
        )

    # -- apply ---------------------------------------------------------------------

    def _apply(self, transaction: Transaction) -> Database:
        """Install the staged writes, aborting the transaction if that
        fails.  serial re-executes the staged commands against the
        current database: validation proved every relation they read is
        unchanged since the snapshot."""
        if not transaction.commands:
            return self._database
        try:
            if self._serial:
                return sequence(transaction.commands).execute(self._database)
            return self._install_from_snapshot(transaction)
        except BaseException:
            # a command that fails at apply time (e.g. its expression
            # reads an unbound relation) must abort, not leave the
            # transaction pinned ACTIVE in the visibility horizon
            self.abort(transaction)
            raise

    def _install_from_snapshot(self, transaction: Transaction) -> Database:
        """si/ssi: evaluate every ``modify_state`` expression against the
        begin snapshot *plus the transaction's own earlier writes* and
        install the resulting constant states into the current database,
        picking up fresh commit transaction numbers.  First-committer-
        wins has already guaranteed no written chain moved since the
        snapshot, so the install cannot clobber a concurrent writer."""
        effective = transaction.snapshot
        rewritten: list[Command] = []
        for command in _flatten(transaction.commands):
            if isinstance(command, ModifyState):
                if not effective.state.is_bound(command.identifier):
                    if command.strict:
                        raise CommandError(
                            f"modify_state: {command.identifier!r} is "
                            "not defined in this transaction's snapshot"
                        )
                    continue  # the paper's no-op, under snapshot reads
                # Execute against the effective snapshot (this resolves
                # untyped ∅ and type-checks the state), then freeze the
                # just-installed state into a constant for the install
                # pass against the current database.
                effective = command.execute(effective)
                installed = effective.state.require(
                    command.identifier
                ).current_state
                rewritten.append(
                    ModifyState(
                        command.identifier,
                        Const(installed),
                        strict=command.strict,
                    )
                )
            else:
                effective = command.execute(effective)
                rewritten.append(command)
        if not rewritten:
            return self._database
        return sequence(rewritten).execute(self._database)

    # -- internal ------------------------------------------------------------------

    def _finish(self, transaction: Transaction) -> None:
        """Release a committed or aborted transaction's hold on the
        horizon, on *every* exit path, so it never pins the SSI log."""
        self._active.pop(transaction.txn_id, None)
        self._active_flags.pop(transaction.txn_id, None)
        self._prune_commit_log()
        if _obsv.enabled():
            self._observe_active()

    def _observe_active(self) -> None:
        registry = _obsv.get()
        registry.gauge(self._metrics + "active").set(len(self._active))
        registry.gauge(self._metrics + "oldest_snapshot_age").set(
            self.snapshot_age()
        )

    def _prune_commit_log(self) -> None:
        """Drop committed records no live transaction can be concurrent
        with: one that committed at or before every outstanding begin
        point — and before any *future* begin point, which is at least
        the current transaction number — can never matter again."""
        if not self._commit_log:
            return
        horizon = self._database.transaction_number
        if self._active:
            horizon = min(horizon, self._oldest_begin())
        log = self._commit_log
        while log and log[0].commit_txn <= horizon:
            log.popleft()


def _flatten(commands) -> list[Command]:
    """Expand staged Sequence nodes into the flat command list the
    snapshot rewrite walks."""
    flat: list[Command] = []
    stack = list(reversed(list(commands)))
    while stack:
        command = stack.pop()
        if isinstance(command, CommandSequence):
            stack.append(command.second)
            stack.append(command.first)
        else:
            flat.append(command)
    return flat
