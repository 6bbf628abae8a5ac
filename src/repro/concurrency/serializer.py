"""Deterministic interleaved execution and the serializability check.

The paper requires implementations that permit concurrency to preserve
"the semantics of sequential update with a monotonically increasing
transaction time".  :class:`InterleavedScheduler` simulates N clients whose
transactions interleave under a seeded schedule; the fundamental check
(experiment E10) is that the committed database equals
:func:`serial_execution` of the committed transactions in commit order.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from repro.core.commands import Command, sequence
from repro.core.database import EMPTY_DATABASE, Database
from repro.errors import ConcurrencyError
from repro.concurrency.manager import TransactionManager
from repro.concurrency.transactions import Transaction

__all__ = ["ClientScript", "InterleavedScheduler", "serial_execution"]

#: A client's transaction body: receives the Transaction, stages commands.
TransactionBody = Callable[[Transaction], None]


class ClientScript:
    """A named client with a list of transaction bodies to run in order."""

    __slots__ = ("name", "bodies")

    def __init__(
        self, name: str, bodies: Sequence[TransactionBody]
    ) -> None:
        self.name = name
        self.bodies = list(bodies)

    def __repr__(self) -> str:
        return f"ClientScript({self.name}, {len(self.bodies)} txns)"


class InterleavedScheduler:
    """Runs client scripts with a seeded, randomly interleaved schedule.

    Each step picks a random client with remaining work.  A client's
    transaction is begun, its body staged, and then — crucially, to create
    real interleavings — its commit is *deferred* with probability
    ``overlap``: other clients may begin (and commit) in between, which is
    what exercises validation.
    """

    def __init__(
        self,
        clients: Sequence[ClientScript],
        seed: int = 0,
        overlap: float = 0.5,
        max_retries: int = 5,
        manager=None,
    ) -> None:
        self._clients = list(clients)
        self._rng = random.Random(seed)
        self._overlap = overlap
        self._max_retries = max_retries
        #: A serial TransactionManager by default; bench_e20 passes
        #: si/ssi managers to compare isolation levels.
        self.manager = manager if manager is not None else TransactionManager()
        #: Commands of each committed transaction, in commit order.
        self.committed_scripts: list[list[Command]] = []

    def run(self) -> Database:
        """Execute every client's transactions to completion; return the
        final committed database."""
        # Work items: (client index, body index, retries left).
        pending: list[tuple[int, int, int]] = [
            (ci, bi, self._max_retries)
            for ci, client in enumerate(self._clients)
            for bi in range(len(client.bodies))
        ]
        # Keep per-client order: only the lowest unfinished body index of
        # each client is eligible.
        done: dict[int, int] = {ci: 0 for ci in range(len(self._clients))}
        in_flight: list[tuple[Transaction, int, int, int]] = []

        try:
            while pending or in_flight:
                # Decide whether to start a new transaction or commit one.
                can_start = [
                    item for item in pending if item[1] == done[item[0]]
                ]
                start_new = can_start and (
                    not in_flight or self._rng.random() < self._overlap
                )
                if start_new:
                    item = self._rng.choice(can_start)
                    pending.remove(item)
                    ci, bi, retries = item
                    transaction = self.manager.begin()
                    self._clients[ci].bodies[bi](transaction)
                    in_flight.append((transaction, ci, bi, retries))
                    continue
                # Commit a random in-flight transaction.
                index = self._rng.randrange(len(in_flight))
                transaction, ci, bi, retries = in_flight.pop(index)
                try:
                    self.manager.commit(transaction)
                except ConcurrencyError:
                    if retries <= 0:
                        raise
                    pending.append((ci, bi, retries - 1))
                    continue
                self.committed_scripts.append(list(transaction.commands))
                done[ci] = bi + 1
        finally:
            # A raising run (retries exhausted, or a failing body) must
            # not leave the other in-flight transactions ACTIVE: they
            # would pin the manager's validation horizon forever, so the
            # commit log could never be pruned again.
            for transaction, _, _, _ in in_flight:
                self.manager.abort(transaction)
        return self.manager.database


def serial_execution(
    committed_scripts: Sequence[Sequence[Command]],
    initial: Optional[Database] = None,
) -> Database:
    """Execute the committed transactions' command lists serially, in
    order, from the empty database — the sequential semantics against
    which the interleaved run is compared."""
    database = initial if initial is not None else EMPTY_DATABASE
    for script in committed_scripts:
        if script:
            database = sequence(list(script)).execute(database)
    return database
