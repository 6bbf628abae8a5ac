"""Commit-timestamp transaction management.

The paper fixes the semantics of transaction time (Section 3.2): "a
transaction's time-stamp as represented by its transaction number is the
commit time for the transaction", modifications are logically sequential,
and "implementations may also permit concurrent transactions, again as
long as the semantics of sequential update with a monotonically increasing
transaction time is preserved".

This package provides that implementation layer:

* :class:`Transaction` — a client-visible unit of work: reads against a
  begin-time snapshot, staged commands, commit/abort;
* :class:`TransactionManager` — lock-free snapshot reads straight off the
  paper's version chains and atomic commit under a monotonically
  increasing commit transaction number, at one of
  :data:`ISOLATION_LEVELS`: ``serial`` (backward validation of the read
  set against transactions that committed during this one's lifetime),
  ``si`` (first-committer-wins snapshot isolation) or ``ssi`` (SI that
  also aborts rw-antidependency dangerous structures; experiment E20,
  verified by the DSG isolation checker in
  :mod:`repro.workloads.histories`);
* :class:`InterleavedScheduler` — a deterministic simulator that interleaves
  many clients' transactions and checks the fundamental property: the
  committed database equals the serial execution of the committed
  transactions in commit order (experiment E10).
"""

from repro.concurrency.transactions import Transaction, TransactionStatus
from repro.concurrency.manager import ISOLATION_LEVELS, TransactionManager
from repro.concurrency.serializer import (
    ClientScript,
    InterleavedScheduler,
    serial_execution,
)

__all__ = [
    "Transaction",
    "TransactionStatus",
    "TransactionManager",
    "ISOLATION_LEVELS",
    "ClientScript",
    "InterleavedScheduler",
    "serial_execution",
]
