"""The server's shared backing database and per-connection views.

One process serves one database.  The :class:`ServerStore` is a thin
owner of one :class:`Session`, so the server composes the same five
backings the session does (see :mod:`repro.lang.backing`) and adds a
wire, not a sixth storage engine.

**Writes** are serialized.  On the plain backing a sentence commits as
one transaction through the session's transaction manager, whose
abort-on-raise discipline means a failing sentence never half-applies
or leaks an ACTIVE transaction; other backings write through their own
WAL/coordinator commit path.  Writes through :attr:`ServerStore.session`
share that one path, so transaction numbers stay strictly increasing.

**Reads** never touch the write path.  Each connection gets its own
:class:`SessionView`: a reader over the session's backing with a
private plan cache (parse once, optimize once, compile once per query
text).  Replica backings catch up before each read (serve-fresh).
"""

from __future__ import annotations

from repro.core.database import Database
from repro.errors import ConcurrencyError
from repro.lang.parser import parse_sentence
from repro.lang.session import Session, format_state

__all__ = ["ServerStore", "SessionView", "render_state"]

#: The backing keyword arguments a store forwards to its Session.
_BACKING_KWARGS = frozenset({
    "durable_dir", "fsync", "checkpoint_every", "shards", "replica_of",
    "cluster", "isolation",
})


def render_state(state) -> str:
    """The canonical printed form of a query result — shared by the
    server, the REPL and the differential oracle, so "byte-identical to
    the in-process session" is comparing like with like."""
    from repro.core.expressions import is_empty_set

    if is_empty_set(state):
        return "∅ (no recorded state)"
    return format_state(state)


class ServerStore:
    """The one shared backing database behind a server.

    Takes the backing keyword arguments of :class:`Session`
    (``durable_dir``, ``fsync``, ``checkpoint_every``, ``shards``,
    ``replica_of``, ``cluster``, ``isolation``) with its defaults."""

    def __init__(self, **backing) -> None:
        unknown = sorted(backing.keys() - _BACKING_KWARGS)
        if unknown:
            raise TypeError(
                f"ServerStore() got unexpected keyword argument(s) "
                f"{', '.join(unknown)}"
            )
        self._session = Session(**backing)

    # -- state ---------------------------------------------------------------

    @property
    def session(self) -> Session:
        """The authoritative session over the backing database."""
        return self._session

    @property
    def manager(self):
        """The session's transaction manager on the plain backing (see
        :attr:`Session.transaction_manager`); None on the others, whose
        own execute path is the serialized commit path."""
        try:
            return self._session.transaction_manager
        except ConcurrencyError:
            return None

    @property
    def isolation(self) -> str:
        """The write path's isolation level."""
        return self._session.isolation

    @property
    def transaction_number(self) -> int:
        return self._session.transaction_number

    @property
    def cluster(self):
        """The backing :class:`~repro.cluster.Cluster`, or None."""
        return self._session.cluster

    @property
    def degraded_shards(self) -> "tuple[int, ...]":
        """Shards currently refusing writes (cluster backing only)."""
        cluster = self.cluster
        return () if cluster is None else cluster.degraded_shards

    @property
    def fully_degraded(self) -> bool:
        """True when *every* shard of a cluster backing is degraded —
        the server then sheds writes at admission instead of queueing
        work that is guaranteed to fail."""
        degraded = self.degraded_shards
        return bool(degraded) and len(degraded) == self.cluster.shard_count

    def current_database(self) -> Database:
        """The immutable database value reads anchor to."""
        return self._session.database

    # -- writes --------------------------------------------------------------

    def execute(self, source: str) -> int:
        """Execute one sentence; returns the resulting transaction
        number.  Raises (without partial effect on the plain backing)
        when the sentence is invalid."""
        return self._session._execute_sentence(parse_sentence(source))

    # -- reads ---------------------------------------------------------------

    def view(self) -> "SessionView":
        """A fresh per-connection read view."""
        return SessionView(self)

    def catch_up(self) -> int:
        """Replica backing: apply shipped records before a read (the
        serve-fresh policy); other backings: no-op."""
        session = self._session
        return 0 if session.replica is None else session.catch_up()

    def close(self) -> None:
        self._session.close()


class SessionView:
    """One connection's read view: a private plan cache over the shared
    backing, so every read sees the latest committed value."""

    __slots__ = ("_store", "_session")

    def __init__(self, store: ServerStore) -> None:
        self._store = store
        self._session = store.session._view()

    def _reader(self) -> Session:
        self._store.catch_up()
        return self._session

    def query(self, source: str) -> str:
        """Evaluate an expression and return its printed relation."""
        return render_state(self._reader().query(source))

    def explain(self, source: str) -> str:
        """The optimizer's story for a query against the current value."""
        return self._reader().explain(source)

    def plan_cache_info(self) -> dict:
        return self._session.plan_cache_info()
