"""Spans recorded from outside the program.

The benchmark times each layer by wrapping that layer's public functions
where their callers look them up (several modules import names such as
``parse_sentence`` or ``write_checkpoint`` directly, so the module that
*calls* the function is patched, not only the module that defines it).
Nothing under ``src/`` is modified.

A span is ``[name, start, end, parent, op, size, segment]``: ``parent``
is the index of the enclosing span (-1 for a root), ``op`` is shared by
every span of one operation (the index of its root span), ``size`` is an
optional count taken from the call's result (rows out, bytes written)
and ``segment`` is the workload round the span belongs to.  Spans stay in
memory until the run ends; :func:`self_times` and the layer metrics read
them there, and the server launcher writes them to a file.
"""

from __future__ import annotations

import contextvars
import functools
import time

NAME, START, END, PARENT, OP, SIZE, SEGMENT = range(7)


class Tracer:
    """Collects spans while :attr:`active`; wrappers cost one attribute
    test when it is off."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.segment = 0
        self._stack: contextvars.ContextVar[tuple] = contextvars.ContextVar(
            "perfbench_stack", default=()
        )
        self._undo: list[tuple[object, str, object]] = []
        #: wrapped call site ("module_or_class.attr") -> spans recorded
        self.sites: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        stack = self._stack.get()
        index = len(self.spans)
        if stack:
            parent = stack[-1]
            op = self.spans[parent][OP]
        else:
            parent, op = -1, index
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, op, None, self.segment]
        )
        return index, self._stack.set(stack + (index,))

    def _close(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.reset(token)

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.  ``size``,
        when given, maps ``(result, args)`` to the span's count."""
        original = getattr(owner, attr)
        tracer = self
        site = f"{owner.__name__}.{attr}"
        self.sites[site] = 0

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer.sites[site] += 1
            index, token = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, token)
            if size is not None:
                tracer.spans[index][SIZE] = size(result, args)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_async(self, owner, attr: str, name: str) -> None:
        """As :meth:`wrap`, for a coroutine function.  The span stack is
        a context variable, so interleaved asyncio tasks keep separate
        stacks."""
        original = getattr(owner, attr)
        tracer = self
        site = f"{owner.__name__}.{attr}"
        self.sites[site] = 0

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            if not tracer.active:
                return await original(*args, **kwargs)
            tracer.sites[site] += 1
            index, token = tracer._open(name)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer._close(index, token)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped name (newest first)."""
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _len(result, args) -> int:
    return len(result)


def _checkpoint_bytes(result, args) -> int:
    # write_checkpoint(store, database, lsn) returns the file name
    return len(args[0].read(result))


def _payload_bytes(result, args) -> int:
    # WriteAheadLog.append(self, payload)
    return len(args[1])


def _applied(result, args) -> int:
    return int(result)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.core.expressions as expressions
    import repro.durability.durable as durable
    import repro.lang.session as session
    import repro.replication.replica as replica
    import repro.server.protocol as protocol
    import repro.server.store as store
    from repro.cluster.cluster import Cluster
    from repro.concurrency.manager import TransactionManager
    from repro.core.compile import CompiledPlan
    from repro.core.relation import Relation
    from repro.durability.faults import MemoryStore
    from repro.durability.files import DirectoryStore
    from repro.durability.wal import WriteAheadLog
    from repro.optimizer.rewriter import CostGuidedRewriter
    from repro.server.server import ReproServer
    from repro.sharding.router import ScatterGatherRouter

    wrap = tracer.wrap
    # operation roots of the in-process workloads
    wrap(session.Session, "query", "lang.session.query")
    wrap(session.Session, "execute", "lang.session.execute")
    # lang
    for name in ("parse_sentence", "parse_expression"):
        wrap(session, name, "lang.parse")
    wrap(store, "parse_sentence", "lang.parse")
    wrap(session.Session, "_cached_expression", "lang.plan_cache.lookup")
    # optimizer
    wrap(CostGuidedRewriter, "rewrite", "optimizer.rewrite")
    wrap(session, "collect_statistics", "optimizer.stats")
    # core
    wrap(session, "compile_expression", "core.compile")
    wrap(CompiledPlan, "__call__", "core.evaluate")
    wrap(Relation, "with_new_state", "core.install")
    # snapshot operators, looked up by the compiled plan's handlers
    for name in ("union", "difference", "product", "project", "select"):
        wrap(expressions, "snap_" + name, "snapshot." + name, size=_len)
    # durability
    wrap(WriteAheadLog, "append", "durability.wal.append", size=_payload_bytes)
    wrap(WriteAheadLog, "sync", "durability.wal.sync")
    wrap(DirectoryStore, "sync", "durability.fsync")
    wrap(MemoryStore, "sync", "durability.fsync")
    wrap(durable, "write_checkpoint", "durability.checkpoint",
         size=_checkpoint_bytes)
    wrap(durable, "recover", "durability.recover")
    # concurrency
    wrap(TransactionManager, "run", "concurrency.run")
    wrap(TransactionManager, "begin", "concurrency.begin")
    # server
    wrap(store, "render_state", "server.render")
    wrap(protocol, "encode_message", "server.encode", size=_len)
    wrap(store.SessionView, "query", "server.handler.query")
    wrap(store.ServerStore, "execute", "server.handler.execute")
    tracer.wrap_async(ReproServer, "_process", "server.request")
    # sharding, cluster, replication
    wrap(ScatterGatherRouter, "evaluate", "sharding.evaluate")
    wrap(Cluster, "execute", "cluster.execute")
    wrap(Cluster, "evaluate", "cluster.evaluate")
    wrap(replica.Replica, "catch_up", "replication.catch_up", size=_applied)
    return tracer


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    result = []
    for index, span in enumerate(spans):
        own = span[END] - span[START]
        covered = 0.0
        cursor = span[START]
        for child in sorted(children.get(index, ()),
                            key=lambda i: spans[i][START]):
            start = max(spans[child][START], cursor)
            end = min(spans[child][END], span[END])
            if end > start:
                covered += end - start
                cursor = end
        result.append(own - covered)
    return result
