"""The disconnect regressions: a client that vanishes mid-request or
mid-response must never leak an ACTIVE transaction, a worker slot, or an
admission slot.

These are the network-boundary version of PR 1's abort-on-raise fix:
the server's write path runs sentences under the TransactionManager, so
a failing or abandoned request must leave ``outstanding_count == 0``,
and admission's ``depth``/``inflight`` must return to zero however the
connection dies."""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.errors import RemoteError
from repro.server import protocol
from repro.server.client import ReproClient
from repro.server.server import ServerConfig, ThreadedServer

STATE = "state (k: integer, v: integer) { (1, 10) }"


def ensure_no_leaked_transactions(store) -> None:
    """The plain backing's manager has no begun-but-unfinished
    transaction (the disconnect regression)."""
    manager = store.manager
    assert manager is None or not manager.outstanding_count, (
        f"{manager.outstanding_count} ACTIVE transaction(s) leaked"
    )


def _wait_for(handle, predicate, timeout=10.0):
    """Poll the server's metrics until ``predicate(metrics)``."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        metrics = handle.metrics()
        if predicate(metrics):
            return metrics
        time.sleep(0.02)
    raise AssertionError(
        f"server never reached the expected state: {handle.metrics()}"
    )


@pytest.fixture
def server():
    config = ServerConfig(
        port=0, workers=1, queue_high=64, debug_ops=True
    )
    with ThreadedServer(config) as handle:
        yield handle


class TestFailedWrites:
    def test_failing_sentence_leaks_no_active_transaction(self, server):
        """A sentence that raises server-side aborts cleanly — the
        TransactionManager discipline, now load-bearing on the wire."""
        with ReproClient(server.host, server.port) as client:
            assert client.execute("define_relation(r, rollback)") == 1
            with pytest.raises(RemoteError):
                # fails mid-evaluation, after the transaction began
                client.execute("modify_state(r, rollback(missing, now))")
            with pytest.raises(RemoteError):
                client.execute("define_relation(r2, bogus_type)")
            txn = client.execute(f"modify_state(r, {STATE})")
            assert txn == 2  # failed sentences consumed no txn numbers
        server._on_loop(
            lambda: ensure_no_leaked_transactions(server.server.store)
        )


class TestDisconnectMidRequest:
    def test_queued_requests_orphaned_not_executed(self, server):
        """Hang up with work queued: slots release, nothing executes,
        nothing leaks."""
        with ReproClient(server.host, server.port) as setup:
            setup.execute("define_relation(r, rollback)")
            setup.execute(f"modify_state(r, {STATE})")
        sock = socket.create_connection(
            (server.host, server.port), timeout=30
        )
        # a stalled query occupies the single worker, three more queue
        messages = [
            protocol.request(1, "query", "rollback(r, now)", stall_ms=300)
        ] + [
            protocol.request(i, "query", "rollback(r, now)")
            for i in range(2, 5)
        ]
        sock.sendall(
            b"".join(protocol.encode_message(m) for m in messages)
        )
        _wait_for(server, lambda m: m["server.accepted"] >= 6)
        sock.close()  # vanish with one executing and three queued
        metrics = _wait_for(
            server,
            lambda m: m["server.queue_depth"] == 0
            and m["server.inflight"] == 0,
        )
        # the queued three were orphaned without occupying a worker
        assert metrics["server.orphaned"] == 3
        assert metrics["server.connections_open"] == 0
        server._on_loop(
            lambda: ensure_no_leaked_transactions(server.server.store)
        )
        # and the server still serves new clients afterwards
        with ReproClient(server.host, server.port) as client:
            assert client.ping() == 2

    def test_disconnect_during_write_does_not_leak(self, server):
        """Hang up while an execute is queued: whether or not it ran,
        no ACTIVE transaction and no slot survives."""
        with ReproClient(server.host, server.port) as setup:
            setup.execute("define_relation(w, rollback)")
        sock = socket.create_connection(
            (server.host, server.port), timeout=30
        )
        messages = [
            protocol.request(1, "query", "rollback(w, now)", stall_ms=200),
            protocol.request(2, "execute", f"modify_state(w, {STATE})"),
        ]
        sock.sendall(
            b"".join(protocol.encode_message(m) for m in messages)
        )
        _wait_for(server, lambda m: m["server.accepted"] >= 3)
        sock.close()
        _wait_for(
            server,
            lambda m: m["server.queue_depth"] == 0
            and m["server.inflight"] == 0,
        )
        server._on_loop(
            lambda: ensure_no_leaked_transactions(server.server.store)
        )
        # the database is still consistent: either the write was
        # orphaned (txn 1) or completed before the close (txn 2)
        with ReproClient(server.host, server.port) as client:
            assert client.ping() in (1, 2)


class TestDisconnectMidResponse:
    def test_close_before_reading_reply_frees_everything(self, server):
        """Hang up after the worker started but before the response is
        read: the failed response write must not kill the worker."""
        with ReproClient(server.host, server.port) as setup:
            setup.execute("define_relation(r, rollback)")
            setup.execute(f"modify_state(r, {STATE})")
        for _ in range(3):  # repeat: a leaked slot would accumulate
            sock = socket.create_connection(
                (server.host, server.port), timeout=30
            )
            sock.sendall(
                protocol.encode_message(
                    protocol.request(
                        1, "query", "rollback(r, now)", stall_ms=150
                    )
                )
            )
            _wait_for(server, lambda m: m["server.inflight"] == 1)
            # SO_LINGER(0) sends RST: the response write genuinely fails
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()
            _wait_for(
                server,
                lambda m: m["server.inflight"] == 0
                and m["server.queue_depth"] == 0,
            )
        metrics = server.metrics()
        assert metrics["server.connections_open"] == 0
        server._on_loop(
            lambda: ensure_no_leaked_transactions(server.server.store)
        )
        # the worker survived all three aborted responses
        with ReproClient(server.host, server.port) as client:
            assert client.query("rollback(r, now)")
