"""``server_hot_reads``: a read-heavy mix over the wire.

``python -m repro serve`` runs with the plain in-memory backing in its
own process.  One load process drives two client connections from one
asyncio event loop, each a closed loop (a connection sends its next
request when the previous reply arrives).  About 95% of requests are queries drawn from eight fixed
texts, well under the plan cache's 128 entries, that return results of
about 200 rows at ``now`` and at two fixed past transactions (texts of
similar cost, so that queueing behind the other connection does not
swing the tail); the other
5% replace one row of ``acct``, which keeps the relation at 200 rows and
moves the transaction number (so every cached plan is planned again).

Set-up starts the server, loads the starting database over the wire and
issues every query text once on each connection, so the plan caches are
full before timing starts.

Oracle: writes are ordered by the transaction number the server
returned; the numbers must be contiguous.  A query's reply must equal
the oracle's rendering at some transaction between the last write
acknowledged before the query was sent and the last write sent before
its reply arrived; for queries at fixed past transactions that window
admits one answer, whatever the interleaving.  At the end each relation
is read at ``now`` and compared with the oracle's final database.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import signal
import subprocess
import sys
import time

from common import Phase, Workload
from script import Rel, project, select

ROWS = {"full": 200, "tiny": 40}
HISTORY = {"full": 40, "tiny": 10}
CONNECTIONS = 2
WRITE_SHARE = 0.05
PINGS = 200

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


class ServerHotReads(Workload):
    def __init__(self, seed, workdir, size, traced):
        super().__init__(seed, workdir, size, False)
        self.traced = traced
        self.spans_path = os.path.join(workdir, f"spans-{seed}.json")
        self.process = None
        self.loop = None
        self.clients = []
        self.loaded_spans: list = []
        self.loaded_sites: dict = {}
        self.acct = Rel("acct", [("id", "integer"), ("owner", "string"),
                                 ("bal", "integer")])
        self.dept = Rel("dept", [("did", "integer"), ("dname", "string")])

    # -- server process --------------------------------------------------------

    def _start_server(self) -> None:
        serve = ["--port", "0", "--workers", "4"]
        if self.traced:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    self.spans_path, *serve]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *serve]
        env = dict(os.environ, PYTHONPATH=SOURCE)
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=env, text=True
        )
        banner = self.process.stdout.readline()
        if "listening on" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        address = banner.split("listening on ")[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.address = (host, int(port))

    def _stop_server(self) -> None:
        if self.loop is not None:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.loop.close()
            self.loop = None
        self.clients = []
        process, self.process = self.process, None
        if process is None:
            return
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    # -- inputs ----------------------------------------------------------------

    def _row(self, rng, key: int) -> tuple:
        return (key, f"o{key % 37}", rng.randrange(1000))

    def _replace(self, rng) -> object:
        key = rng.randrange(ROWS[self.size])
        row = self._row(rng, key)
        return self.acct.modify(
            select([("id", "!=", key)], self.acct.at())
            | self.acct.const([row])
        )

    def setup(self) -> None:
        from repro.core.sentences import run

        rng = random.Random(self.seed)
        rows = [self._row(rng, k) for k in range(ROWS[self.size])]
        commands = [self.acct.define(), self.dept.define(),
                    self.dept.modify(self.dept.const(
                        [(d, f"dept-{d}") for d in range(10)]))]
        quarter = len(rows) // 4
        for start in range(0, len(rows), quarter):
            commands.append(self.acct.modify(
                self.acct.at() | self.acct.const(rows[start:start + quarter])
            ))
        commands += [self._replace(rng) for _ in range(HISTORY[self.size])]
        self.setup_txn = len(commands)
        past = (self.setup_txn // 2, self.setup_txn - 3)
        acct, dept = self.acct, self.dept
        self.queries = [
            (acct.at(), True),
            (select([("bal", ">=", 500)], acct.at()), True),
            (project(["owner", "bal"], acct.at()), True),
            (acct.at(past[0]), False),
            (select([("bal", "<", 700)], acct.at(past[1])), False),
            (project(["id", "bal"], acct.at(past[1])), False),
            (acct.at() - acct.at(past[0]), True),
            (select([("owner", "!=", "o5")], acct.at(past[0])), False),
        ]
        self.setup_oracle = run([c.ast for c in commands])
        self._start_server()
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._load(commands))

    async def _load(self, commands) -> None:
        from repro.server.client import AsyncReproClient

        self.clients = [
            await AsyncReproClient(*self.address).connect()
            for _ in range(CONNECTIONS)
        ]
        for command in commands:
            await self.clients[0].execute(command.text)
        # fill every connection's plan cache before timing starts
        for client in self.clients:
            for query, _ in self.queries:
                await client.query(query.text)

    # -- timed phase -------------------------------------------------------------

    async def _drive(self, index: int, deadline: float, log: list) -> None:
        from repro.errors import ReproError

        client = self.clients[index]
        rng = random.Random(self.seed * 31 + index)
        while time.perf_counter() < deadline:
            if rng.random() < WRITE_SHARE:
                command = self._replace(rng)
                sent = time.perf_counter()
                try:
                    output = await client.execute(command.text)
                except ReproError as error:
                    output = error
                log.append(("write", command, sent, time.perf_counter(),
                            output))
            else:
                query = rng.randrange(len(self.queries))
                sent = time.perf_counter()
                try:
                    output = await client.query(self.queries[query][0].text)
                except ReproError as error:
                    output = error
                log.append(("read", query, sent, time.perf_counter(),
                            output))

    async def _drive_all(self, deadline: float) -> None:
        await asyncio.gather(*(
            self._drive(i, deadline, self.logs[i])
            for i in range(CONNECTIONS)
        ))

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        self.logs = [[] for _ in range(CONNECTIONS)]
        self.started = time.perf_counter()
        deadline = self.started + seconds
        self.loop.run_until_complete(self._drive_all(deadline))
        self.stopped = time.perf_counter()
        phase.elapsed = self.stopped - self.started
        for log in self.logs:
            for kind, _, sent, received, _ in log:
                phase.latencies[kind].append(received - sent)
        return phase

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    # -- after the phase ---------------------------------------------------------

    def finish(self, phase: Phase) -> None:
        """Check every reply against the oracle (see the module
        docstring) and the final database; a traced run also collects
        the server's spans."""
        from repro.core.commands import execute
        from repro.server.store import render_state

        entries = [entry for log in self.logs for entry in log]
        writes = sorted(
            (e for e in entries if e[0] == "write"
             and not isinstance(e[4], Exception)),
            key=lambda e: e[4],
        )
        phase.failed += sum(1 for e in entries if isinstance(e[4], Exception))
        txns = [e[4] for e in writes]
        expected_txns = list(range(self.setup_txn + 1,
                                   self.setup_txn + 1 + len(writes)))
        if txns != expected_txns:
            phase.failed += 1
        databases = {self.setup_txn: self.setup_oracle}
        database = self.setup_oracle
        for entry in writes:
            database = execute(entry[1].ast, database)
            databases[entry[4]] = database
            phase.user_bytes += entry[1].size
        final_txn = txns[-1] if txns else self.setup_txn
        # admissible windows: acknowledged-before-send .. sent-before-reply
        by_ack = sorted((e[3], e[4]) for e in writes)
        by_send = sorted((e[2], e[4]) for e in writes)
        ack_max, send_max = [], []
        for table, out in ((by_ack, ack_max), (by_send, send_max)):
            best = self.setup_txn
            for _, txn in table:
                best = max(best, txn)
                out.append(best)
        ack_times = [t for t, _ in by_ack]
        send_times = [t for t, _ in by_send]
        rendered: dict[tuple[int, int], str] = {}

        def expected(query: int, txn: int) -> str:
            key = (query, txn)
            if key not in rendered:
                rendered[key] = render_state(
                    self.queries[query][0].ast.evaluate(databases[txn])
                )
            return rendered[key]

        for kind, query, sent, received, output in entries:
            if kind != "read" or isinstance(output, Exception):
                continue
            phase.rows_returned += _rows(output)
            if not self.queries[query][1]:
                ok = output == expected(query, self.setup_txn)
            else:
                i = bisect.bisect_right(ack_times, sent)
                lo = ack_max[i - 1] if i else self.setup_txn
                j = bisect.bisect_left(send_times, received)
                hi = max(lo, send_max[j - 1] if j else self.setup_txn)
                ok = any(output == expected(query, t)
                         for t in range(hi, lo - 1, -1))
            if not ok:
                phase.failed += 1
        self._check_final(phase, final_txn, database)
        if self.traced:
            self._collect_trace()

    def _check_final(self, phase: Phase, txn: int, database) -> None:
        """Read the final database back at ``now``."""
        from repro.server.store import render_state

        run = self.loop.run_until_complete
        client = self.clients[0]
        if run(client.ping()) != txn:
            phase.failed += 1
        for relation in (self.acct, self.dept):
            if run(client.query(relation.at().text)) != render_state(
                relation.at().ast.evaluate(database)
            ):
                phase.failed += 1

    def _collect_trace(self) -> None:
        """Measure ping, stop the traced server and keep the spans of
        the timed phase."""
        run = self.loop.run_until_complete
        client = self.clients[0]
        samples = []
        for _ in range(PINGS):
            start = time.perf_counter()
            run(client.ping())
            samples.append(time.perf_counter() - start)
        samples.sort()
        self.extras["server.ping_ms"] = samples[len(samples) // 2] * 1e3
        self._stop_server()
        with open(self.spans_path, encoding="utf-8") as handle:
            traced = json.load(handle)
        spans, self.loaded_sites = traced["spans"], traced["sites"]
        os.remove(self.spans_path)
        # keep the timed phase; spans carry the host's monotonic clock
        first = next(
            (i for i, s in enumerate(spans) if s[1] >= self.started),
            len(spans),
        )
        self.loaded_spans = _reindex(spans, first, self.stopped)

    def spans(self) -> list:
        return self.loaded_spans

    def sites(self) -> dict:
        return self.loaded_sites

    def close(self) -> None:
        self._stop_server()
        super().close()


def _rows(text: str) -> int:
    """Rows in a rendered relation (header and rule lines excluded)."""
    if text.startswith("∅") or text.endswith("(empty)"):
        return 0
    return text.count("\n") - 1


def _reindex(spans: list, first: int, stop: float) -> list:
    """The operations whose root span starts at index ``first`` or later
    and before ``stop``, with parent and op indices renumbered."""
    kept: list = []
    position: dict[int, int] = {}
    for old, span in enumerate(spans[first:], first):
        if span[1] > stop:
            break
        if span[4] != old and span[4] not in position:
            continue  # part of an operation that began before the window
        position[old] = len(kept)
        kept.append(span[:3] + [position.get(span[3], -1),
                                position[span[4]]] + span[5:])
    return kept
