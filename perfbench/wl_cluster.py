"""``cluster_mix``: reads and writes through a sharded, replicated session.

One client drives ``Session(cluster=ClusterConfig(shards=2,
replicas_per_shard=1, freshness="fresh"))`` in a closed loop.  Set-up
defines four rollback relations, two on each shard, and gives each a
history of replaced rows.  About a quarter of the operations replace one
row of a random relation (the relation keeps its size); the rest are
cross-shard unions, of relations on different shards, at ``now`` or at
a fixed past transaction, which fan out to both shards and read from
the replicas after they catch up.  The timed phase runs rounds of a
fixed number of operations, each on a freshly built cluster (built
between timed operations), so history depth per round does not depend
on the speed of the code.

Oracle: the single client sees every write's transaction number, so each
reply must equal the query's AST evaluated by the pure semantics on the
oracle database at exactly that point; each round's final database must
equal the oracle replay.
"""

from __future__ import annotations

import gc
import random

from common import Phase, Workload
from script import Rel, select

ROWS = {"full": 40, "tiny": 12}
ROUND_OPS = {"full": 1500, "tiny": 400}
HISTORY = {"full": 30, "tiny": 4}
WRITE_SHARE = 0.25


class ClusterMix(Workload):
    def setup(self) -> None:
        self.session = None
        self._build()

    def _build(self) -> None:
        from repro.cluster import ClusterConfig
        from repro.core.sentences import run
        from repro.lang.session import Session

        self.session = session = Session(cluster=ClusterConfig(
            shards=2, replicas_per_shard=1, freshness="fresh"))
        sharded = session.cluster.sharded
        # two relations per shard, whatever the partitioner decides
        by_shard: dict[int, list[str]] = {0: [], 1: []}
        for index in range(64):
            name = f"t{index}"
            placed = by_shard[sharded.shard_of(name)]
            if len(placed) < 2:
                placed.append(name)
        names = by_shard[0] + by_shard[1]
        self.rels = [Rel(n, [("id", "integer"), ("val", "integer")])
                     for n in names]
        rng = random.Random(self.seed)
        commands = [rel.define() for rel in self.rels]
        for rel in self.rels:
            commands.append(rel.modify(rel.const(
                [(k, rng.randrange(1000)) for k in range(ROWS[self.size])])))
        for _ in range(HISTORY[self.size]):
            for rel in self.rels:
                commands.append(self._replace(rng, rel))
        self.setup_txn = len(commands)
        past = self.setup_txn - len(self.rels) * 2
        a, b, c, d = self.rels  # a, b on shard 0; c, d on shard 1
        # one text in five reads the past: those replies come back an
        # order of magnitude faster, and a larger share would put
        # read_p50_ms on the edge between the two
        self.queries = [
            a.at() | c.at(),
            b.at() | d.at(),
            select([("val", ">", 500)], a.at())
            | select([("val", ">", 500)], d.at()),
            b.at() | select([("val", "<", 500)], c.at()),
            a.at(past) | c.at(past),
        ]
        for command in commands:
            session.execute(command.text)
        for query in self.queries:
            session.query(query.text)
        self.oracle = run([cmd.ast for cmd in commands])

    def _replace(self, rng, rel: Rel):
        key = rng.randrange(ROWS[self.size])
        return rel.modify(select([("id", "!=", key)], rel.at())
                          | rel.const([(key, rng.randrange(1000))]))

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        number = 0
        while True:
            if number:
                self.session.close()
                self.session = None
                # free the previous round's cluster before building the
                # next, so peak memory does not depend on collector timing
                gc.collect()
                self._build()
            self._round(phase, number)
            number += 1
            if phase.elapsed >= seconds:
                return phase

    def _round(self, phase: Phase, number: int) -> None:
        from repro.core.commands import execute

        rng = random.Random(self.seed * 31 + number)
        if self.tracer is not None:
            self.tracer.segment = number
        session = self.session
        database = self.oracle
        for _ in range(ROUND_OPS[self.size]):
            if rng.random() < WRITE_SHARE:
                command = self._replace(rng, rng.choice(self.rels))
                output = phase.call(
                    "write", lambda: session.execute(command.text),
                    self.tracer,
                )
                database = execute(command.ast, database)
                phase.user_bytes += command.size
                ok = (not isinstance(output, Exception)
                      and session.transaction_number
                      == database.transaction_number)
            else:
                query = self.queries[rng.randrange(len(self.queries))]
                output = phase.call(
                    "read", lambda: session.query(query.text), self.tracer
                )
                ok = (not isinstance(output, Exception)
                      and output == query.ast.evaluate(database))
                if ok:
                    phase.rows_returned += len(output)
            phase.failed += not ok
        phase.failed += session.database != database

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        super().close()
