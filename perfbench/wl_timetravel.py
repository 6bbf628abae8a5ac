"""``timetravel_scan``: queries at random past transactions.

Set-up builds a deep history over two rollback relations in a plain
in-memory session: ``parts`` (200 rows in every version; each commit
replaces one row or swaps one for a new key) and ``groups`` (12 rows, a
version every twentieth commit).  One client then issues, in a closed
loop, queries at random past transaction numbers N taken from the
set-up's history: selections at N (15%), differences ρ(parts, N) −
ρ(parts, N − 50) (15%), projections at N (40%) and a selection over the
product with ``groups`` (30%).  Nearly every text is distinct, so the
128-entry plan cache misses and evicts.  One operation in ten appends a
row to ``parts`` (so the run also has writes; it moves the transaction
number but not the states the queries read).

Oracle: each reply must equal the query's AST evaluated by the pure
semantics on the oracle database; the final database must equal the
oracle replay of the set-up and of every acknowledged write.
"""

from __future__ import annotations

import random

from common import Phase, Workload
from script import Rel, project, select

PARTS = {"full": 200, "tiny": 30}
COMMITS = {"full": 600, "tiny": 60}
GROUPS = 12
WRITE_SHARE = 0.1
GAP = 50
HIGH = 750


def _qty(rng, high: bool) -> int:
    return rng.randrange(HIGH + 1, 1000) if high else rng.randrange(HIGH + 1)


class TimetravelScan(Workload):
    def __init__(self, seed, workdir, size, traced):
        super().__init__(seed, workdir, size, traced)
        self.parts = Rel("parts", [("pk", "integer"), ("grp", "integer"),
                                   ("qty", "integer")])
        self.groups = Rel("groups", [("gid", "integer"),
                                     ("label", "string")])

    def setup(self) -> None:
        from repro.core.sentences import run
        from repro.lang.session import Session

        rng = random.Random(self.seed)
        parts, groups = self.parts, self.groups
        # a quarter of the rows have qty > HIGH, in every version
        rows = {k: (k, rng.randrange(GROUPS), _qty(rng, k % 4 == 0))
                for k in range(PARTS[self.size])}
        labels = {g: f"g{g}-0" for g in range(GROUPS)}
        commands = [
            parts.define(),
            groups.define(),
            parts.modify(parts.const(sorted(rows.values()))),
            groups.modify(groups.const(sorted(labels.items()))),
        ]
        self.next_key = len(rows)
        for index in range(COMMITS[self.size]):
            if index % 20 == 19:
                gid = rng.randrange(GROUPS)
                old = (gid, labels[gid])
                labels[gid] = f"g{gid}-{index}"
                commands.append(groups.modify(
                    (groups.at() - groups.const([old]))
                    | groups.const([(gid, labels[gid])])
                ))
                continue
            # every version keeps the same number of rows, and of rows
            # with qty > HIGH, so the cost of a query does not depend on
            # the seed or on which N it picks
            old = rows.pop(rng.choice(sorted(rows)))
            qty = _qty(rng, old[2] > HIGH)
            if rng.random() < 0.5:
                new = (self.next_key, rng.randrange(GROUPS), qty)
                self.next_key += 1
            else:
                new = (old[0], old[1], qty)
            rows[new[0]] = new
            commands.append(parts.modify(
                (parts.at() - parts.const([old])) | parts.const([new])
            ))
        self.setup_txn = len(commands)
        self.session = Session()
        for command in commands:
            self.session.execute(command.text)
        self.oracle = run([c.ast for c in commands])

    def _query(self, rng):
        parts, groups = self.parts, self.groups
        first, last = 4, self.setup_txn
        n = rng.randint(first, last)
        # projections take the middle of the mix (30% to 70%), so
        # read_p50_ms is the median of one query shape, not the edge
        # between two
        choice = rng.random()
        if choice < 0.15:
            return select([("qty", ">", rng.randrange(1000))], parts.at(n))
        if choice < 0.3:
            # a fixed distance back keeps the differences one size
            return parts.at(n) - parts.at(max(first, n - GAP))
        if choice < 0.7:
            return project(["grp", "qty"], parts.at(n))
        # a fixed selectivity keeps every product the same size, so the
        # tail percentile does not ride on the sampled sizes
        return select(
            [("grp", "=", "@gid")],
            select([("qty", ">", HIGH)], parts.at(n)) * groups.at(n),
        )

    def phase(self, seconds: float) -> Phase:
        from repro.core.commands import execute

        phase = Phase()
        rng = random.Random(self.seed * 31 + 1)
        session = self.session
        database = self.oracle
        while phase.elapsed < seconds:
            if rng.random() < WRITE_SHARE:
                row = (self.next_key, rng.randrange(GROUPS),
                       rng.randrange(1000))
                self.next_key += 1
                command = self.parts.modify(
                    self.parts.at() | self.parts.const([row])
                )
                output = phase.call(
                    "write", lambda: session.execute(command.text),
                    self.tracer,
                )
                database = execute(command.ast, database)
                phase.user_bytes += command.size
                ok = (not isinstance(output, Exception)
                      and output.transaction_number
                      == database.transaction_number)
            else:
                query = self._query(rng)
                output = phase.call(
                    "read", lambda: session.query(query.text), self.tracer
                )
                # past states are untouched by the later appends
                ok = (not isinstance(output, Exception)
                      and output == query.ast.evaluate(self.oracle))
                if ok:
                    phase.rows_returned += len(output)
            phase.failed += not ok
        self.final_oracle = database
        return phase

    def finish(self, phase: Phase) -> None:
        if self.session.database != self.final_oracle:
            phase.failed += 1
