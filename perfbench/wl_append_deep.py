"""``append_deep``: one client appends to a durable rollback relation.

Set-up builds the starting durable directory: one rollback relation
with ``BASE_DEPTH`` single-tuple versions.  The timed phase runs fixed
rounds until ``--seconds`` of timed work have passed; each round starts
from a fresh copy of that directory (so every round sees the same depth
profile, whatever the speed of the code) and commits ``ROUND_WRITES``
writes: single-tuple appends, with about one in ten a delete-then-insert
replace.  After every fourth write it reads the relation at a random
past transaction.  Only the operations themselves are timed: copying
the directory, reopening it and the oracle checks happen between them.

The oracle applies each write's command with the pure command semantics
and checks every reply and each round's final database.  After
the last round the directory is closed and reopened; the reopen is
timed as ``recovery_s`` and the recovered database must equal the
oracle.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import time

from common import Phase, Workload
from script import Rel

BASE_DEPTH = {"full": 192, "tiny": 16}
ROUND_WRITES = {"full": 512, "tiny": 300}
READ_EVERY = 4
REPLACE_SHARE = 0.1


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


class AppendDeep(Workload):
    def __init__(self, seed, workdir, size, traced):
        super().__init__(seed, workdir, size, traced)
        self.rel = Rel("ledger", [("k", "integer"), ("v", "string")])
        self.template = None
        self.round_dir = None
        self.session = None
        self.base_commands = []
        self.keys: list[int] = []
        self.values: dict[int, str] = {}

    # -- phases ----------------------------------------------------------------

    def setup(self) -> None:
        from repro.core.sentences import run
        from repro.lang.session import Session

        rng = random.Random(self.seed)
        self.base_commands = [self.rel.define()]
        for key in range(BASE_DEPTH[self.size]):
            value = f"v{key}-{rng.randrange(10**6)}"
            self.keys.append(key)
            self.values[key] = value
            self.base_commands.append(
                self.rel.modify(self.rel.at() | self.rel.const([(key, value)]))
            )
        self.template = tempfile.mkdtemp(prefix="append-", dir=self.workdir)
        with Session(self.template) as session:
            for command in self.base_commands:
                session.execute(command.text)
        self.base_oracle = run([c.ast for c in self.base_commands])

    def _round(self, phase: Phase, number: int) -> None:
        from repro.core.commands import execute
        from repro.lang.session import Session

        rng = random.Random(self.seed * 7919 + number)
        if self.tracer is not None:
            self.tracer.segment = number
        keys, values = list(self.keys), dict(self.values)
        next_key = len(keys)
        self.round_dir = tempfile.mkdtemp(prefix="round-", dir=self.workdir)
        shutil.copytree(self.template, self.round_dir, dirs_exist_ok=True)
        self.session = session = Session(self.round_dir)
        database = self.base_oracle
        self.round_user_bytes = sum(c.size for c in self.base_commands)
        for index in range(ROUND_WRITES[self.size]):
            if rng.random() < REPLACE_SHARE:
                key = keys[rng.randrange(len(keys))]
                new = f"w{key}-{rng.randrange(10**6)}"
                command = self.rel.modify(
                    (self.rel.at() - self.rel.const([(key, values[key])]))
                    | self.rel.const([(key, new)])
                )
                values[key] = new
            else:
                key, next_key = next_key, next_key + 1
                values[key] = f"v{key}-{rng.randrange(10**6)}"
                keys.append(key)
                command = self.rel.modify(
                    self.rel.at() | self.rel.const([(key, values[key])])
                )
            output = phase.call(
                "write", lambda: session.execute(command.text), self.tracer
            )
            database = execute(command.ast, database)
            phase.user_bytes += command.size
            self.round_user_bytes += command.size
            phase.failed += isinstance(output, Exception) or (
                output.transaction_number != database.transaction_number
            )
            if index % READ_EVERY == READ_EVERY - 1:
                query = self.rel.at(
                    rng.randint(2, database.transaction_number)
                )
                output = phase.call(
                    "read", lambda: session.query(query.text), self.tracer
                )
                ok = (not isinstance(output, Exception)
                      and output == query.ast.evaluate(database))
                if ok:
                    phase.rows_returned += len(output)
                phase.failed += not ok
        if session.database != database:
            phase.failed += 1
        self.round_oracle = database

    def _discard_round(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.round_dir is not None:
            shutil.rmtree(self.round_dir, ignore_errors=True)
            self.round_dir = None
        # free the previous round before the next, so peak memory does
        # not depend on collector timing
        gc.collect()

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        number = 0
        while True:
            self._discard_round()
            self._round(phase, number)
            number += 1
            if phase.elapsed >= seconds:
                return phase

    def finish(self, phase: Phase) -> None:
        from repro.lang.session import Session

        self.session.close()
        self.session = None
        stored = _dir_bytes(self.round_dir)
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        reopened = Session(self.round_dir)
        recovery_s = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        try:
            if reopened.database != self.round_oracle:
                phase.failed += 1
        finally:
            reopened.close()
        self.extras["recovery_s"] = recovery_s
        self.extras["bytes_stored_per_user_byte"] = (
            stored / self.round_user_bytes
        )

    def close(self) -> None:
        self._discard_round()
        if self.template is not None:
            shutil.rmtree(self.template, ignore_errors=True)
            self.template = None
        super().close()
