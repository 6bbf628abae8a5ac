"""Regression tests: ``VersionedDatabase.execute`` must honor the
``strict`` flag of ``DefineRelation``/``ModifyState``.

Pre-fix, the backend execution path silently dropped the flag — the
exact class of silent physical/logical drift the paper's Section 5
observation-equivalence criterion is supposed to rule out.  Every test
here fails against the pre-fix code.
"""

from __future__ import annotations

import pytest

from repro.errors import CommandError
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.storage import (
    CheckpointDeltaBackend,
    DeltaBackend,
    FullCopyBackend,
    ReverseDeltaBackend,
    TupleTimestampBackend,
    VersionedDatabase,
)

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])


def kv(*rows):
    return SnapshotState(KV, [list(r) for r in rows])


@pytest.fixture(
    params=[
        FullCopyBackend,
        DeltaBackend,
        ReverseDeltaBackend,
        lambda: CheckpointDeltaBackend(4),
        TupleTimestampBackend,
    ],
    ids=[
        "full-copy",
        "forward-delta",
        "reverse-delta",
        "checkpoint-delta",
        "tuple-timestamp",
    ],
)
def vdb(request):
    return VersionedDatabase(request.param())


class TestStrict:
    def test_strict_define_on_bound_raises(self, vdb):
        vdb.execute(DefineRelation("r", "rollback"))
        with pytest.raises(CommandError, match="already defined"):
            vdb.execute(DefineRelation("r", "rollback", strict=True))
        # the failed command must not consume a transaction number
        assert vdb.transaction_number == 1

    def test_strict_modify_on_unbound_raises(self, vdb):
        with pytest.raises(CommandError, match="not defined"):
            vdb.execute(
                ModifyState("ghost", Const(kv((1, 1))), strict=True)
            )
        assert vdb.transaction_number == 0

    def test_non_strict_still_noops(self, vdb):
        vdb.execute(DefineRelation("r", "rollback"))
        vdb.execute(DefineRelation("r", "rollback"))  # bound: no-op
        vdb.execute(ModifyState("ghost", Const(kv((1, 1)))))  # unbound
        assert vdb.transaction_number == 1

    def test_strict_define_on_unbound_succeeds(self, vdb):
        vdb.execute(DefineRelation("r", "rollback", strict=True))
        assert vdb.transaction_number == 1

    def test_strict_matches_pure_semantics_error(self, vdb):
        """The pure and physical paths raise for the same inputs."""
        from repro.core.database import EMPTY_DATABASE

        command = ModifyState("ghost", Const(kv((1, 1))), strict=True)
        with pytest.raises(CommandError):
            command.execute(EMPTY_DATABASE)
        with pytest.raises(CommandError):
            vdb.execute(command)

