"""Tests for the WAL command codec."""

import pytest

from repro.errors import StorageError
from repro.core.commands import (
    DefineRelation,
    ModifyState,
    Sequence,
    execute,
)
from repro.core.database import EMPTY_DATABASE
from repro.durability.codec import (
    command_from_dict,
    command_to_dict,
    decode_command,
    decode_record,
    encode_command,
    encode_record,
)
from repro.lang.parser import parse_command, parse_sentence

from tests.durability.conftest import oracle_history


def roundtrip(command):
    return decode_command(encode_command(command))


#: Paper-flavoured programs, as the parser would produce them — the
#: codec must round-trip anything the language can say.
PROGRAMS = [
    "define_relation(faculty, snapshot)",
    "define_relation(log, rollback)",
    "define_relation(emp, historical)",
    "define_relation(audit, temporal)",
    'modify_state(faculty, state (name: string, rank: string)'
    ' { ("Merrie", "Assistant"), ("Tom", "Associate") })',
    "modify_state(log, (rollback(log, now) union"
    ' state (k: integer) { (1), (2) }))',
    "modify_state(log, (rollback(log, 3) minus rollback(log, 1)))",
    "modify_state(faculty, project [name]"
    ' (select [rank = "Assistant"] (rollback(faculty, now))))',
    "modify_state(faculty, (rollback(faculty, now) times"
    ' state (dept: string) { ("cs") }))',
    'modify_state(emp, state (name: string)'
    ' { ("Ann") @ [1, 10), ("Ed") @ [5, forever) })',
    "modify_state(emp, derive [ ; ] (rollback(emp, now)))",
    "modify_state(emp, derive [nonempty(valid) ;"
    " periods [2, 8)] (rollback(emp, now)))",
    "modify_state(emp, derive [first(valid) precedes periods [50, 60)"
    " ; extend(first(valid), last(valid))] (rollback(emp, now)))",
    'modify_state(audit, state (name: string) { ("x") @ [0, 30) })',
    "modify_state(audit, derive [valid overlaps periods [1, 20) ;"
    " intersect(valid, periods [1, 20))] (rollback(audit, now)))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", PROGRAMS)
    def test_parser_commands_roundtrip(self, source):
        command = parse_command(source)
        payload = command_to_dict(command)
        assert command_to_dict(command_from_dict(payload)) == payload

    def test_roundtrip_preserves_semantics(self):
        """Replaying decoded commands reproduces the exact database the
        originals produce — including every historical valid time."""
        sentence = parse_sentence(";\n".join(PROGRAMS))
        database = EMPTY_DATABASE
        replayed = EMPTY_DATABASE
        for command in sentence:
            database = execute(command, database)
            replayed = execute(roundtrip(command), replayed)
        assert replayed == database
        assert replayed.transaction_number == len(PROGRAMS)

    def test_workload_commands_roundtrip(self, workload, oracle):
        decoded = [roundtrip(command) for command in workload]
        assert oracle_history(decoded)[-1] == oracle[-1]

    def test_strict_flag_survives(self):
        define = DefineRelation("r", "rollback", strict=True)
        assert roundtrip(define).strict is True
        modify = parse_command(
            "modify_state(r, rollback(r, now))"
        )
        flagged = ModifyState(modify.identifier, modify.expression, strict=True)
        assert roundtrip(flagged).strict is True

    @pytest.mark.parametrize("flag", [b"true", b"false"])
    def test_legacy_memoize_key_is_ignored(self, flag):
        """Records written while ``modify_state`` carried a ``memoize``
        flag still decode, and replay to the database the key-less
        record builds; re-encoding drops the key."""
        keyless = (
            b'{"cmd":{"expr":"(rollback(r, now) union state (k: integer)'
            b' { (2) })","id":"r","op":"modify","strict":false},"txn":3}'
        )
        legacy = keyless.replace(b'"op"', b'"memoize":' + flag + b',"op"')
        command, txn = decode_record(legacy)
        assert encode_record(command, txn) == keyless
        start = execute(
            parse_command("modify_state(r, state (k: integer) { (1) })"),
            execute(
                parse_command("define_relation(r, rollback)"),
                EMPTY_DATABASE,
            ),
        )
        replayed = execute(command, start)
        assert replayed == execute(decode_record(keyless)[0], start)
        assert replayed.transaction_number == txn

    def test_sequence_flattens_in_execution_order(self):
        first = parse_command("define_relation(r, rollback)")
        second = parse_command(
            "modify_state(r, state (k: integer) { (1) })"
        )
        third = parse_command(
            "modify_state(r, (rollback(r, now) union"
            " state (k: integer) { (2) }))"
        )
        nested = Sequence(Sequence(first, second), third)
        payload = command_to_dict(nested)
        assert payload["op"] == "seq"
        assert [c["op"] for c in payload["commands"]] == [
            "define",
            "modify",
            "modify",
        ]
        assert execute(roundtrip(nested), EMPTY_DATABASE) == execute(
            nested, EMPTY_DATABASE
        )


class TestRecords:
    def test_record_carries_txn(self):
        command = parse_command("define_relation(r, rollback)")
        back, txn = decode_record(encode_record(command, 17))
        assert txn == 17
        assert command_to_dict(back) == command_to_dict(command)

    def test_record_bytes_are_canonical(self):
        command = parse_command("define_relation(r, rollback)")
        assert encode_record(command, 1) == encode_record(command, 1)


class TestRejections:
    def test_unknown_op(self):
        with pytest.raises(StorageError, match="unknown command op"):
            command_from_dict({"op": "drop", "id": "r"})

    def test_non_object_payload(self):
        with pytest.raises(StorageError, match="expected a JSON object"):
            decode_command(b"[1, 2]")

    def test_garbage_bytes(self):
        with pytest.raises(StorageError, match="malformed"):
            decode_command(b"\xff\x00 not json")

    def test_bad_expression_text(self):
        with pytest.raises(StorageError, match="malformed 'modify'"):
            command_from_dict(
                {"op": "modify", "id": "r", "expr": "union union("}
            )

    def test_record_missing_fields(self):
        with pytest.raises(StorageError, match="missing"):
            decode_record(b'{"cmd": {"op": "define"}}')

    def test_record_bad_txn(self):
        with pytest.raises(StorageError, match="bad transaction number"):
            decode_record(
                b'{"txn": -3, "cmd":'
                b' {"op": "define", "id": "r", "rtype": "rollback"}}'
            )
