"""Canonical serialization of commands — what the WAL actually stores.

The paper defines a database as the cumulative result of a *sentence*: a
sequence of commands replayed from the empty database (Section 3.5).  The
log therefore stores **commands, not states**; recovery re-runs them
through the one semantic function :func:`repro.core.commands.execute`, so
there is no second, parallel interpretation of what a command means.

A command is encoded as a small JSON object.  ``modify_state``
expressions ride as concrete syntax, produced by
:func:`repro.lang.ast_printer.format_expression` and decoded by
:func:`repro.lang.parser.parse_expression` — the pair whose round-trip
the language test suite already guarantees — so the WAL format inherits
the grammar's stability instead of inventing a new AST encoding:

    {"op": "define", "id": "r", "rtype": "rollback", "strict": false}
    {"op": "modify", "id": "r", "expr": "(rollback(r, now) union ...)",
     "strict": false}
    {"op": "seq", "commands": [ ... ]}

A full WAL record adds the transaction number the command *committed*
(`txn`), which recovery uses as a divergence check: after replaying a
record, the database's transaction number must equal the recorded one.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import StorageError
from repro.core.commands import (
    Command,
    DefineRelation,
    ModifyState,
    Sequence,
)
from repro.core.txn import TransactionNumber

__all__ = [
    "command_to_dict",
    "command_from_dict",
    "encode_command",
    "decode_command",
    "encode_record",
    "decode_record",
]


def command_to_dict(command: Command) -> dict[str, Any]:
    """A command AST as a JSON-ready dictionary."""
    if isinstance(command, DefineRelation):
        return {
            "op": "define",
            "id": command.identifier,
            "rtype": command.rtype.value,
            "strict": command.strict,
        }
    if isinstance(command, ModifyState):
        from repro.lang.ast_printer import format_expression

        return {
            "op": "modify",
            "id": command.identifier,
            "expr": format_expression(command.expression),
            "strict": command.strict,
        }
    if isinstance(command, Sequence):
        commands: list[dict[str, Any]] = []
        stack = [command]
        # flatten the Sequence tree left-to-right; sequencing is
        # associative so the flat order is the execution order
        while stack:
            node = stack.pop()
            if isinstance(node, Sequence):
                stack.append(node.second)
                stack.append(node.first)
            else:
                commands.append(command_to_dict(node))
        return {"op": "seq", "commands": commands}
    raise StorageError(
        f"cannot serialize command {command!r} for the WAL"
    )


def command_from_dict(payload: dict[str, Any]) -> Command:
    """Rebuild a command from :func:`command_to_dict` output."""
    if not isinstance(payload, dict):
        raise StorageError(
            f"malformed command payload: expected an object, got "
            f"{type(payload).__name__}"
        )
    op = payload.get("op")
    try:
        if op == "define":
            return DefineRelation(
                payload["id"],
                payload["rtype"],
                strict=bool(payload.get("strict", False)),
            )
        if op == "modify":
            from repro.lang.parser import parse_expression

            # records written by earlier versions also carry a
            # "memoize" flag; it never changed the result, so it is
            # ignored and those logs still replay
            return ModifyState(
                payload["id"],
                parse_expression(payload["expr"]),
                strict=bool(payload.get("strict", False)),
            )
        if op == "seq":
            from repro.core.commands import sequence

            return sequence(
                command_from_dict(entry)
                for entry in payload["commands"]
            )
    except StorageError:
        raise
    except Exception as error:
        raise StorageError(
            f"malformed {op!r} command payload: {error}"
        ) from error
    raise StorageError(f"unknown command op {op!r}")


def encode_command(command: Command) -> bytes:
    """Canonical bytes for one command (compact, key-sorted JSON)."""
    return json.dumps(
        command_to_dict(command),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")


def decode_command(data: bytes) -> Command:
    return command_from_dict(_load_json(data))


# -- WAL records ------------------------------------------------------------


def encode_record(
    command: Command, txn: TransactionNumber
) -> bytes:
    """One WAL record: the command plus the transaction number it
    committed (the divergence check replayed by recovery)."""
    return json.dumps(
        {"txn": txn, "cmd": command_to_dict(command)},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")


def decode_record(data: bytes) -> tuple[Command, TransactionNumber]:
    payload = _load_json(data)
    if "cmd" not in payload or "txn" not in payload:
        raise StorageError(
            "malformed WAL record: missing 'cmd' or 'txn'"
        )
    txn = payload["txn"]
    if not isinstance(txn, int) or txn < 0:
        raise StorageError(
            f"malformed WAL record: bad transaction number {txn!r}"
        )
    return command_from_dict(payload["cmd"]), txn


def _load_json(data: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise StorageError(
            f"malformed WAL payload: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise StorageError(
            "malformed WAL payload: expected a JSON object"
        )
    return payload
