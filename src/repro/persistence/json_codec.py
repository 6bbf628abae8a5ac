"""JSON encoding/decoding of the semantic DATABASE value."""

from __future__ import annotations

import json
from operator import itemgetter
from typing import IO, Any, Callable

from repro.errors import StorageError
from repro.core.database import Database, DatabaseState
from repro.core.relation import Relation, RelationType
from repro.historical.chronons import FOREVER
from repro.historical.periods import PeriodSet
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.attributes import (
    ANY,
    BOOLEAN,
    INTEGER,
    NUMBER,
    STRING,
    USER_DEFINED_TIME,
    Attribute,
    Domain,
)
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

__all__ = [
    "FORMAT_VERSION",
    "database_to_dict",
    "database_from_dict",
    "database_to_json",
    "canonical_json",
    "row_json",
    "state_to_dict",
    "state_to_json",
    "state_from_dict",
    "dumps",
    "loads",
    "dump",
    "load",
]

FORMAT_VERSION = 1

_BUILTIN_DOMAINS: dict[str, Domain] = {
    d.name: d
    for d in (ANY, BOOLEAN, INTEGER, NUMBER, STRING, USER_DEFINED_TIME)
}


#: ``canonical_json(value)``: ``value`` as compact JSON with sorted keys
#: and unescaped non-ASCII text — the form checkpoints are written in.
#: One shared encoder, because ``json.dumps`` with options builds a new
#: one per call and checkpoints encode one small row at a time.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


# -- schemas -----------------------------------------------------------------


def _schema_to_dict(schema: Schema) -> list[dict[str, str]]:
    return [
        {"name": a.name, "domain": a.domain.name}
        for a in schema.attributes
    ]


def _schema_from_dict(payload: list[dict[str, str]]) -> Schema:
    attributes = []
    for entry in payload:
        domain = _BUILTIN_DOMAINS.get(entry["domain"], ANY)
        attributes.append(Attribute(entry["name"], domain))
    return Schema(attributes)


# -- states -------------------------------------------------------------------


def _periods_to_list(periods: PeriodSet) -> list[list[Any]]:
    return [
        [i.start, None if i.is_unbounded else i.end]
        for i in periods.intervals
    ]


def _periods_from_list(payload: list[list[Any]]) -> PeriodSet:
    return PeriodSet(
        [
            (start, FOREVER if end is None else end)
            for start, end in payload
        ]
    )


def _state_kind(state) -> str:
    if isinstance(state, HistoricalState):
        return "historical"
    if isinstance(state, SnapshotState):
        return "snapshot"
    raise StorageError(f"cannot serialize state {type(state).__name__}")


def _row(t) -> list[Any]:
    """One tuple's entry in its state's ``rows``."""
    if isinstance(t, HistoricalTuple):
        return [list(t.value.values), _periods_to_list(t.valid_time)]
    return list(t.values)


def state_to_dict(state) -> dict[str, Any]:
    """A snapshot or historical state as a JSON-ready dictionary — the
    per-state slice of :func:`database_to_dict`, public because other
    layers (the archive store, checkpoints) serialize bare states."""
    return {
        "kind": _state_kind(state),
        "schema": _schema_to_dict(state.schema),
        "rows": sorted((_row(t) for t in state.tuples), key=repr),
    }


def row_json(t) -> tuple[str, str]:
    """One tuple's row as ``(sort key, canonical JSON)``: rows are
    ordered by the ``repr`` of their :func:`state_to_dict` form."""
    row = _row(t)
    return repr(row), canonical_json(row)


def state_to_json(
    state, encode_row: Callable[[Any], tuple[str, str]] = row_json
) -> str:
    """``canonical_json(state_to_dict(state))``, assembled from one
    :func:`row_json` pair per tuple so a caller can pass an
    ``encode_row`` that reuses rows it encoded before.  The sort is
    stable and sees the tuples in the same order as
    :func:`state_to_dict`, so ties in the sort key fall the same way."""
    kind = _state_kind(state)
    rows = sorted(map(encode_row, state.tuples), key=itemgetter(0))
    return '{"kind":%s,"rows":[%s],"schema":%s}' % (
        canonical_json(kind),
        ",".join(map(itemgetter(1), rows)),
        canonical_json(_schema_to_dict(state.schema)),
    )


def state_from_dict(payload: dict[str, Any]):
    """Rebuild a state from :func:`state_to_dict` output."""
    schema = _schema_from_dict(payload["schema"])
    if payload["kind"] == "historical":
        tuples = [
            HistoricalTuple(
                values, _periods_from_list(periods), schema=schema
            )
            for values, periods in payload["rows"]
        ]
        return HistoricalState(schema, tuples)
    if payload["kind"] == "snapshot":
        return SnapshotState(schema, payload["rows"])
    raise StorageError(f"unknown state kind {payload['kind']!r}")


# Backwards-compatible aliases for the former private spellings.
_state_to_dict = state_to_dict
_state_from_dict = state_from_dict


# -- relations and databases ------------------------------------------------------


def _relation_to_dict(relation: Relation) -> dict[str, Any]:
    return {
        "type": relation.rtype.value,
        "states": [
            {"txn": txn, "state": state_to_dict(state)}
            for state, txn in relation.rstate
        ],
    }


def _relation_from_dict(payload: dict[str, Any]) -> Relation:
    rtype = RelationType.from_name(payload["type"])
    states = [
        (state_from_dict(entry["state"]), entry["txn"])
        for entry in payload["states"]
    ]
    return Relation(rtype, states)


def database_to_dict(database: Database) -> dict[str, Any]:
    """The semantic DATABASE value as a JSON-ready dictionary."""
    return {
        "format": "repro-database",
        "version": FORMAT_VERSION,
        "transaction_number": database.transaction_number,
        "relations": {
            identifier: _relation_to_dict(database.require(identifier))
            for identifier in database.state
        },
    }


def database_to_json(
    database: Database, encode_state: Callable[[Any], str] = state_to_json
) -> str:
    """``canonical_json(database_to_dict(database))``, assembled from one
    fragment per state so a caller can pass an ``encode_state`` that
    reuses fragments it encoded before.

    The text is byte-identical to the dict route: keys appear in the
    order ``sort_keys`` gives them, and each fragment is the canonical
    encoding of :func:`state_to_dict`.
    """
    relations = []
    for identifier in database.state.identifiers:
        relation = database.require(identifier)
        states = ",".join(
            '{"state":%s,"txn":%d}' % (encode_state(state), txn)
            for state, txn in relation.rstate
        )
        relations.append(
            '%s:{"states":[%s],"type":%s}'
            % (
                canonical_json(identifier),
                states,
                canonical_json(relation.rtype.value),
            )
        )
    return (
        '{"format":"repro-database","relations":{%s},'
        '"transaction_number":%d,"version":%d}'
        % (",".join(relations), database.transaction_number, FORMAT_VERSION)
    )


def database_from_dict(payload: dict[str, Any]) -> Database:
    """Rebuild a Database from :func:`database_to_dict` output.

    The format version is gated *before* any decoding: a payload written
    by a newer library is rejected with a clear :class:`StorageError` up
    front, not a confusing failure halfway through decode.
    """
    if not isinstance(payload, dict):
        raise StorageError(
            "payload is not a repro database dump (expected a JSON "
            f"object, got {type(payload).__name__})"
        )
    if payload.get("format") != "repro-database":
        raise StorageError(
            "payload is not a repro database dump "
            f"(format={payload.get('format')!r})"
        )
    version = payload.get("version")
    if not isinstance(version, int):
        raise StorageError(
            f"dump has no integer format version (got {version!r}); "
            "the payload is damaged or not a repro dump"
        )
    if version > FORMAT_VERSION:
        raise StorageError(
            f"dump was written by a newer library (format version "
            f"{version}); this library reads up to version "
            f"{FORMAT_VERSION} — upgrade to load it"
        )
    if version != FORMAT_VERSION:
        raise StorageError(
            f"unsupported dump version {version!r}; "
            f"this library reads version {FORMAT_VERSION}"
        )
    bindings = {
        identifier: _relation_from_dict(entry)
        for identifier, entry in payload["relations"].items()
    }
    return Database(
        DatabaseState(bindings), payload["transaction_number"]
    )


# -- convenience wrappers ----------------------------------------------------------


def dumps(database: Database, indent: int | None = None) -> str:
    """Serialize a database to a JSON string."""
    return json.dumps(database_to_dict(database), indent=indent)


def loads(text: str) -> Database:
    """Deserialize a database from a JSON string."""
    return database_from_dict(json.loads(text))


def dump(database: Database, fp: IO[str], indent: int | None = None) -> None:
    """Serialize a database to an open text file."""
    json.dump(database_to_dict(database), fp, indent=indent)


def load(fp: IO[str]) -> Database:
    """Deserialize a database from an open text file."""
    return database_from_dict(json.load(fp))
