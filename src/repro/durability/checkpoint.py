"""Checkpoints: periodic full-database snapshots that bound replay.

A checkpoint file ``checkpoint-<lsn>.json`` publishes the semantic
DATABASE value (via :mod:`repro.persistence.json_codec`) as it stood
after applying the WAL record with that LSN.  Recovery loads the newest
*valid* checkpoint and replays only the WAL tail past it; compaction
then drops fully-covered segments.

Checkpoints are written with :meth:`FileStore.replace` — atomic and
durable regardless of the WAL's fsync policy — and carry a CRC over the
embedded database dump, so a checkpoint damaged by media corruption is
*detected and skipped* (recovery falls back to the previous one, which
is why the durable layer retains more than one).

States are immutable and a rollback relation only ever appends, so
successive checkpoints share all but their newest states.  A
:class:`StateFragments` memo carries each state's encoding from one
checkpoint to the next; only states added since are encoded again (from
rows mostly encoded already), and the bytes are the same as encoding
the whole database afresh.
"""

from __future__ import annotations

import json
import zlib
from typing import Optional

from repro.errors import CheckpointError, StorageError
from repro.core.database import Database
from repro.durability.files import FileStore
from repro.obsv import hooks as _hooks
from repro.persistence.json_codec import (
    canonical_json,
    database_from_dict,
    database_to_json,
    row_json,
    state_to_dict,
    state_to_json,
)

__all__ = [
    "CHECKPOINT_PREFIX",
    "CHECKPOINT_SUFFIX",
    "checkpoint_name",
    "checkpoint_lsn",
    "list_checkpoints",
    "StateFragments",
    "write_checkpoint",
    "read_checkpoint",
    "latest_checkpoint",
    "drop_old_checkpoints",
]

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
CHECKPOINT_FORMAT = "repro-wal-checkpoint"
CHECKPOINT_VERSION = 1


def checkpoint_name(lsn: int) -> str:
    return f"{CHECKPOINT_PREFIX}{lsn:012d}{CHECKPOINT_SUFFIX}"


def checkpoint_lsn(name: str) -> int:
    return int(name[len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)])


def _is_checkpoint(name: str) -> bool:
    return (
        name.startswith(CHECKPOINT_PREFIX)
        and name.endswith(CHECKPOINT_SUFFIX)
        and name[len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)].isdigit()
    )


def list_checkpoints(store: FileStore) -> tuple[str, ...]:
    """Checkpoint file names, oldest first."""
    return tuple(
        sorted(
            (n for n in store.list() if _is_checkpoint(n)),
            key=checkpoint_lsn,
        )
    )


class StateFragments:
    """The canonical JSON of every state the last checkpoint wrote, and
    of every tuple row of each relation's newest state, keyed by ``id``.

    Each entry holds a strong reference to its state or tuple, so the
    ``id`` cannot be reused while the entry lives.  :meth:`encode` keeps
    exactly the states of the database it encoded, and the rows of the
    newest states, so the memo never outgrows the live database.

    Consecutive versions of a rollback relation usually share all but a
    few tuples.  States are therefore encoded newest first: the newest
    one row by row, and each older one from the cached rows when it
    shares most of its tuples with them (one sort of cached rows instead
    of one encoding per row), else whole, which costs less than
    encoding its rows one by one.
    """

    __slots__ = ("_states", "_rows")

    def __init__(self) -> None:
        self._states: dict[int, tuple[object, str]] = {}
        self._rows: dict[int, tuple[object, tuple[str, str]]] = {}

    def __len__(self) -> int:
        return len(self._states)

    def encode(self, database: Database) -> str:
        """The checkpoint body for ``database``: byte-identical to
        ``canonical_json(database_to_dict(database))``."""
        old_states, rows = self._states, self._rows
        states: dict[int, tuple[object, str]] = {}
        newest = []

        def encode_row(t) -> tuple[str, str]:
            entry = rows.get(id(t))
            if entry is None:
                entry = rows[id(t)] = (t, row_json(t))
            return entry[1]

        def mostly_cached(tuples) -> bool:
            return 2 * len(rows.keys() & map(id, tuples)) > len(tuples)

        for identifier in database.state:
            sequence = database.require(identifier).rstate
            for age, (state, _) in enumerate(reversed(sequence)):
                key = id(state)
                if key in states:
                    continue
                entry = old_states.get(key)
                if entry is None:
                    if age == 0 or mostly_cached(state.tuples):
                        fragment = state_to_json(state, encode_row)
                    else:
                        fragment = canonical_json(state_to_dict(state))
                    entry = (state, fragment)
                states[key] = entry
            if sequence:
                newest.append(sequence[-1][0])
        body = database_to_json(database, lambda state: states[id(state)][1])
        self._states = states
        self._rows = {
            key: rows[key]
            for state in newest
            for key in map(id, state.tuples)
            if key in rows
        }
        return body


def write_checkpoint(
    store: FileStore,
    database: Database,
    lsn: int,
    fragments: Optional[StateFragments] = None,
) -> str:
    """Atomically publish ``database`` as the checkpoint covering every
    WAL record with LSN ≤ ``lsn``.  Returns the file name.

    ``fragments`` is the writer's memo of states encoded by its previous
    checkpoint; without one, every state is encoded."""
    if fragments is None:
        fragments = StateFragments()
    inner = fragments.encode(database)
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "lsn": lsn,
        "crc": zlib.crc32(inner.encode("utf-8")) & 0xFFFFFFFF,
        "database": inner,
    }
    name = checkpoint_name(lsn)
    store.replace(name, json.dumps(envelope).encode("utf-8"))
    observer = _hooks.wal_observer()
    if observer is not None:
        observer.checkpointed()
    return name


def read_checkpoint(
    store: FileStore, name: str
) -> tuple[int, Database]:
    """Load and validate one checkpoint; raises :class:`CheckpointError`
    on any damage (bad JSON, wrong format, CRC mismatch)."""
    try:
        envelope = json.loads(store.read(name).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CheckpointError(
            f"checkpoint {name!r} is unreadable: {error}"
        ) from error
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != CHECKPOINT_FORMAT
    ):
        raise CheckpointError(f"{name!r} is not a repro checkpoint")
    if envelope.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {name!r} has unsupported version "
            f"{envelope.get('version')!r}"
        )
    inner = envelope.get("database")
    if not isinstance(inner, str):
        raise CheckpointError(f"checkpoint {name!r} has no database body")
    if zlib.crc32(inner.encode("utf-8")) & 0xFFFFFFFF != envelope.get(
        "crc"
    ):
        raise CheckpointError(
            f"checkpoint {name!r} failed its CRC check"
        )
    lsn = envelope.get("lsn")
    if not isinstance(lsn, int) or lsn < 0:
        raise CheckpointError(
            f"checkpoint {name!r} has a bad LSN {lsn!r}"
        )
    return lsn, database_from_dict(json.loads(inner))


def latest_checkpoint(
    store: FileStore,
) -> Optional[tuple[int, Database]]:
    """The newest checkpoint that validates, or None.  Invalid
    checkpoints are skipped (and counted), not fatal."""
    for name in reversed(list_checkpoints(store)):
        try:
            return read_checkpoint(store, name)
        except StorageError:
            observer = _hooks.wal_observer()
            if observer is not None:
                observer.invalid_checkpoint()
    return None


def drop_old_checkpoints(
    store: FileStore, keep: int = 2
) -> tuple[int, ...]:
    """Delete all but the newest ``keep`` checkpoints; returns the LSNs
    of the retained ones (oldest first)."""
    if keep < 1:
        raise CheckpointError(f"must keep at least one checkpoint, got {keep}")
    names = list_checkpoints(store)
    for name in names[:-keep] if len(names) > keep else ():
        store.delete(name)
    return tuple(checkpoint_lsn(n) for n in names[-keep:])
