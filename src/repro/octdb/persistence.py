"""Persistence for the design database and design histories.

The thesis keeps a persistent copy of the design history for inter-process
communication between the task and activity managers (§5.3) and so that
reclamation can run as an independent process.  Here persistence is JSON:
payload classes register a codec (``to_dict``/``from_dict``) under a type tag.

The database is saved as a format-2 manifest, the only format read: rows of
``(base, version, chunk, size, ...)`` over a content-addressed
:class:`~repro.octdb.chunkstore.ChunkStore` that holds the payloads.

Both directions are O(versions), so the per-row cost is kept small.  Saving
streams each row to the file as the sorted-key JSON text ``json.dumps``
would give it, building no row dict, and a version whose chunk the store
indexes already (its fingerprint, or a restored handle's digest) is written
without encoding or hashing its payload.  Loading parses the manifest once
and builds every version's slot, whose payload is its chunk's shared
:class:`~repro.octdb.chunkstore.LazyPayload` handle, so payload decoding
is O(touched objects), not O(history).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable

from repro.errors import PersistenceError
from repro.octdb.chunkstore import (  # noqa: F401  (the codec, re-exported)
    _JSON, UPGRADE, ChunkStore, LazyPayload, decode_payload, encode_payload,
    register_payload_codec)
from repro.octdb.database import DesignDatabase, VersionedObject, _Reclaimed
from repro.octdb.naming import parse_name

# --------------------------------------------------------------------- saving


def stored_chunk(obj: VersionedObject, store: ChunkStore) -> str:
    """The address of one version's chunk in ``store``, storing it there if
    needed, kept as the version's fingerprint.  A version whose chunk
    ``store`` holds (its fingerprint, or a lazily restored payload's
    handle's digest) encodes and hashes nothing."""
    chunk = obj.fingerprint
    if chunk is None and type(obj.payload) is LazyPayload:
        chunk = obj.payload.digest
    if chunk is None or not store.dedupe(chunk):
        chunk = store.put_payload(obj.payload)
    obj.fingerprint = chunk
    return chunk


def save_database(db: DesignDatabase, path: str | Path,
                  store: ChunkStore) -> set[str]:
    """Serialize the database (including tombstones) as a format-2 manifest
    at ``path``, with payloads written to ``store`` as content-addressed
    chunks.  Returns the chunk addresses the manifest references.

    The manifest's bytes are those of ``json.dumps(doc, sort_keys=True)``
    of ``{"aliases", "format": 2, "now", "objects"}``, whose ``objects``
    holds one row per version sorted by base, then version (so a save →
    load → save round trip is byte-identical).  No row dict is built: each
    row is written as its sorted-key JSON text (:func:`_write_rows`), to a
    sibling file that replaces ``path`` once it is whole, so a save that
    fails (a payload the codec cannot write) leaves the old manifest.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "w", encoding="utf-8") as fh:
            fh.write(f'{{"aliases": {_JSON(db._alias_sources)}, '
                     f'"format": 2, "now": {_JSON(db.clock.now)}, '
                     f'"objects": [')
            chunks = _write_rows(fh.write, db, store)
            fh.write("]}")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return chunks


def _write_rows(write: Callable[[str], Any], db: DesignDatabase,
                store: ChunkStore) -> set[str]:
    """Write the manifest rows of every version, comma-separated, and
    return the chunk addresses they reference.

    A live row's keys are ``base, chunk, created_at, creator, deleted_at,
    pinned, size, version`` and a reclaimed one's ``base, deleted_at,
    reclaimed, version``, each value as ``json.dumps`` writes it.
    """
    chunks: set[str] = set()
    creators: dict[str, str] = {}
    chains = db._versions
    sep = ""
    for base in sorted(chains):
        head = f'{{"base": {_JSON(base)}, '
        for version, obj in enumerate(chains[base], 1):
            if type(obj) is _Reclaimed:
                write(f'{sep}{head}"deleted_at": {_JSON(obj.deleted_at)}, '
                      f'"reclaimed": true, "version": {version}}}')
                sep = ", "
                continue
            chunk = stored_chunk(obj, store)
            chunks.add(chunk)
            creator = creators.get(obj.creator)
            if creator is None:
                creator = creators[obj.creator] = _JSON(obj.creator)
            # A chunk address is lowercase hex: nothing to escape.
            write(f'{sep}{head}"chunk": "{chunk}", '
                  f'"created_at": {_JSON(obj.created_at)}, '
                  f'"creator": {creator}, '
                  f'"deleted_at": {_JSON(obj.deleted_at)}, '
                  f'"pinned": {_JSON(obj.pinned)}, "size": {_JSON(obj.size)}, '
                  f'"version": {version}}}')
            sep = ", "
    return chunks


# -------------------------------------------------------------------- loading


def read_json(path: Path) -> Any:
    """The JSON document in ``path`` (:class:`PersistenceError` if not)."""
    try:
        return json.loads(path.read_bytes())
    except ValueError as exc:
        raise PersistenceError(f"{path} is not valid JSON: {exc}") from None


def read_format2(path: Path) -> dict[str, Any]:
    """A format-2 document; any other format raises, naming the converter."""
    doc = read_json(path)
    fmt = doc.get("format", 1) if isinstance(doc, dict) else None
    if fmt != 2:
        raise PersistenceError(
            f"{path} is format {fmt!r}, and only format 2 is read: {UPGRADE}")
    return doc


def load_database(
    path: str | Path,
    db: DesignDatabase | None = None,
    store: ChunkStore | None = None,
) -> DesignDatabase:
    """Reconstruct a saved database from its manifest.  The chunk store
    (by default ``objects/`` beside it) is indexed first, so an older layout
    is refused before anything is restored."""
    path = Path(path)
    doc = read_format2(path)
    if db is None:   # NB: an empty DesignDatabase is falsy (it has __len__)
        db = DesignDatabase()
    if store is None:
        store = ChunkStore(path.parent / "objects")
    store.refresh()
    db.clock.advance_to(doc.get("now", 0.0))
    try:
        for row in doc["objects"]:
            restore_version(db, row["base"], row["version"], row, store)
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"{path} has a malformed row: {exc!r}") \
            from None
    # An alias row names its source's chunk, so the two share one handle:
    # only the lineage is restored.  A reclaimed slot on either side is
    # legitimate; a name that resolves to no slot raises.
    for alias, source in doc.get("aliases", {}).items():
        _version_slot(db, alias)
        _version_slot(db, source)
        db._note_alias(alias, source)
    return db


def _version_slot(db: DesignDatabase,
                  name: str) -> VersionedObject | _Reclaimed:
    """The raw chain slot for a *versioned* name; reclaimed slots allowed.

    Raises :class:`PersistenceError` when the reference does not resolve —
    a saved alias or journal entry pointing at a version the save never
    stored means the save is corrupt, and loading it silently would
    double-count storage and lose reuse lineage.
    """
    oname = parse_name(name)
    chain = db._versions.get(oname.base)
    if chain is None or oname.version is None \
            or not 1 <= oname.version <= len(chain):
        raise PersistenceError(
            f"saved reference {name!r} does not resolve to a stored version"
        )
    return chain[oname.version - 1]


def restore_version(db: DesignDatabase, base: str, version: int,
                    row: dict[str, Any], store: ChunkStore) -> None:
    """Append the slot of one saved version — a manifest row or a journaled
    put — to its chain, with its chunk's shared handle as the payload.

    Raises :class:`PersistenceError` unless ``version`` is the chain's next
    version: a gap or a repeat means the save is corrupt.
    """
    chain = db._versions.setdefault(base, [])
    if version != len(chain) + 1:
        raise PersistenceError(
            f"saved version {base}@{version} does not extend its version "
            f"chain (next is {base}@{len(chain) + 1})"
        )
    if row.get("reclaimed"):
        chain.append(_Reclaimed(row["deleted_at"]))
        return
    chain.append(VersionedObject(
        base, version, store.handle(row["chunk"]),
        row["created_at"], row.get("creator", ""), row["size"],
        row.get("deleted_at"), row.get("pinned", False)))
    db._bytes_live += row["size"]
