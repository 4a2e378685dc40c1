"""Persistence for the design database and design histories.

The thesis keeps a persistent copy of the design history for inter-process
communication between the task and activity managers (§5.3) and so that
reclamation can run as an independent process.  Here persistence is JSON:
payload classes register a codec (``to_dict``/``from_dict``) under a type tag.

Two on-disk database formats are readable:

* **format 1** — the original monolithic snapshot: every payload of every
  version embedded into one ``database.json``.  No longer written, but old
  saved sessions keep loading.
* **format 2** — the only format written: a thin manifest of content
  digests.  Payloads live in a content-addressed
  :class:`~repro.octdb.chunkstore.ChunkStore` (new chunks appended to
  ``objects/pack``; older saves' loose ``objects/<digest[:2]>/<digest>``
  files still read) and the manifest records only
  ``(base, version, chunk, size, ...)`` rows.  Loading builds every
  version's slot — O(versions) small objects — whose payload is its chunk's
  shared :class:`~repro.octdb.chunkstore.LazyPayload` handle, so payload
  decoding is O(touched objects), not O(history).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import PersistenceError
from repro.octdb.chunkstore import (  # noqa: F401  (the codec, re-exported)
    ChunkStore, LazyPayload, decode_payload, encode_payload,
    register_payload_codec)
from repro.octdb.database import (
    DesignDatabase, VersionedObject, _estimate_size, _Reclaimed)
from repro.octdb.naming import parse_name

# --------------------------------------------------------------------- saving


def stored_chunk(obj: VersionedObject, store: ChunkStore) -> str:
    """The address of one version's chunk in ``store``, storing it there if
    needed.  A fingerprinted version whose chunk ``store`` holds encodes and
    hashes nothing; the first store of a payload keeps its address as the
    version's fingerprint, and a lazily restored payload is copied under
    the address it was saved with."""
    chunk = obj.fingerprint
    if chunk is not None and store.dedupe(chunk):
        return chunk
    chunk = store.put_payload(obj.payload)
    if not isinstance(obj.payload, LazyPayload):
        obj.fingerprint = chunk
    return chunk


def save_database(db: DesignDatabase, path: str | Path,
                  store: ChunkStore) -> list[dict[str, Any]]:
    """Serialize the database (including tombstones) as a format-2 manifest
    at ``path``, with payloads written to ``store`` as content-addressed
    chunks.  Returns the manifest rows written."""
    # Deterministic row order (sorted base, then version) makes the manifest
    # byte-identical across save → load → save round trips.
    objects: list[dict[str, Any]] = []
    chains = db._versions
    for base in sorted(chains):
        for index, obj in enumerate(chains[base]):
            version = index + 1
            if type(obj) is _Reclaimed:
                objects.append({
                    "base": base,
                    "version": version,
                    "reclaimed": True,
                    "deleted_at": obj.deleted_at,
                })
                continue
            objects.append({
                "base": base,
                "version": version,
                "created_at": obj.created_at,
                "creator": obj.creator,
                "chunk": stored_chunk(obj, store),
                "size": obj.size,
                "deleted_at": obj.deleted_at,
                "pinned": obj.pinned,
            })
    doc: dict[str, Any] = {
        "format": 2,
        "now": db.clock.now,
        "objects": objects,
        "aliases": db.aliases(),
    }
    # No ``indent``: it would force the standard library's pure-Python
    # encoder.
    Path(path).write_text(json.dumps(doc, sort_keys=True))
    return objects


# -------------------------------------------------------------------- loading


def load_database(
    path: str | Path,
    db: DesignDatabase | None = None,
    store: ChunkStore | None = None,
) -> DesignDatabase:
    """Reconstruct a saved database (format 1 or format 2).

    Format-2 manifests need their chunk store; when ``store`` is omitted it
    defaults to the ``objects/`` directory next to the manifest.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    if db is None:   # NB: an empty DesignDatabase is falsy (it has __len__)
        db = DesignDatabase()
    fmt = doc.get("format", 1)
    if fmt == 1:
        return _load_v1(doc, db)
    if fmt == 2:
        if store is None:
            store = ChunkStore(path.parent / "objects")
        return _load_v2(doc, db, store)
    raise PersistenceError(f"unknown database format {fmt!r} in {path}")


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


def _restore_aliases(db: DesignDatabase, aliases: dict[str, str],
                     rebind: bool) -> None:
    """Re-establish alias lineage (and, for format 1, payload sharing).

    An alias entry shares its source's payload and accounts zero storage.
    In format 2 the sharing falls out of the chunk store's one handle per
    digest (alias and source reference the same chunk), so only lineage
    needs restoring; format 1 embedded a *copy* of the payload, so the
    alias entry must be rebound to the source's decoded object.

    A source slot that exists but was reclaimed is legitimate (the source
    died after the alias was cut): the alias keeps its own payload copy.
    Anything else that fails to resolve raises.
    """
    for alias, source in aliases.items():
        alias_obj = _version_slot(db, alias)
        source_obj = _version_slot(db, source)
        db._note_alias(alias, source)
        if not rebind or _Reclaimed in (type(alias_obj), type(source_obj)):
            # A source reclaimed after aliasing leaves the alias's embedded
            # copy the only one, so its accounted size stands.
            continue
        db._bytes_live -= alias_obj.size
        alias_obj.payload, alias_obj.size = source_obj.payload, 0


def _load_v1(doc: dict[str, Any], db: DesignDatabase) -> DesignDatabase:
    db.clock.advance_to(doc.get("now", 0.0))
    for record in doc["objects"]:
        chain = db._versions.setdefault(record["base"], [])
        if record.get("reclaimed"):
            chain.append(_Reclaimed(record["deleted_at"]))
            continue
        payload = decode_payload(record["payload"])
        obj = VersionedObject(
            record["base"], record["version"], payload,
            record["created_at"], record.get("creator", ""),
            _estimate_size(payload), record["deleted_at"],
            record.get("pinned", False))
        chain.append(obj)
        db._bytes_live += obj.size
    _restore_aliases(db, doc.get("aliases", {}), rebind=True)
    return db


def _load_v2(doc: dict[str, Any], db: DesignDatabase,
             store: ChunkStore) -> DesignDatabase:
    db.clock.advance_to(doc.get("now", 0.0))
    for row in doc["objects"]:
        restore_version(db, row["base"], row["version"], row, store)
    _restore_aliases(db, doc.get("aliases", {}), rebind=False)
    return db
