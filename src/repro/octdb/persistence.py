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
  :class:`~repro.octdb.chunkstore.ChunkStore`
  (``objects/<digest[:2]>/<digest>``) and the manifest records only
  ``(base, version, chunk, size, ...)`` rows.  Loading rebuilds the database
  with :class:`~repro.octdb.chunkstore.LazyPayload` handles, so restore cost
  is O(touched objects), not O(history).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import PersistenceError
from repro.octdb.chunkstore import (  # noqa: F401  (the codec, re-exported)
    ChunkStore, LazyPayload, decode_payload, encode_payload,
    register_payload_codec)
from repro.octdb.database import DesignDatabase, VersionedObject, _Entry, _estimate_size
from repro.octdb.naming import ObjectName, parse_name

# --------------------------------------------------------------------- saving


def stored_chunk(entry: _Entry, store: ChunkStore) -> str:
    """The address of one version's chunk in ``store``, storing it there if
    needed.  A fingerprinted version whose chunk ``store`` holds encodes and
    hashes nothing; the first store of a payload keeps its address as the
    version's fingerprint, and a lazily restored payload is copied under
    the address it was saved with."""
    chunk = entry.fingerprint
    if chunk is not None and store.dedupe(chunk):
        return chunk
    chunk = store.put_payload(entry.obj.payload)
    if not isinstance(entry.obj.payload, LazyPayload):
        entry.fingerprint = chunk
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
        if isinstance(chains, LazyChainMap) and chains.is_pending(base):
            # Untouched since restore: the parked manifest rows are already
            # exactly what this save would produce — emit them verbatim,
            # copying chunk bytes only when saving into a different store.
            for row in chains.pending_rows(base):
                chunk = row.get("chunk")
                if chunk:
                    store.copy_chunk(chains.store, chunk)
                objects.append(row)
            continue
        for index, entry in enumerate(chains[base]):
            version = index + 1
            if entry.obj is None:
                objects.append({
                    "base": base,
                    "version": version,
                    "reclaimed": True,
                    "deleted_at": entry.deleted_at,
                })
                continue
            objects.append({
                "base": base,
                "version": version,
                "created_at": entry.obj.created_at,
                "creator": entry.obj.creator,
                "chunk": stored_chunk(entry, store),
                "size": entry.obj.size,
                "deleted_at": entry.deleted_at,
                "pinned": entry.pinned,
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


def _version_slot(db: DesignDatabase, name: str) -> _Entry:
    """The raw chain slot for a *versioned* name; reclaimed slots allowed.

    Raises :class:`PersistenceError` when the reference does not resolve —
    a saved alias pointing at a version the snapshot never stored means the
    snapshot is corrupt, and loading it silently would double-count storage
    and lose reuse lineage.
    """
    oname = parse_name(name)
    chain = db._versions.get(oname.base)
    if chain is None or oname.version is None \
            or not 1 <= oname.version <= len(chain):
        raise PersistenceError(
            f"alias reference {name!r} does not resolve to a stored version"
        )
    return chain[oname.version - 1]


def _restore_aliases(db: DesignDatabase, aliases: dict[str, str],
                     rebind: bool) -> None:
    """Re-establish alias lineage (and, for format 1, payload sharing).

    An alias entry shares its source's payload and accounts zero storage.
    In format 2 the sharing falls out of the chunk store's decoded-payload
    cache (alias and source reference the same digest), so only lineage
    needs restoring; format 1 embedded a *copy* of the payload, so the
    alias entry must be rebound to the source's decoded object.

    A source slot that exists but was reclaimed is legitimate (the source
    died after the alias was cut): the alias keeps its own payload copy.
    Anything else that fails to resolve raises.
    """
    import dataclasses

    for alias, source in aliases.items():
        alias_entry = _version_slot(db, alias)
        source_entry = _version_slot(db, source)
        db._note_alias(alias, source)
        if not rebind or alias_entry.obj is None:
            continue
        if source_entry.obj is None:
            # Source reclaimed after aliasing: the alias's embedded copy is
            # now the only one, so its accounted size stands.
            continue
        db._bytes_live -= alias_entry.obj.size
        alias_entry.obj = dataclasses.replace(
            alias_entry.obj, payload=source_entry.obj.payload, size=0
        )


def _load_v1(doc: dict[str, Any], db: DesignDatabase) -> DesignDatabase:
    db.clock.advance_to(doc.get("now", 0.0))
    for record in doc["objects"]:
        chain = db._versions.setdefault(record["base"], [])
        if record.get("reclaimed"):
            chain.append(_Entry(obj=None, deleted_at=record["deleted_at"]))  # type: ignore[arg-type]
            continue
        payload = decode_payload(record["payload"])
        obj = VersionedObject(
            name=ObjectName(record["base"], record["version"]),
            payload=payload,
            created_at=record["created_at"],
            creator=record.get("creator", ""),
            size=_estimate_size(payload),
        )
        chain.append(
            _Entry(
                obj=obj,
                deleted_at=record["deleted_at"],
                pinned=record.get("pinned", False),
            )
        )
        db._bytes_live += obj.size
    _restore_aliases(db, doc.get("aliases", {}), rebind=True)
    return db


def _entries_from_rows(base: str, rows: list[dict[str, Any]],
                       store: ChunkStore) -> list[_Entry]:
    """Build one base's chain slots from its manifest rows."""
    chain: list[_Entry] = []
    for row in rows:
        if row.get("reclaimed"):
            chain.append(_Entry(obj=None, deleted_at=row["deleted_at"]))  # type: ignore[arg-type]
            continue
        obj = VersionedObject(
            name=ObjectName(base, row["version"]),
            payload=LazyPayload(store, row["chunk"]),
            created_at=row["created_at"],
            creator=row.get("creator", ""),
            size=row["size"],
        )
        chain.append(_Entry(obj=obj, deleted_at=row["deleted_at"],
                            pinned=row.get("pinned", False)))
    return chain


class LazyChainMap(dict):
    """``{base: [slot, ...]}`` that builds chains from manifest rows lazily.

    This is what makes restore O(touched): a format-2 load parks each
    base's raw manifest rows here instead of constructing every entry
    object up front, and a chain is built only when something touches that
    base — a ``get``, a ``put`` extending the chain, a replayed delete.
    Whole-database scans (``save``, ``find``, ``reclaim``) materialize
    everything through ``values()``/``items()``; key-only iteration
    (``sorted(db._versions)``, ``len``) stays lazy.

    The journal replay path reads and mutates parked rows directly (see
    ``repro.activity.persistence``), so replaying a journal does not force
    chains to materialize either.
    """

    def __init__(self, store: ChunkStore):
        super().__init__()
        self.store = store
        self._pending: dict[str, list[dict[str, Any]]] = {}

    # ---------------------------------------------------- pending management

    def park(self, base: str, rows: list[dict[str, Any]]) -> None:
        self._pending[base] = rows

    def is_pending(self, base: str) -> bool:
        return base in self._pending

    def pending_rows(self, base: str) -> list[dict[str, Any]]:
        return self._pending[base]

    def _build(self, base: str) -> list[_Entry]:
        chain = _entries_from_rows(base, self._pending.pop(base), self.store)
        dict.__setitem__(self, base, chain)
        return chain

    def materialize_all(self) -> None:
        for base in list(self._pending):
            self._build(base)

    # --------------------------------------------------------- dict protocol

    def __missing__(self, base: str) -> list[_Entry]:
        if base in self._pending:
            return self._build(base)
        raise KeyError(base)

    def __contains__(self, base: object) -> bool:
        return dict.__contains__(self, base) or base in self._pending

    def __len__(self) -> int:
        return dict.__len__(self) + len(self._pending)

    def __iter__(self):
        yield from dict.__iter__(self)
        yield from self._pending

    def get(self, base, default=None):
        if dict.__contains__(self, base):
            return dict.__getitem__(self, base)
        if base in self._pending:
            return self._build(base)
        return default

    def setdefault(self, base, default=None):
        if dict.__contains__(self, base):
            return dict.__getitem__(self, base)
        if base in self._pending:
            return self._build(base)
        dict.__setitem__(self, base, default)
        return default

    def keys(self):
        return list(self)

    def values(self):
        self.materialize_all()
        return dict.values(self)

    def items(self):
        self.materialize_all()
        return dict.items(self)


def _load_v2(doc: dict[str, Any], db: DesignDatabase,
             store: ChunkStore) -> DesignDatabase:
    db.clock.advance_to(doc.get("now", 0.0))
    chains = LazyChainMap(store)
    for base, chain in db._versions.items():
        dict.__setitem__(chains, base, chain)
    db._versions = chains
    rows_by_base: dict[str, list[dict[str, Any]]] = {}
    for record in doc["objects"]:
        rows_by_base.setdefault(record["base"], []).append(record)
    for base, rows in rows_by_base.items():
        prior = (dict.__getitem__(chains, base)
                 if dict.__contains__(chains, base) else None)
        offset = len(prior) if prior is not None else 0
        for index, row in enumerate(rows):
            if row["version"] != offset + index + 1:
                raise PersistenceError(
                    f"manifest rows for {base!r} are not a contiguous "
                    f"version chain (got version {row['version']}, "
                    f"expected {offset + index + 1})"
                )
        if prior is not None:
            # Loading on top of an already-populated base (rare): extend
            # the built chain eagerly.
            prior.extend(_entries_from_rows(base, rows, store))
        else:
            chains.park(base, rows)
        db._bytes_live += sum(0 if row.get("reclaimed") else row["size"]
                              for row in rows)
    _restore_aliases(db, doc.get("aliases", {}), rebind=False)
    return db
