"""Offline conversion of an older save directory to the one live layout.

:func:`upgrade_directory` (the shell's ``upgrade <old-dir> <new-dir>``)
rewrites a format-1 directory, or a format-2 one with loose chunk files or
structural chunk addresses, into format 2 with every chunk in one pack under
the sha1 of its bytes (docs/PERSISTENCE.md).  The source is only read.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any

from repro.activity.persistence import FORMAT_VERSION, _read_journal
from repro.errors import PersistenceError
from repro.octdb.chunkstore import (_HEADER, ChunkStore, chunk_digest,
                                    decode_payload)
from repro.octdb.database import (DesignDatabase, VersionedObject,
                                  _estimate_size, _Reclaimed)
from repro.octdb.persistence import _version_slot, read_json, save_database


def upgrade_directory(source: str | Path, target: str | Path) -> Path:
    """Write the live layout of the save directory ``source`` to ``target``,
    which must not exist: built in a temporary sibling, then renamed."""
    source, target = Path(source), Path(target)
    if target.exists():
        raise PersistenceError(f"upgrade target {target} already exists")
    history = read_json(source / "history.json")
    manifest = read_json(source / "database.json")
    if history.get("format") not in (1, FORMAT_VERSION):
        raise PersistenceError(f"{source} has an unknown format")
    temp = target.with_name(f".{target.name}.upgrade-{os.getpid()}")
    temp.mkdir(parents=True)
    try:
        store = ChunkStore(temp / "objects")
        if history["format"] == 1:
            history["format"] = FORMAT_VERSION
            save_database(_database_v1(manifest), temp / "database.json",
                          store)
        else:
            _readdress(source, manifest, store, temp)
            (temp / "database.json").write_text(
                json.dumps(manifest, sort_keys=True))
        (temp / "history.json").write_text(json.dumps(history, sort_keys=True))
        os.rename(temp, target)
    except BaseException:
        shutil.rmtree(temp, ignore_errors=True)
        raise
    return target


def _database_v1(doc: dict[str, Any]) -> DesignDatabase:
    """The database a format-1 ``database.json`` embeds: each payload sized
    by its estimate, and an alias of a live source sharing its payload and
    accounting 0."""
    db = DesignDatabase()
    db.clock.advance_to(doc.get("now", 0.0))
    for record in doc["objects"]:
        chain = db._versions.setdefault(record["base"], [])
        if record.get("reclaimed"):
            chain.append(_Reclaimed(record["deleted_at"]))
            continue
        payload = decode_payload(record["payload"])
        chain.append(VersionedObject(
            record["base"], len(chain) + 1, payload, record["created_at"],
            record.get("creator", ""), _estimate_size(payload),
            record["deleted_at"], record.get("pinned", False)))
    for alias, source in doc.get("aliases", {}).items():
        alias_obj = _version_slot(db, alias)
        source_obj = _version_slot(db, source)
        db._note_alias(alias, source)
        if _Reclaimed not in (type(alias_obj), type(source_obj)):
            alias_obj.payload, alias_obj.size = source_obj.payload, 0
    return db


def _readdress(source: Path, manifest: dict[str, Any], store: ChunkStore,
               temp: Path) -> None:
    """Copy every chunk the manifest and the journal (only a ``db.put`` has
    one) reference into ``store`` under the sha1 of its bytes, rewriting
    their ``chunk`` fields; the journal is written to ``temp``."""
    objects = source / "objects"
    pack = objects / "pack"
    data = pack.read_bytes() if pack.exists() else b""
    packed, offset = {}, 0        # an older pack's records, up to a torn tail
    while offset + _HEADER.size <= len(data):
        address, length = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
        if not length or offset > len(data):
            break
        packed[address.hex()] = data[offset - length:offset]
    numbered, _ = _read_journal(source / "journal.jsonl")
    entries = [entry for _, entry in numbered]
    moved: dict[str, str] = {}
    for row in manifest["objects"] + entries:
        old = row.get("chunk")
        if old is not None and old not in moved:
            loose = objects / old[:2] / old
            chunk = packed.get(old) or (loose.read_bytes()
                                        if loose.is_file() else b"")
            if old not in (chunk_digest(chunk), _stable_hash(chunk)):
                raise PersistenceError(
                    f"chunk {old} in {objects} is missing, or matches "
                    f"neither its sha1 nor its structural address")
            moved[old] = store.put_chunk(chunk)
        if old is not None:
            row["chunk"] = moved[old]
    if (source / "journal.jsonl").exists():
        (temp / "journal.jsonl").write_text("".join(
            json.dumps(entry, sort_keys=True) + "\n" for entry in entries))


def _stable_hash(chunk: bytes) -> str | None:
    """The structural address of a chunk: the sha1 walk of its decoded blob
    that named chunks before addresses were the sha1 of their bytes."""
    def walk(value: Any) -> bytes:
        if isinstance(value, dict):
            return b"M" + b"".join(walk(key) + walk(value[key])
                                   for key in sorted(value, key=repr))
        if isinstance(value, list):
            return b"L" + b"".join(map(walk, value))
        return repr(value).encode()
    try:
        return hashlib.sha1(walk(json.loads(chunk))).hexdigest()
    except ValueError:
        return None
