"""Persistent design history (§5.3's third data structure).

The thesis keeps a persistent copy of the control streams for inter-process
communication (the reclaimer runs as a separate process) and to survive
session restarts.  One layout (format 2) is read and written:
``database.json`` is a thin manifest over a content-addressed ``objects/``
chunk store, ``history.json`` holds the thread/SDS/audit snapshot, and
``journal.jsonl`` is a write-ahead journal of typed mutation entries.
:func:`load_system` restores *snapshot + journal replay*, decoding payloads
on first access; a :class:`PersistentSession` turns ``save`` into "append
the new chunks to the pack + fsync the journal", and its ``compact``
rewrites the pack without the chunks the checkpoint it just wrote does not
reference.  Journal lines and ``history.json`` are the text of
``json.dumps(entry, sort_keys=True)``, from the chunk store's one encoder
built at import.  An older layout is refused; :mod:`repro.activity.upgrade`
converts it once, offline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.control_stream import INITIAL_POINT, ControlStream, RecordNode
from repro.core.history import HistoryRecord, StepRecord
from repro.core.lwt import LWTSystem
from repro.core.thread import DesignThread
from repro.errors import PersistenceError, ThreadError
from repro.obs import METRICS, TRACER
from repro.octdb.chunkstore import _JSON, ChunkStore
from repro.octdb.database import VersionedObject, _Reclaimed
from repro.octdb.naming import parse_name
from repro.octdb.persistence import (
    _version_slot,
    load_database,
    read_format2,
    restore_version,
    save_database,
    stored_chunk,
)


FORMAT_VERSION = 2

_SAVE_SECONDS = METRICS.counter("persist.save_seconds")
_JOURNAL_ENTRIES = METRICS.counter("persist.journal_entries")
_JOURNAL_TORN_TAIL = METRICS.counter("persist.journal_torn_tail")


# ----------------------------------------------------------------- records


def record_to_dict(record: HistoryRecord) -> dict:
    return {
        "task": record.task,
        "inputs": list(record.inputs),
        "outputs": list(record.outputs),
        "steps": [
            {
                "name": s.name, "tool": s.tool, "options": list(s.options),
                "inputs": list(s.inputs), "outputs": list(s.outputs),
                "host": s.host, "started_at": s.started_at,
                "completed_at": s.completed_at, "status": s.status,
                "reused": s.reused,
            }
            for s in record.steps
        ],
        "recorded_at": record.recorded_at,
        "annotation": record.annotation,
        "instance": record.instance,
        "abstracted": record.abstracted,
    }


def record_from_dict(data: dict) -> HistoryRecord:
    record = HistoryRecord(
        task=data["task"],
        inputs=tuple(data["inputs"]),
        outputs=tuple(data["outputs"]),
        steps=tuple(
            StepRecord(
                name=s["name"], tool=s["tool"], options=tuple(s["options"]),
                inputs=tuple(s["inputs"]), outputs=tuple(s["outputs"]),
                host=s["host"], started_at=s["started_at"],
                completed_at=s["completed_at"], status=s["status"],
                reused=s.get("reused", False),
            )
            for s in data["steps"]
        ),
        recorded_at=data["recorded_at"],
        annotation=data.get("annotation", ""),
    )
    record.instance = data["instance"]
    record.abstracted = data.get("abstracted", False)
    return record


# ------------------------------------------------------------ control stream


def stream_to_dict(stream: ControlStream) -> dict:
    nodes = []
    for point in stream.points():
        node = stream.node(point)
        nodes.append({
            "number": node.number,
            "record": (record_to_dict(node.record)
                       if node.record is not None else None),
            "parents": list(node.parents),
            "children": list(node.children),
        })
    return {"nodes": nodes, "next": stream._next}


def _nodes_from_doc(data: dict) -> tuple[dict, int]:
    nodes: dict[int, RecordNode] = {}
    for nd in data["nodes"]:
        node = RecordNode(
            number=nd["number"],
            record=(record_from_dict(nd["record"])
                    if nd["record"] is not None else None),
            parents=list(nd["parents"]),
            children=list(nd["children"]),
        )
        nodes[node.number] = node
    if INITIAL_POINT not in nodes:
        raise ThreadError("persisted stream lacks the initial design point")
    return nodes, data["next"]


# ----------------------------------------------------------------- threads


def thread_to_dict(thread: DesignThread) -> dict:
    return {
        "name": thread.name,
        "owner": thread.owner,
        "stream": stream_to_dict(thread.stream),
        "current_cursor": thread.current_cursor,
        "extra_objects": sorted(thread.extra_objects),
        "point_access": {str(k): v for k, v in thread.point_access.items()},
        "imports": sorted(thread.imports),
    }


def thread_from_dict(data: dict, lwt: LWTSystem) -> DesignThread:
    thread = lwt.create_thread(data["name"], owner=data.get("owner", ""))
    thread.stream._nodes, thread.stream._next = _nodes_from_doc(data["stream"])
    # Defer warming the derivation cache: the restored history is exactly
    # the committed-step knowledge it feeds on, but fingerprinting every
    # historical input payload up front would make restore O(history) —
    # and force-decode every chunk.  The loader runs on the cache's first
    # use instead, so a session that never reworks never pays for it.
    db = lwt.db
    thread.memo.defer_populate(
        lambda cache: sum(cache.populate(r, db)
                          for r in cache.stream.records())
    )
    thread.current_cursor = data["current_cursor"]
    thread.extra_objects = set(data.get("extra_objects", ()))
    thread.point_access = {
        int(k): v for k, v in data.get("point_access", {}).items()
    }
    return thread


# ------------------------------------------------------------------ system


def _system_doc(lwt: LWTSystem) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "now": lwt.clock.now,
        "threads": [thread_to_dict(t) for t in lwt.threads.values()],
        "spaces": [
            {
                "name": sds.name,
                "objects": sorted(sds.objects()),
                "members": sorted(
                    t.name for t in sds._threads.values()
                ),
            }
            for sds in lwt.spaces.values()
        ],
        "audit": lwt.db.audit.to_dicts(),
    }
    return doc


def save_system(
    lwt: LWTSystem,
    directory: str | Path,
    store: ChunkStore | None = None,
) -> Path:
    """Persist a whole LWT installation (database + threads + SDS links).

    This is a full format-2 *checkpoint*: it writes the thin manifests plus
    any chunks not already in the ``objects/`` store and truncates the
    write-ahead journal.  For incremental saves use
    :class:`PersistentSession`.
    """
    directory = Path(directory)
    if store is None:  # NB: an empty ChunkStore is falsy (it has __len__)
        store = ChunkStore(directory / "objects")
    _write_checkpoint(lwt, directory, store)
    return directory


def _write_checkpoint(lwt: LWTSystem, directory: Path,
                      store: ChunkStore) -> set[str]:
    """Write manifest + system doc, drop the journal; returns the chunk
    addresses the manifest references."""
    store.refresh()  # its pack may have been collected since the last save
    directory.mkdir(parents=True, exist_ok=True)
    chunks = save_database(lwt.db, directory / "database.json", store=store)
    (directory / "history.json").write_text(_JSON(_system_doc(lwt)))
    # A checkpoint supersedes the journal: every journaled mutation is now
    # part of the snapshot, and replaying stale entries on top of it would
    # corrupt the restore.
    journal = directory / "journal.jsonl"
    if journal.exists():
        journal.unlink()
    return chunks


def load_system(directory: str | Path, lwt: LWTSystem | None = None,
                status: dict[str, bool] | None = None,
                store: ChunkStore | None = None) -> LWTSystem:
    """Restore an installation saved by :func:`save_system`.

    Notification flags are session state in the thesis and are not
    persisted; everything else (streams, cursors, import links, SDS contents
    and memberships) round-trips.  Payloads restore lazily (they decode on first
    access, from ``store``: by default a new store over the directory's
    ``objects/``) and the restore finishes with a write-ahead journal
    replay.  An older layout raises :class:`PersistenceError`.

    ``status``, when given, receives ``appendable``: whether the directory's
    journal ends on a line boundary, so that a journal save may append to it
    as it is.
    """
    directory = Path(directory)
    lwt = lwt if lwt is not None else LWTSystem()
    doc = read_format2(directory / "history.json")
    if store is None:
        store = ChunkStore(directory / "objects")
    load_database(directory / "database.json", lwt.db, store=store)
    lwt.clock.advance_to(doc.get("now", 0.0))
    lwt.db.audit.restore(doc.get("audit", ()))
    for thread_doc in doc["threads"]:
        thread_from_dict(thread_doc, lwt)
    for sds_doc in doc["spaces"]:
        sds = lwt.create_sds(sds_doc["name"])
        for text in sds_doc["objects"]:
            sds._index_add(parse_name(text))
        for member in sds_doc["members"]:
            if member in lwt.threads:
                sds.register(lwt.threads[member])
    for thread_doc in doc["threads"]:
        thread = lwt.threads[thread_doc["name"]]
        for import_name in thread_doc.get("imports", ()):
            if import_name in lwt.threads:
                thread.import_thread(lwt.threads[import_name])
    journal = directory / "journal.jsonl"
    entries, appendable = _read_journal(journal)
    replay_journal(lwt, store, entries, journal)
    if TRACER.enabled:
        TRACER.event("persist.load", cat="persist", threads=len(lwt.threads),
                     journal_entries=len(entries))
    if status is not None:
        status["appendable"] = appendable
    return lwt


# ------------------------------------------------------------ journal replay


def _replay_entry(lwt: LWTSystem, store: ChunkStore,
                  entry: dict[str, Any]) -> None:
    """Apply one journal entry.

    Database entries are applied at the storage level, idempotently (a
    version already present is skipped, a tombstone already set stands), so
    the overlap between journaled ``db.delete`` entries and the deletions a
    replayed erase-on-rework performs itself is harmless.  Thread entries go
    through the real mutators so node numbering, epochs, and scope caches
    come out exactly as live execution produced them.
    """
    op = entry["op"]
    db = lwt.db
    if op == "clock":
        lwt.clock.advance_to(entry["now"])
    elif op == "db.put":
        oname = parse_name(entry["name"])
        if db.latest_version(oname.base) < (oname.version or 0):
            restore_version(db, oname.base, oname.version, entry, store)
    elif op == "db.alias":
        oname = parse_name(entry["name"])
        chain = db._versions.setdefault(oname.base, [])
        if len(chain) >= (oname.version or 0):
            return
        source = _version_slot(db, entry["source"])
        if type(source) is _Reclaimed:
            raise PersistenceError(
                f"journal alias {entry['name']!r} references reclaimed "
                f"source {entry['source']!r}"
            )
        chain.append(VersionedObject(
            oname.base, oname.version, source.payload, entry["created_at"],
            source.creator, 0, fingerprint=source.fingerprint))
        db._note_alias(entry["name"], entry["source"])
    elif op == "db.delete":
        slot = _version_slot(db, entry["name"])
        if type(slot) is VersionedObject and slot.deleted_at is None:
            slot.deleted_at = entry["at"]
    elif op == "db.undelete":
        _version_slot(db, entry["name"]).deleted_at = None
    elif op == "db.pin":
        slot = _version_slot(db, entry["name"])
        if type(slot) is VersionedObject:
            slot.pinned = entry["pinned"]
    elif op == "db.reclaim":
        for name in entry["names"]:
            slot = _version_slot(db, name)
            if type(slot) is VersionedObject:
                db._reclaim_slot(slot)
    elif op == "thread":
        if entry["name"] not in lwt.threads:
            lwt.create_thread(entry["name"], owner=entry.get("owner", ""))
    elif op == "sds":
        if entry["name"] not in lwt.spaces:
            lwt.create_sds(entry["name"])
    elif op == "sds.register":
        if entry["thread"] in lwt.threads:
            lwt.sds(entry["sds"]).register(lwt.thread(entry["thread"]))
    elif op == "sds.contribute":
        lwt.clock.advance_to(entry["at"])
        lwt.sds(entry["sds"])._index_add(parse_name(entry["name"]))
    elif op == "sds.retrieve":
        # The persistent effect of a retrieve is the workspace check-in;
        # notification flags are session state and are not restored (same
        # contract as the snapshot path).
        lwt.clock.advance_to(entry["at"])
        lwt.thread(entry["thread"]).extra_objects.add(entry["name"])
    elif op == "commit":
        thread = lwt.thread(entry["thread"])
        lwt.clock.advance_to(entry["at"])
        record = record_from_dict(entry["record"])
        if entry["spliced"]:
            point = thread.stream.append_spliced(record, entry["at_point"])
        else:
            point = thread.stream.append(record, entry["at_point"])
        if point != entry["point"]:
            raise PersistenceError(
                f"journal replay diverged: commit of {record.task!r} landed "
                f"on point {point}, journal says {entry['point']}"
            )
        thread.current_cursor = entry["cursor_after"]
        thread.point_access[point] = entry["at"]
    elif op == "cursor":
        thread = lwt.thread(entry["thread"])
        lwt.clock.advance_to(entry["at"])
        thread.move_cursor(entry["point"], erase=entry["erase"])
    elif op == "erase":
        lwt.thread(entry["thread"]).stream.remove_points(set(entry["points"]))
    elif op == "splice_out":
        lwt.thread(entry["thread"]).stream.splice_out(entry["point"])
    elif op == "replace_region":
        thread = lwt.thread(entry["thread"])
        summary = record_from_dict(entry["summary"])
        point = thread.stream.replace_region(set(entry["points"]), summary)
        if point != entry["summary_point"]:
            raise PersistenceError(
                "journal replay diverged: replace_region summary landed on "
                f"point {point}, journal says {entry['summary_point']}"
            )
    elif op == "annotate":
        lwt.thread(entry["thread"]).stream.record(
            entry["point"]).annotation = entry["text"]
    elif op == "check_in":
        lwt.thread(entry["thread"]).extra_objects.add(entry["name"])
    elif op == "import":
        thread = lwt.thread(entry["thread"])
        if entry["other"] in lwt.threads and \
                entry["other"] not in thread.imports:
            thread.import_thread(lwt.threads[entry["other"]])
    elif op == "abstract":
        lwt.thread(entry["thread"]).stream.abstract(entry["point"])
    elif op == "audit":
        lwt.db.audit.append_dicts(entry["entries"])
    else:
        raise PersistenceError(f"unknown journal entry op {op!r}")


def _read_journal(
        path: str | Path) -> tuple[list[tuple[int, dict[str, Any]]], bool]:
    """The (line number, entry) pairs of a write-ahead journal, and whether
    it ends on a line boundary (true for a missing journal).

    Blank lines are skipped.  A final line without its newline that does
    not parse is the torn tail of a save that never finished: it is dropped
    and counted as ``persist.journal_torn_tail``.  Any other line that does
    not parse raises :class:`PersistenceError`.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], True
    lines = data.split(b"\n")
    tail = lines.pop()  # empty when the journal ends with a newline
    entries: list[tuple[int, dict[str, Any]]] = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                entries.append((number, json.loads(line)))
            except ValueError as exc:
                raise PersistenceError(
                    f"journal {path} line {number} is not valid JSON: {exc}"
                ) from None
    if tail.strip():
        try:
            entries.append((len(lines) + 1, json.loads(tail)))
        except ValueError:
            _JOURNAL_TORN_TAIL.inc()
    return entries, not tail


def replay_journal(lwt: LWTSystem, store: ChunkStore,
                   entries: list[tuple[int, dict[str, Any]]],
                   path: Path | str = "<memory>") -> None:
    """Apply write-ahead journal entries, (line number, entry) pairs, on top
    of a restored snapshot.

    An entry missing a key or holding a wrong type raises
    :class:`PersistenceError` naming ``path`` and its line.  The audit
    journal is suspended for the duration: replayed mutators would
    otherwise re-record entries the journal's own ``audit`` deltas restore
    verbatim.
    """
    with lwt.db.audit.suspended():
        for number, entry in entries:
            try:
                _replay_entry(lwt, store, entry)
            except (KeyError, TypeError, ValueError) as exc:
                raise PersistenceError(
                    f"journal {path} line {number} is not a valid entry: "
                    f"{exc!r}"
                ) from None


# ------------------------------------------------------- persistent session


#: Thread-level stream mutations a journal cannot replay entry-by-entry:
#: they add structure built outside any journaled operation (fork/cascade/
#: join grafts and junctions).  Seeing one marks the session dirty, and the
#: next save silently promotes to a full checkpoint.
_UNJOURNALABLE = frozenset({"append", "append_spliced", "junction", "graft"})


class PersistentSession:
    """Incremental persistence for one live installation.

    A session subscribes to the installation's change feed and buffers
    typed journal entries in memory.  :meth:`save` then costs only
    the *new* chunks plus one journal append + fsync; a full re-serialization
    happens only on the first save, after an unjournalable mutation (dirty
    flag), or on an explicit :meth:`compact`.
    """

    def __init__(self, lwt: LWTSystem, directory: str | Path,
                 snapshot_current: bool = False):
        self.lwt = lwt
        self.directory = Path(directory)
        self.store = ChunkStore(self.directory / "objects")
        self._buffer: list[tuple] = []
        self._dirty = False
        self._audit_seen = len(self.lwt.db.audit)
        # ``snapshot_current`` asserts the directory holds a format-2
        # snapshot plus journal equal to the in-memory state, ending on a
        # line boundary (``load_system`` reports it) — only then may the
        # first save be an incremental journal append.  A session attached
        # to a live installation cannot know what changed since the
        # snapshot was written, so its first save is always a full
        # checkpoint.
        self._has_snapshot = snapshot_current
        lwt.db.subscribe(self._observe)

    @classmethod
    def open(cls, directory: str | Path,
             lwt: LWTSystem | None = None) -> "PersistentSession":
        """Restore a saved installation and attach a session to it; the
        restored versions read their chunks from the store the session
        writes to."""
        status: dict[str, bool] = {}
        store = ChunkStore(Path(directory) / "objects")
        lwt = load_system(directory, lwt, status=status, store=store)
        session = cls(lwt, directory, snapshot_current=status["appendable"])
        session.store = store
        return session

    # ------------------------------------------------------------ change feed

    def close(self) -> None:
        """Unsubscribe (the installation keeps running unjournaled)."""
        db = self.lwt.db
        db.subscribers = [r for r in db.subscribers if r() != self._observe]

    def _observe(self, source: Any, kind: str, details: dict) -> None:
        """Buffer one change of this installation.  Threads and SDSs are
        journaled only while registered here (an unadopted fork is not)."""
        lwt = self.lwt
        if source is lwt.db:
            self._buffer.append(("db", kind, details))
        elif source is lwt:
            if kind in ("thread", "sds"):
                self._buffer.append(("lwt", kind, details))
            else:  # adopt, drop
                self._dirty = True
        elif isinstance(source, LWTSystem):
            return  # another registry sharing the database
        elif lwt.threads.get(source.name) is source:
            if source.composite_depth:
                return  # the composite operation publishes its own entry
            if kind in _UNJOURNALABLE:
                self._dirty = True
                return
            self._buffer.append(("thread", source.name, kind, details))
        elif lwt.spaces.get(source.name) is source:
            if kind == "unregister" or \
                    (kind == "retrieve" and details.get("propagate")):
                self._dirty = True
                return
            self._buffer.append(("sds", source.name, kind, details))

    # ----------------------------------------------------------------- state

    @property
    def dirty(self) -> bool:
        """True when the next save must be a full checkpoint."""
        return self._dirty

    @property
    def pending_entries(self) -> int:
        return len(self._buffer)

    # ------------------------------------------------------------- serialize

    def _serialize(self, buffered: tuple) -> dict[str, Any]:
        scope = buffered[0]
        if scope == "db":
            _, kind, d = buffered
            if kind == "put":
                return {"op": "db.put", "name": d["name"],
                        "chunk": self._put_chunk(d),
                        "size": d["size"], "created_at": d["created_at"],
                        "creator": d["creator"]}
            if kind == "alias":
                return {"op": "db.alias", "name": d["name"],
                        "source": d["source"],
                        "created_at": d["created_at"]}
            if kind == "delete":
                return {"op": "db.delete", "name": d["name"], "at": d["at"]}
            if kind == "undelete":
                return {"op": "db.undelete", "name": d["name"]}
            if kind == "pin":
                return {"op": "db.pin", "name": d["name"],
                        "pinned": d["pinned"]}
            if kind == "reclaim":
                return {"op": "db.reclaim", "names": list(d["names"])}
        elif scope == "thread":
            _, thread_name, kind, d = buffered
            if kind == "commit":
                return {"op": "commit", "thread": thread_name,
                        "record": record_to_dict(d["record"]),
                        "at_point": d["at_point"], "spliced": d["spliced"],
                        "point": d["point"],
                        "cursor_after": d["cursor_after"], "at": d["at"]}
            if kind == "replace_region":
                return {"op": "replace_region", "thread": thread_name,
                        "points": list(d["points"]),
                        "summary": record_to_dict(d["summary"]),
                        "summary_point": d["summary_point"]}
            if kind == "erase":
                return {"op": kind, "thread": thread_name,
                        "points": d["points"]}
            if kind in ("splice_out", "abstract"):
                return {"op": kind, "thread": thread_name,
                        "point": d["point"]}
            if kind in ("cursor", "annotate", "check_in", "import"):
                return {"op": kind, "thread": thread_name, **d}
        elif scope == "sds":
            _, sds_name, kind, d = buffered
            if kind == "register":
                return {"op": "sds.register", "sds": sds_name,
                        "thread": d["thread"]}
            if kind == "contribute":
                return {"op": "sds.contribute", "sds": sds_name,
                        "name": d["name"], "at": d["at"]}
            if kind == "retrieve":
                return {"op": "sds.retrieve", "sds": sds_name,
                        "thread": d["thread"], "name": d["name"],
                        "at": d["at"]}
        elif scope == "lwt":
            _, kind, d = buffered
            return {"op": kind, **d}
        raise PersistenceError(f"unserializable journal entry {buffered[:2]}")

    def _put_chunk(self, details: dict[str, Any]) -> str:
        """Store a journaled put's payload; its version keeps the address,
        so the next checkpoint does not encode it again."""
        oname = parse_name(details["name"])
        obj = self.lwt.db._versions[oname.base][oname.version - 1]
        if type(obj) is _Reclaimed:  # reclaimed before this save
            return self.store.put_payload(details["payload"])
        return stored_chunk(obj, self.store)

    # ------------------------------------------------------------------ save

    def save(self) -> Path:
        """Persist the current state: incremental when possible.

        The first save (or any save after an unjournalable mutation) is a
        full checkpoint; every other save writes only chunks for new
        payloads plus the buffered journal entries, fsynced.
        """
        start = time.perf_counter()
        bytes_before = self.store.bytes_written
        mode = ("checkpoint"
                if self._dirty or not self._has_snapshot else "journal")
        if mode == "checkpoint":
            self._checkpoint()
        else:
            self._flush_journal()
        elapsed = time.perf_counter() - start
        _SAVE_SECONDS.inc(elapsed)
        if TRACER.enabled:
            TRACER.event("persist.save", cat="persist", mode=mode,
                         seconds=round(elapsed, 6),
                         chunk_bytes=self.store.bytes_written - bytes_before)
        return self.directory

    def _checkpoint(self) -> set[str]:
        chunks = _write_checkpoint(self.lwt, self.directory, self.store)
        self._buffer.clear()
        self._dirty = False
        self._has_snapshot = True
        self._audit_seen = len(self.lwt.db.audit)
        return chunks

    def _flush_journal(self) -> None:
        self.store.refresh()
        lines = [_JSON({"op": "clock", "now": self.lwt.clock.now})]
        for buffered in self._buffer:
            lines.append(_JSON(self._serialize(buffered)))
        audit_delta = self.lwt.db.audit.dicts_from(self._audit_seen)
        if audit_delta:
            lines.append(_JSON({"op": "audit", "entries": audit_delta}))
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / "journal.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        _JOURNAL_ENTRIES.inc(len(lines))
        self._buffer.clear()
        self._audit_seen = len(self.lwt.db.audit)

    # --------------------------------------------------------------- compact

    def compact(self) -> int:
        """Checkpoint, then garbage-collect unreferenced chunks.

        After the checkpoint the journal is empty, so the chunks the
        manifest just written references alone define liveness; any other
        chunk is unreachable (reclaimed versions, superseded journal writes)
        and is deleted: the pack is rewritten without it.  Returns the
        number of chunks removed.
        """
        deleted = self.store.gc(self._checkpoint())
        if TRACER.enabled:
            TRACER.event("persist.gc", cat="persist", chunks_deleted=deleted)
        return deleted


def live_digests(directory: str | Path) -> set[str]:
    """Every chunk digest reachable from a directory's manifest + journal.

    A journal entry without its ``op``, or a ``db.put`` without its
    ``chunk``, raises :class:`PersistenceError` naming the journal and
    line, as :func:`load_system` does.
    """
    directory = Path(directory)
    live: set[str] = set()
    manifest = directory / "database.json"
    if manifest.exists():
        live = {row["chunk"]
                for row in read_format2(manifest).get("objects", [])
                if row.get("chunk")}
    journal = directory / "journal.jsonl"
    entries, _ = _read_journal(journal)
    for number, entry in entries:
        try:
            if entry["op"] == "db.put":
                live.add(entry["chunk"])
        except (KeyError, TypeError) as exc:
            raise PersistenceError(
                f"journal {journal} line {number} is not a valid entry: "
                f"{exc!r}") from None
    return live


def compact_store(directory: str | Path) -> int:
    """Standalone chunk GC for a saved session directory (no load needed)."""
    directory = Path(directory)
    store = ChunkStore(directory / "objects")
    deleted = store.gc(live_digests(directory))
    if TRACER.enabled:
        TRACER.event("persist.gc", cat="persist", chunks_deleted=deleted)
    return deleted
