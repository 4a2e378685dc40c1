"""Content-addressed payload storage, and the content identity of a version.

Every payload is encoded once, by the codec registered for its class, into a
chunk addressed by the sha1 of its bytes (the canonical encoding of the
payload blob), so identical payloads — across versions, aliases and saves —
occupy one chunk on disk.  The address is also the payload's content
identity (:func:`payload_digest`): the fingerprint
``DesignDatabase.fingerprint`` returns and the derivation cache keys on.
Equal fingerprints mean byte-identical chunks, but the identity is only as
strict as the JSON codec: a top-level tuple or set is stored as its ``repr``
and restores as a :class:`ReprPayload` (that repr string, keeping the
chunk's identity), while inside a dict or list a tuple encodes as a list and
an int dict key as its string.  A payload the codec cannot write (a nested
set, a cycle) raises ``TypeError``/``ValueError``.  The canonical text is
``json.dumps(blob, sort_keys=True, separators=(",", ":"))``, written by one
C encoder built at import (:func:`sorted_json_encoder`), not one per chunk;
its sibling ``_JSON`` (``json.dumps(obj, sort_keys=True)``) writes the
manifest, ``history.json`` and the journal.

A store appends every new chunk to its pack (``objects/pack``) as one
record: the address as 20 binary bytes, the length of the bytes as a 4-byte
big-endian integer, then the bytes.  On first use a store indexes the pack
(digest → offset and length) by one scan that reads the record headers and
only the final record's bytes.  A final record that is cut short or
zero-filled is the torn tail of a save that never finished: it is left out
of the index and truncated away before the next append.  A complete final
record whose bytes do not match its address is damaged, or under an older
address scheme: it is indexed (reads report it as corrupt), and the store
refuses to append to or collect that pack, so its bytes are never lost.
``gc`` rewrites the pack without its dead records and renames the copy over
it; a store that finds its pack replaced (a new inode) re-indexes it before
reading or appending, and each save re-checks it once
(:meth:`ChunkStore.refresh`) before deduping.  Every read checks the bytes
against their address.  The pack is the only layout
served: the first index refuses a directory of loose chunk files
(``objects/<digest[:2]>/<digest>``), which older saves wrote, and
:mod:`repro.activity.upgrade` converts such a directory once, offline.

Restore decodes lazily: every restored version carries its chunk's
:class:`LazyPayload` handle, which decodes on first access
(``DesignDatabase.get`` materializes it).  A store hands out one handle per
chunk (:meth:`ChunkStore.handle`), so the versions sharing a chunk decode it
once and share the decoded object.

Metrics: ``persist.chunks_written`` / ``persist.chunks_deduped`` (put side),
``persist.lazy_decodes`` / ``persist.chunk_corrupt`` (read side),
``persist.chunks_deleted`` (GC), ``persist.repr_fallback`` (encode side).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import warnings
import weakref
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, BinaryIO, Callable

from repro.errors import PersistenceError
from repro.obs import METRICS

_ENCODERS: dict[type, tuple[str, Callable[[Any], dict]]] = {}
_DECODERS: dict[str, Callable[[dict], Any]] = {}

#: Payload type names already warned about falling back to ``repr``.
_REPR_WARNED: set[str] = set()

_CHUNKS_WRITTEN = METRICS.counter("persist.chunks_written")
_CHUNKS_DEDUPED = METRICS.counter("persist.chunks_deduped")
_CHUNKS_DELETED = METRICS.counter("persist.chunks_deleted")
_CHUNK_CORRUPT = METRICS.counter("persist.chunk_corrupt")
_LAZY_DECODES = METRICS.counter("persist.lazy_decodes")
_REPR_FALLBACK = METRICS.counter("persist.repr_fallback")

#: How an older layout is converted, for the errors that refuse one.
UPGRADE = "convert the save directory once with `upgrade <old-dir> <new-dir>`"

#: A pack record's header: the chunk's address as 20 binary bytes, then the
#: length of the chunk bytes that follow it.
_HEADER = struct.Struct(">20sI")


def register_payload_codec(
    cls: type,
    tag: str,
    encode: Callable[[Any], dict] | None = None,
    decode: Callable[[dict], Any] | None = None,
) -> None:
    """Register (de)serialization for a payload class.

    Defaults to the class's ``to_dict`` / ``from_dict`` methods.
    """
    _ENCODERS[cls] = (tag, encode or (lambda obj: obj.to_dict()))
    _DECODERS[tag] = decode or cls.from_dict  # type: ignore[attr-defined]


class ReprPayload(str):
    """What a ``repr`` chunk decodes to: the repr text, equal to that string.

    It encodes back to the ``repr`` blob it came from, so a restored
    version's payload fingerprints as the chunk it was read from.
    """

    __slots__ = ()


def _blob(payload: Any) -> Any:
    """The codec blob of ``payload``: what its chunk stores."""
    payload = unwrap_payload(payload)
    if isinstance(payload, ReprPayload):
        return {"__type__": "repr", "data": str(payload)}
    for cls, (tag, encode) in _ENCODERS.items():
        if isinstance(payload, cls):
            return {"__type__": tag, "data": encode(payload)}
    if isinstance(payload, (type(None), bool, int, float, str, list, dict)):
        return {"__type__": "json", "data": payload}
    return {"__type__": "repr", "data": repr(payload)}


def encode_payload(payload: Any) -> Any:
    """Encode a payload into a JSON-compatible value.

    A payload without a registered codec that is not JSON-native falls back
    to ``repr`` — which decodes to a *string* (a :class:`ReprPayload`), not
    the original object.  The fallback is counted (``persist.repr_fallback``)
    and warned about once per type so the loss is never silent; re-saving a
    decoded ``ReprPayload`` loses nothing more and does neither.
    """
    payload = unwrap_payload(payload)
    blob = _blob(payload)
    if blob["__type__"] != "repr" or isinstance(payload, ReprPayload):
        return blob
    _REPR_FALLBACK.inc()
    type_name = type(payload).__name__
    if type_name not in _REPR_WARNED:
        _REPR_WARNED.add(type_name)
        warnings.warn(
            f"payload of type {type_name!r} has no registered codec and is "
            f"being persisted as its repr(); it will decode to a string. "
            f"Register one with register_payload_codec({type_name}, ...).",
            RuntimeWarning,
            stacklevel=2,
        )
    return blob


def decode_payload(blob: Any) -> Any:
    tag = blob["__type__"]
    if tag == "json":
        return blob["data"]
    if tag == "repr":
        return ReprPayload(blob["data"])
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise KeyError(f"no payload codec registered for type tag {tag!r}")
    return decoder(blob["data"])


def sorted_json_encoder(
        separators: tuple[str, str] = (", ", ": ")) -> Callable[[Any], str]:
    """An encoder whose ``encode(obj)`` is the text of
    ``json.dumps(obj, sort_keys=True, separators=separators)``, made once.

    ``json.dumps`` with any argument builds a new encoder on every call,
    about as costly as encoding a journal line itself; this one is the C
    encoder, built once.  It keeps the circular-reference check (a cycle
    raises ``ValueError``).  A failed call leaves the containers it was
    inside marked, so the markers are cleared after one.  The markers are
    shared by every call: the encoder is not for use by several threads at
    once.
    """
    template = json.JSONEncoder(sort_keys=True, separators=separators)
    item_separator, key_separator = separators
    markers: dict[int, Any] = {}
    chunks = c_make_encoder(markers, template.default,
                            encode_basestring_ascii, None, key_separator,
                            item_separator, True, False, True)

    def encode(obj: Any) -> str:
        try:
            return "".join(chunks(obj, 0))
        except BaseException:
            markers.clear()
            raise

    return encode


#: ``json.dumps(obj, sort_keys=True)``: manifests, ``history.json`` and
#: journal lines.
_JSON = sorted_json_encoder()
#: The canonical chunk text: sorted keys, no spaces.
_CANONICAL_JSON = sorted_json_encoder((",", ":"))


def canonical_chunk_bytes(blob: Any) -> bytes:
    """The canonical serialized form of one encoded payload blob."""
    return _CANONICAL_JSON(blob).encode()


def chunk_digest(data: bytes) -> str:
    """The address of a chunk: the sha1 of its bytes."""
    return hashlib.sha1(data).hexdigest()


def payload_digest(payload: Any) -> str:
    """The content identity of ``payload``: the address of its chunk.

    A lazy handle's is its digest: nothing is read or decoded.  Hashing is
    not persisting: a ``repr`` fallback neither warns nor counts.
    """
    if isinstance(payload, LazyPayload):
        return payload.digest
    return chunk_digest(canonical_chunk_bytes(_blob(payload)))


class LazyPayload:
    """A payload handle that decodes its chunk on first access.

    Restored objects carry these instead of decoded payloads; the database
    swaps the handle for the real payload the first time the object is
    fetched.  Every version of one chunk — aliases included — shares its
    store's handle (and therefore the decoded object), preserving payload
    identity across save/restore.
    """

    __slots__ = ("store", "digest", "_value", "_loaded", "__weakref__")

    def __init__(self, store: "ChunkStore", digest: str):
        self.store = store
        self.digest = digest
        self._value: Any = None
        self._loaded = False

    def materialize(self) -> Any:
        if not self._loaded:
            self._value = self.store.load_payload(self.digest)
            self._loaded = True
        return self._value

    def __repr__(self) -> str:
        state = "decoded" if self._loaded else "lazy"
        return f"<LazyPayload {self.digest[:10]} {state}>"


def unwrap_payload(payload: Any) -> Any:
    """Materialize ``payload`` if it is a lazy handle, else pass through."""
    if isinstance(payload, LazyPayload):
        return payload.materialize()
    return payload


class ChunkStore:
    """A content-addressed chunk directory: one append-only pack
    (``objects/pack``) that takes every new chunk."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: Every new chunk is appended here, directly under the root.
        self._pack = self.root / "pack"
        #: Digest → decoded payload object.  Bounds lazy decodes by the
        #: number of *unique* chunks, not the number of versions touched.
        self._decoded: dict[str, Any] = {}
        #: Digest → the handle its versions share (weak: it holds the store).
        self._handles = weakref.WeakValueDictionary()
        #: Digest → (offset, length) of its bytes in the pack; built by one
        #: scan of the pack on first use (``None`` until then).
        self._index: dict[str, tuple[int, int]] | None = None
        #: The indexed pack's inode, and the offset just past its last
        #: complete record: where the next record goes.
        self._inode: int | None = None
        self._end = 0
        #: The address of a complete final record whose bytes do not match
        #: it: the pack then takes no append and no collection.
        self._damaged: str | None = None
        #: Bytes this store appended to the pack, record headers included.
        self.bytes_written = 0

    # ------------------------------------------------------------------ index

    def _chunks(self) -> dict[str, tuple[int, int]]:
        """The pack index, built on first use (see :meth:`refresh`)."""
        if self._index is None:
            self.refresh()
        return self._index  # type: ignore[return-value]

    def _sync(self, fh: BinaryIO) -> None:
        """Bring the index up to date with the open pack ``fh``: re-index a
        pack replaced underneath the store (by its inode) or cut below the
        indexed end, and index records appended past it.

        A record cut short, one whose header claims no bytes and a final
        record whose bytes hold a zero byte (a zero-filled tail: canonical
        JSON has none) are a torn tail, not indexed; ``_end`` stays before
        them, so the next append truncates them away.  A final record that
        is complete but does not match its address is indexed and noted as
        damaged.  Only the final record's bytes are read here: every read
        checks its own.
        """
        index = self._index
        assert index is not None, "index the pack with _chunks() first"
        stat = os.fstat(fh.fileno())
        if stat.st_ino != self._inode or stat.st_size < self._end:
            index.clear()
            self._inode, self._end, self._damaged = stat.st_ino, 0, None
        if stat.st_size == self._end:
            return
        offset = self._end
        final: tuple[str, int, int] | None = None
        fh.seek(offset)
        while offset + _HEADER.size <= stat.st_size:
            address, length = _HEADER.unpack(fh.read(_HEADER.size))
            start = offset + _HEADER.size
            if not length or start + length > stat.st_size:
                break
            if final is not None:
                index[final[0]] = final[1:]
            final = (address.hex(), start, length)
            fh.seek(length, os.SEEK_CUR)
            offset = start + length
        if final is not None:
            digest, start, length = final
            fh.seek(start)
            data = fh.read(length)
            self._damaged = None if chunk_digest(data) == digest else digest
            if self._damaged and b"\0" in data:   # a zero-filled, torn tail
                self._damaged, offset = None, start - _HEADER.size
            else:
                index[digest] = (start, length)
        self._end = offset

    def _check_tail(self) -> None:
        """Refuse to write a pack whose final record is damaged: truncating
        it would destroy the only copy of its bytes."""
        if self._damaged is not None:
            raise self._corrupt(self._damaged)

    def refresh(self) -> None:
        """Index the pack, or re-index it if it was replaced (a new inode),
        cut, grown or removed underneath the store since it was indexed.
        The first index raises :class:`PersistenceError` for a directory of
        loose chunk files."""
        if self._index is None:
            if self.root.is_dir() and any(
                    entry.is_dir() for entry in self.root.iterdir()):
                raise PersistenceError(
                    f"{self.root} holds loose chunk files, an older layout: "
                    f"{UPGRADE}")
            self._index = {}
        try:
            with open(self._pack, "rb") as fh:
                self._sync(fh)
        except FileNotFoundError:
            self._index.clear()
            self._inode, self._end, self._damaged = None, 0, None

    def has(self, digest: str) -> bool:
        """Whether ``digest`` is indexed in the pack (the pack is not looked
        at: see :meth:`refresh`)."""
        return digest in self._chunks()

    def dedupe(self, digest: str) -> bool:
        """Whether ``digest`` is stored already; a hit counts as
        ``persist.chunks_deduped``."""
        hit = self.has(digest)
        if hit:
            _CHUNKS_DEDUPED.inc()
        return hit

    def __len__(self) -> int:
        """The number of stored chunks."""
        return len(self._chunks())

    # ------------------------------------------------------------------ write

    def put_payload(self, payload: Any) -> str:
        """Store one payload, returning its digest (no write when present).

        A :class:`LazyPayload` is a digest reference: its chunk is already
        stored, so no encode happens at all — this is what makes re-saving
        a restored installation O(new data).  Saving into another store
        copies the chunk's bytes across.
        """
        if not isinstance(payload, LazyPayload):
            return self.put_chunk(
                canonical_chunk_bytes(encode_payload(payload)))
        digest = payload.digest
        if not self.dedupe(digest):
            self._append(digest, payload.store.read_chunk(digest))
        return digest

    def put_chunk(self, data: bytes) -> str:
        """Store one chunk's bytes, returning their address."""
        digest = chunk_digest(data)
        if not self.dedupe(digest):
            self._append(digest, data)
        return digest

    def _append(self, digest: str, data: bytes) -> None:
        """Append one record to the pack (creating it, and the store's
        directory, on the first write)."""
        index = self._chunks()
        try:
            fh = open(self._pack, "a+b")
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            fh = open(self._pack, "a+b")
        with fh:
            self._sync(fh)
            self._check_tail()
            if fh.seek(0, os.SEEK_END) > self._end:
                fh.truncate(self._end)  # a torn tail: never frame after it
            fh.write(_HEADER.pack(bytes.fromhex(digest), len(data)) + data)
        index[digest] = (self._end + _HEADER.size, len(data))
        self._end += _HEADER.size + len(data)
        self.bytes_written += _HEADER.size + len(data)
        _CHUNKS_WRITTEN.inc()

    # ------------------------------------------------------------------- read

    def read_chunk(self, digest: str) -> bytes:
        """The bytes of one chunk, checked against their address.

        Raises :class:`PersistenceError` for a missing chunk, and for one
        whose bytes do not hash to their address (see :meth:`_corrupt`).
        """
        index, data = self._chunks(), None
        try:
            with open(self._pack, "rb") as fh:
                self._sync(fh)
                if digest in index:
                    fh.seek(index[digest][0])
                    data = fh.read(index[digest][1])
        except FileNotFoundError:
            pass
        if data is None:
            raise PersistenceError(
                f"chunk {digest} is referenced but missing from {self.root}")
        if chunk_digest(data) != digest:
            raise self._corrupt(digest)
        return data

    def _corrupt(self, digest: str) -> PersistenceError:
        """The error for a chunk whose bytes do not match its address,
        counted as ``persist.chunk_corrupt``."""
        _CHUNK_CORRUPT.inc()
        return PersistenceError(
            f"chunk {digest} in {self.root} does not match its address: its "
            f"bytes are damaged, or it is under an older address scheme: "
            f"{UPGRADE}")

    def handle(self, digest: str) -> LazyPayload:
        """The lazy handle of one chunk: one per digest, shared by every
        restored version that references it."""
        handle = self._handles.get(digest)
        if handle is None:
            handle = self._handles[digest] = LazyPayload(self, digest)
        return handle

    def load_payload(self, digest: str) -> Any:
        """Decode one chunk into a payload (memoized per digest)."""
        if digest in self._decoded:
            return self._decoded[digest]
        payload = decode_payload(json.loads(self.read_chunk(digest)))
        self._decoded[digest] = payload
        _LAZY_DECODES.inc()
        return payload

    # --------------------------------------------------------------------- GC

    def gc(self, live: set[str]) -> int:
        """Delete chunks whose digest is not in ``live``; returns count.

        A dead chunk makes the pack be rewritten with only the live records
        (to ``pack.tmp``, then ``os.replace``d over the pack).

        Safe only when ``live`` covers every digest reachable from the
        current manifests *and* the journal (the session's ``compact``
        computes that set after a checkpoint, when the journal is empty).
        """
        index = self._chunks()
        try:
            fh = open(self._pack, "rb")
        except FileNotFoundError:
            return 0
        with fh:
            self._sync(fh)
            self._check_tail()
            dead = index.keys() - live
            if dead:
                self._rewrite(fh, live)
        for digest in dead:
            self._decoded.pop(digest, None)
            self._handles.pop(digest, None)
        if dead:
            _CHUNKS_DELETED.inc(len(dead))
        return len(dead)

    def _rewrite(self, fh: BinaryIO, live: set[str]) -> None:
        """Replace the open pack ``fh`` with a copy of its live records."""
        index: dict[str, tuple[int, int]] = {}
        temp = self._pack.with_name("pack.tmp")
        with open(temp, "wb") as out:
            for digest, (start, length) in self._chunks().items():
                if digest in live:
                    fh.seek(start - _HEADER.size)
                    index[digest] = (out.tell() + _HEADER.size, length)
                    out.write(fh.read(_HEADER.size + length))
            self._inode = os.fstat(out.fileno()).st_ino
            self._end = out.tell()
        os.replace(temp, self._pack)
        self._index = index
