"""Content-addressed payload storage, and the content identity of a version.

Every payload is encoded once, by the codec registered for its class, into a
chunk file named by its content digest (``objects/<digest[:2]>/<digest>``),
so identical payloads — across versions, across aliases, even across saves —
occupy a single chunk on disk.  The address is the sha1 of the chunk's
*bytes* (the canonical encoding of the payload blob), and it is also the
payload's content identity (:func:`payload_digest`): the fingerprint
``DesignDatabase.fingerprint`` returns and the derivation cache keys on.
Equal fingerprints mean byte-identical chunks.

The identity is only as strict as the JSON codec.  A top-level tuple or set
is stored as its ``repr``, so it never matches a list; it restores as a
:class:`ReprPayload`, that repr string, which keeps the chunk's identity
(a plain string of the same text would not); but inside a codec's
dict or a JSON-native payload a tuple encodes as a list and an int dict key
as its string, so ``{"a": (1, 2)}`` and ``{"a": [1, 2]}`` share one
identity, as do ``{1: "x"}`` and ``{"1": "x"}``.  A payload the codec
cannot write (a nested set, a cycle) raises ``TypeError``/``ValueError``.

Every read checks the bytes against their address.  Chunks written before
addresses were byte hashes were named by a structural walk of the decoded
blob (:func:`_stable_hash`); they still load, are copied between stores
under the address they have, and fingerprint as the sha1 of their bytes.

Restore decodes lazily: manifests reference chunks by digest, and every
restored version carries its chunk's :class:`LazyPayload` handle, which
decodes the chunk on first access (``DesignDatabase.get`` materializes it).
A store hands out one handle per chunk (:meth:`ChunkStore.handle`), so N
versions sharing one chunk share one handle, decode it once and share the
decoded payload object — the in-memory mirror of the on-disk structural
sharing.

Metrics: ``persist.chunks_written`` / ``persist.chunks_deduped`` (put side),
``persist.lazy_decodes`` / ``persist.chunk_corrupt`` (read side),
``persist.chunks_deleted`` (GC), ``persist.repr_fallback`` (encode side).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Callable, Iterator

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


def canonical_chunk_bytes(blob: Any) -> bytes:
    """The canonical serialized form of one encoded payload blob."""
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()


def chunk_digest(data: bytes) -> str:
    """The address of a chunk: the sha1 of its bytes."""
    return hashlib.sha1(data).hexdigest()


def payload_digest(payload: Any) -> str:
    """The content identity of ``payload``: the address of its chunk.

    A lazy handle's is read off its chunk without decoding it.  Hashing is
    not persisting: a ``repr`` fallback neither warns nor counts.
    """
    if isinstance(payload, LazyPayload):
        return payload.address()
    return chunk_digest(canonical_chunk_bytes(_blob(payload)))


def _stable_hash(value: Any, digest: "hashlib._Hash") -> None:
    """Feed the structural walk that named legacy chunks (JSON values)."""
    if isinstance(value, dict):
        digest.update(b"M")
        for key in sorted(value, key=repr):
            _stable_hash(key, digest)
            _stable_hash(value[key], digest)
    elif isinstance(value, list):
        digest.update(b"L")
        for item in value:
            _stable_hash(item, digest)
    else:
        digest.update(repr(value).encode())


def _is_legacy_chunk(data: bytes, digest: str) -> bool:
    """Whether ``data`` is a legacy chunk: named by its blob's walk."""
    walk = hashlib.sha1()
    try:
        _stable_hash(json.loads(data), walk)
    except ValueError:
        return False
    return walk.hexdigest() == digest


class LazyPayload:
    """A payload handle that decodes its chunk on first access.

    Restored objects carry these instead of decoded payloads; the database
    swaps the handle for the real payload the first time the object is
    fetched.  Every version of one chunk — aliases included — shares its
    store's handle (and therefore the decoded object), preserving payload
    identity across save/restore.
    """

    __slots__ = ("store", "digest", "_value", "_loaded")

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

    def address(self) -> str:
        """The sha1 of the chunk's checked bytes: ``digest`` unless legacy."""
        return chunk_digest(self.store.read_chunk(self.digest))

    def __repr__(self) -> str:
        state = "decoded" if self._loaded else "lazy"
        return f"<LazyPayload {self.digest[:10]} {state}>"


def unwrap_payload(payload: Any) -> Any:
    """Materialize ``payload`` if it is a lazy handle, else pass through."""
    if isinstance(payload, LazyPayload):
        return payload.materialize()
    return payload


class ChunkStore:
    """A content-addressed chunk directory (``objects/aa/aabbcc...``)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: Digest → decoded payload object.  Bounds lazy decodes by the
        #: number of *unique* chunks, not the number of versions touched.
        self._decoded: dict[str, Any] = {}
        #: Digest → the one lazy handle restored versions of it share.
        self._handles: dict[str, LazyPayload] = {}
        #: Digests known to exist on disk (avoids a stat per dedup hit).
        self._known: set[str] = set()
        self.bytes_written = 0

    # ------------------------------------------------------------------ paths

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    def has(self, digest: str) -> bool:
        if digest in self._known:
            return True
        if self._path(digest).exists():
            self._known.add(digest)
            return True
        return False

    def dedupe(self, digest: str) -> bool:
        """Whether ``digest`` is stored already; a hit counts as
        ``persist.chunks_deduped``."""
        if self.has(digest):
            _CHUNKS_DEDUPED.inc()
            return True
        return False

    def digests(self) -> Iterator[str]:
        """All chunk digests currently on disk."""
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for chunk in sorted(shard.iterdir()):
                yield chunk.name

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    # ------------------------------------------------------------------ write

    def put_payload(self, payload: Any) -> str:
        """Store one payload, returning its digest (no write when present).

        A :class:`LazyPayload` is a digest reference: its chunk is already
        on disk, so no encode happens at all — this is what makes re-saving
        a restored installation O(new data).  Saving into another store
        copies the chunk's bytes across, under the address they have.
        """
        if isinstance(payload, LazyPayload):
            return self.copy_chunk(payload.store, payload.digest)
        return self.put_blob(encode_payload(payload))

    def put_blob(self, blob: Any) -> str:
        data = canonical_chunk_bytes(blob)
        digest = chunk_digest(data)
        if not self.dedupe(digest):
            self._write(digest, data)
        return digest

    def copy_chunk(self, source: "ChunkStore", digest: str) -> str:
        """Make ``digest`` present here, copying its bytes from ``source``
        under the same address (whichever scheme that address uses)."""
        if not self.dedupe(digest):
            self._write(digest, source.read_chunk(digest))
        return digest

    def _write(self, digest: str, data: bytes) -> None:
        path = self._path(digest)
        try:
            path.write_bytes(data)
        except FileNotFoundError:
            # First chunk of its shard (or the shard was pruned by GC).
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        self._known.add(digest)
        self.bytes_written += len(data)
        _CHUNKS_WRITTEN.inc()

    # ------------------------------------------------------------------- read

    def read_chunk(self, digest: str) -> bytes:
        """The bytes of one chunk, checked against their address.

        Raises :class:`PersistenceError` for a missing chunk, and for one
        whose bytes match neither the sha1 address nor the legacy
        structural one (counted as ``persist.chunk_corrupt``).
        """
        try:
            data = self._path(digest).read_bytes()
        except FileNotFoundError:
            raise PersistenceError(
                f"chunk {digest} is referenced but missing from "
                f"{self.root}"
            ) from None
        if chunk_digest(data) != digest and not _is_legacy_chunk(data,
                                                                  digest):
            _CHUNK_CORRUPT.inc()
            raise PersistenceError(
                f"chunk {digest} in {self.root} does not match its address"
            )
        return data

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

        Safe only when ``live`` covers every digest reachable from the
        current manifests *and* the journal (the session's ``compact``
        computes that set after a checkpoint, when the journal is empty).
        """
        deleted = 0
        for digest in list(self.digests()):
            if digest in live:
                continue
            try:
                os.unlink(self._path(digest))
            except FileNotFoundError:  # pragma: no cover - racing GC
                continue
            self._known.discard(digest)
            self._decoded.pop(digest, None)
            self._handles.pop(digest, None)
            deleted += 1
        if deleted:
            _CHUNKS_DELETED.inc(deleted)
        # Prune empty shard directories so the tree stays tidy; a later
        # write into a pruned shard recreates it (see ``_write``).
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
        return deleted
