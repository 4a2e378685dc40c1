"""Content-addressed payload storage (the format-2 persistence backend).

Every payload is encoded once into a chunk file named by its content digest
(``objects/<digest[:2]>/<digest>``), so identical payloads — across versions,
across aliases, even across saves — occupy a single chunk on disk.  The
chunk address is the sha1 of the chunk's *bytes* (the canonical encoding of
the payload blob), not the payload fingerprint the derivation cache keys on
(``DesignDatabase.fingerprint``).  The two notions of identity differ on
purpose: the payload fingerprint hashes a list and a tuple alike, while the
codec stores a tuple as its ``repr``, so addressing chunks by payload
fingerprint would dedupe two different encodings into one chunk and decode
one of them wrongly.

Every read checks the bytes against their address.  Chunks written before
addresses were byte hashes were named by the structural walk of
:func:`repro.core.memo.fingerprint` over the decoded blob; they still load,
and are copied between stores under the address they already have.

Restore is lazy: manifests reference chunks by digest, and the database is
rebuilt with :class:`LazyPayload` handles that decode their chunk on first
access (``DesignDatabase.get`` materializes them).  Decoding is memoized per
digest, so N versions sharing one chunk decode it once and share the decoded
payload object — the in-memory mirror of the on-disk structural sharing.

Metrics: ``persist.chunks_written`` / ``persist.chunks_deduped`` (put side),
``persist.lazy_decodes`` / ``persist.chunk_corrupt`` (read side),
``persist.chunks_deleted`` (GC).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.core.memo import fingerprint
from repro.errors import PersistenceError
from repro.obs import METRICS
from repro.obs.metrics import bound_metric


def canonical_chunk_bytes(blob: Any) -> bytes:
    """The canonical serialized form of one encoded payload blob."""
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()


def chunk_digest(data: bytes) -> str:
    """The address of a chunk: the sha1 of its bytes.

    The bytes encode the payload blob, never the payload itself, so a list
    and a tuple (which the codec encodes differently) get different
    addresses, and equal addresses mean byte-identical chunks.
    """
    return hashlib.sha1(data).hexdigest()


def _is_legacy_chunk(data: bytes, digest: str) -> bool:
    """Whether ``data`` is a chunk addressed the way the first format-2
    writer did it: by the structural fingerprint of the decoded blob."""
    try:
        return fingerprint(json.loads(data)) == digest
    except ValueError:
        return False


class LazyPayload:
    """A payload handle that decodes its chunk on first access.

    Restored objects carry these instead of decoded payloads; the database
    swaps the handle for the real payload the first time the object is
    fetched.  Aliases share the handle (and therefore the decoded object),
    preserving payload identity across save/restore.
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

    @property
    def loaded(self) -> bool:
        return self._loaded

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

    _deduped = bound_metric(METRICS, "counter", "persist.chunks_deduped")
    _written = bound_metric(METRICS, "counter", "persist.chunks_written")

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: Digest → decoded payload object.  Bounds lazy decodes by the
        #: number of *unique* chunks, not the number of versions touched.
        self._decoded: dict[str, Any] = {}
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
            self._deduped.inc()
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

        An unmaterialized :class:`LazyPayload` is a pure digest reference:
        its chunk is already on disk, so no encode happens at all — this is
        what makes re-saving a lazily restored installation O(new data).
        Saving into another store copies the chunk's bytes across.
        """
        if isinstance(payload, LazyPayload) and not payload.loaded:
            return self.copy_chunk(payload.store, payload.digest)
        from repro.octdb.persistence import encode_payload

        return self.put_blob(encode_payload(unwrap_payload(payload)))

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
        self._written.inc()

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
            METRICS.counter("persist.chunk_corrupt").inc()
            raise PersistenceError(
                f"chunk {digest} in {self.root} does not match its address"
            )
        return data

    def load_payload(self, digest: str) -> Any:
        """Decode one chunk into a payload (memoized per digest)."""
        if digest in self._decoded:
            return self._decoded[digest]
        from repro.octdb.persistence import decode_payload

        payload = decode_payload(json.loads(self.read_chunk(digest)))
        self._decoded[digest] = payload
        METRICS.counter("persist.lazy_decodes").inc()
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
            deleted += 1
        if deleted:
            METRICS.counter("persist.chunks_deleted").inc(deleted)
        # Prune empty shard directories so the tree stays tidy; a later
        # write into a pruned shard recreates it (see ``_write``).
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
        return deleted
