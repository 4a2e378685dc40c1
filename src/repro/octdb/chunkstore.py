"""Content-addressed payload storage (the format-2 persistence backend).

Every payload is encoded once into a chunk file named by its content digest
(``objects/<digest[:2]>/<digest>``), so identical payloads — across versions,
across aliases, even across saves — occupy a single chunk on disk.  The
chunk address is the digest of the *encoded blob*, not the payload
fingerprint the derivation cache keys on (``DesignDatabase.fingerprint``).
The two notions of identity differ on purpose: the payload fingerprint
hashes a list and a tuple alike, while the codec stores a tuple as its
``repr``, so addressing chunks by payload fingerprint would dedupe two
different encodings into one chunk and decode one of them wrongly.

Restore is lazy: manifests reference chunks by digest, and the database is
rebuilt with :class:`LazyPayload` handles that decode their chunk on first
access (``DesignDatabase.get`` materializes them).  Decoding is memoized per
digest, so N versions sharing one chunk decode it once and share the decoded
payload object — the in-memory mirror of the on-disk structural sharing.

Metrics: ``persist.chunks_written`` / ``persist.chunks_deduped`` (put side),
``persist.lazy_decodes`` (restore side), ``persist.chunks_deleted`` (GC).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.core.memo import fingerprint
from repro.errors import PersistenceError
from repro.obs import METRICS


def canonical_chunk_bytes(blob: Any) -> bytes:
    """The canonical serialized form of one encoded payload blob."""
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode()


def chunk_digest(blob: Any) -> str:
    """Content digest of an encoded payload blob (the chunk address).

    The structural sha1 walk of :func:`repro.core.memo.fingerprint`, applied
    to the encoded blob rather than the payload: the blob is what the chunk
    holds, so equal digests mean byte-identical chunks.  A payload
    fingerprint would not do — it cannot tell a list from a tuple, which
    the codec encodes differently.
    """
    return fingerprint(blob)


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
        """
        if isinstance(payload, LazyPayload) and not payload.loaded:
            if self.has(payload.digest):
                METRICS.counter("persist.chunks_deduped").inc()
                return payload.digest
            # Saving into a different store (or a damaged one):
            # reference alone would dangle, so copy the raw chunk bytes
            # across.
            return self.put_blob(payload.store.load_blob(payload.digest))
        from repro.octdb.persistence import encode_payload

        blob = encode_payload(unwrap_payload(payload))
        return self.put_blob(blob)

    def put_blob(self, blob: Any) -> str:
        digest = chunk_digest(blob)
        if self.has(digest):
            METRICS.counter("persist.chunks_deduped").inc()
            return digest
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = canonical_chunk_bytes(blob)
        path.write_bytes(data)
        self._known.add(digest)
        self.bytes_written += len(data)
        METRICS.counter("persist.chunks_written").inc()
        return digest

    # ------------------------------------------------------------------- read

    def load_blob(self, digest: str) -> Any:
        path = self._path(digest)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            raise PersistenceError(
                f"chunk {digest} is referenced but missing from "
                f"{self.root}"
            ) from None

    def load_payload(self, digest: str) -> Any:
        """Decode one chunk into a payload (memoized per digest)."""
        if digest in self._decoded:
            return self._decoded[digest]
        from repro.octdb.persistence import decode_payload

        payload = decode_payload(self.load_blob(digest))
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
        # prune empty shard directories so the tree stays tidy
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
        return deleted
