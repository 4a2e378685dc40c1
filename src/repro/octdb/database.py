"""Versioned design object store with single-assignment update semantics.

Updates never happen in place: :meth:`DesignDatabase.put` always allocates the
next version number for the given base name (thesis §3.2).  Deletion is split
in two, mirroring Papyrus's reclamation story (§3.3.1): objects are first made
*invisible* (tombstoned) and only physically reclaimed later by the background
reclaimer, until which point they can be undeleted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.clock import GLOBAL_CLOCK, VirtualClock
from repro.errors import ObjectNotFound, VersionConflict
from repro.obs import METRICS, TRACER
from repro.obs.audit import AuditJournal
from repro.octdb.chunkstore import LazyPayload, payload_digest
from repro.octdb.naming import ObjectName, parse_name

_VERSIONS_CREATED = METRICS.counter("db.versions_created")
_VERSIONS_ALIASED = METRICS.counter("db.versions_aliased")
_VERSIONS_TOMBSTONED = METRICS.counter("db.versions_tombstoned")
_VERSIONS_RECLAIMED = METRICS.counter("db.versions_reclaimed")
_FINGERPRINTS = METRICS.counter("db.fingerprints")


def _estimate_size(payload: Any) -> int:
    """Best-effort storage footprint of a payload, in abstract bytes."""
    probe = getattr(payload, "size_estimate", None)
    if callable(probe):
        return int(probe())
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 8 + sum(_estimate_size(item) for item in payload)
    if isinstance(payload, dict):
        return 8 + sum(
            _estimate_size(k) + _estimate_size(v) for k, v in payload.items()
        )
    return 8


@dataclass(frozen=True, slots=True)
class VersionedObject:
    """One immutable version of a design object."""

    name: ObjectName          # always carries an explicit version
    payload: Any              # CAD data structure (netlist, layout, report...)
    created_at: float         # virtual-clock timestamp
    creator: str = ""         # tool / step that produced this version
    size: int = 0

    @property
    def base(self) -> str:
        return self.name.base

    @property
    def version(self) -> int:
        assert self.name.version is not None
        return self.name.version

    def __str__(self) -> str:
        return str(self.name)


@dataclass(slots=True)
class _Entry:
    obj: VersionedObject
    deleted_at: float | None = None   # tombstone time; None = live
    pinned: bool = False              # protected from reclamation
    fingerprint: str | None = None    # chunk address; set on first use/save


class DesignDatabase:
    """The shared physical store underneath every thread workspace and SDS.

    Concurrency control *within* a tool execution is OCT's job in the thesis;
    here every operation is atomic by construction (single process), which
    preserves the same guarantee the LWT layer relies on.
    """

    def __init__(self, clock: VirtualClock | None = None):
        self.clock = clock or GLOBAL_CLOCK
        self._versions: dict[str, list[_Entry]] = {}
        self._bytes_live = 0
        #: Reuse back-links: alias version → source version.  Without them a
        #: memo-materialized version is a lineage orphan — nothing records
        #: which committed computation it reuses.
        self._alias_sources: dict[str, str] = {}
        #: The installation's change feed: each mutation of this database,
        #: of a thread or SDS on it, or of the registry reaches every
        #: subscriber once, as ``subscriber(source, kind, details)``.
        self.subscribers: list[Callable[[Any, str, dict[str, Any]], None]] = []
        #: The installation's audit trail: every destructive history
        #: mutation on this database, or on a thread or SDS on it.
        self.audit = AuditJournal(self.clock)

    def publish(self, source: Any, kind: str, /, **details: Any) -> None:
        for subscriber in self.subscribers:
            subscriber(source, kind, details)

    # ------------------------------------------------------------------ write

    def put(
        self,
        name: str | ObjectName,
        payload: Any,
        creator: str = "",
    ) -> VersionedObject:
        """Store ``payload`` as the next version of ``name``.

        An explicit version in ``name`` is rejected unless it is exactly the
        next version — callers never choose version numbers (§3.2: "version
        numbers are managed by the system").
        """
        oname = parse_name(name) if isinstance(name, str) else name
        chain = self._versions.setdefault(oname.base, [])
        next_version = len(chain) + 1
        if oname.version is not None and oname.version != next_version:
            raise VersionConflict(
                f"{oname.base}: next version is {next_version}, "
                f"cannot create version {oname.version}"
            )
        obj = VersionedObject(
            name=ObjectName(oname.base, next_version),
            payload=payload,
            created_at=self.clock.now,
            creator=creator,
            size=_estimate_size(payload),
        )
        chain.append(_Entry(obj=obj))
        self._bytes_live += obj.size
        _VERSIONS_CREATED.inc()
        if TRACER.enabled:
            TRACER.event("db.version", cat="db", object=str(obj.name),
                         creator=creator, size=obj.size)
        self.publish(self, "put", name=str(obj.name), payload=payload,
                     created_at=obj.created_at, creator=creator,
                     size=obj.size)
        return obj

    def alias(
        self,
        name: str | ObjectName,
        existing: str | ObjectName,
    ) -> VersionedObject:
        """Store the next version of ``name`` sharing an existing version's
        payload by reference (no copy, zero storage accounted).

        This is how the derivation cache materializes a reused output under
        a fresh name: the new version is a first-class object (deletable,
        pinnable, reclaimable on its own) whose payload *is* the committed
        one, so downstream fingerprints and byte-identity checks hold by
        construction.  The source may be tombstoned (e.g. an intermediate
        removed at task commit) but must not be physically reclaimed.
        """
        oname = parse_name(name) if isinstance(name, str) else name
        source_entry = self._entry(existing)
        source = source_entry.obj
        chain = self._versions.setdefault(oname.base, [])
        obj = VersionedObject(
            name=ObjectName(oname.base, len(chain) + 1),
            payload=source.payload,
            created_at=self.clock.now,
            creator=source.creator,
            size=0,
        )
        # Same payload object, same content: the alias inherits the source's
        # fingerprint (or gets its own on first use if it has none yet).
        chain.append(_Entry(obj=obj, fingerprint=source_entry.fingerprint))
        self._note_alias(str(obj.name), str(source.name))
        _VERSIONS_ALIASED.inc()
        if TRACER.enabled:
            TRACER.event("db.alias", cat="db", object=str(obj.name),
                         source=str(source.name))
        self.publish(self, "alias", name=str(obj.name),
                     source=str(source.name), created_at=obj.created_at)
        return obj

    def _note_alias(self, alias: str, source: str) -> None:
        if alias not in self._alias_sources:
            self._alias_sources[alias] = source

    # ---------------------------------------------------------- reuse lineage

    def alias_source(self, name: str | ObjectName) -> str | None:
        """The versioned name this version aliases, or None if original."""
        oname = parse_name(name) if isinstance(name, str) else name
        return self._alias_sources.get(str(oname))

    def aliases(self) -> dict[str, str]:
        """The full alias → source mapping (provenance join input)."""
        return dict(self._alias_sources)

    # ------------------------------------------------------------------- read

    def _entry(self, name: str | ObjectName) -> _Entry:
        oname = parse_name(name) if isinstance(name, str) else name
        chain = self._versions.get(oname.base)
        if not chain:
            raise ObjectNotFound(f"no object named {oname.base!r}")
        if oname.version is None:
            # Latest live version.
            for entry in reversed(chain):
                if entry.obj is not None and entry.deleted_at is None:
                    return entry
            raise ObjectNotFound(f"all versions of {oname.base!r} are deleted")
        if not 1 <= oname.version <= len(chain):
            raise ObjectNotFound(f"{oname.base!r} has no version {oname.version}")
        entry = chain[oname.version - 1]
        if entry.obj is None:
            raise ObjectNotFound(f"{oname} has been reclaimed")
        return entry

    def get(self, name: str | ObjectName) -> VersionedObject:
        """Fetch an object version (latest live version if unversioned).

        Tombstoned versions remain fetchable by explicit version until they
        are physically reclaimed — this is what makes "undelete" possible.

        A restored entry carries its chunk's :class:`LazyPayload` handle;
        this is the choke point where it is swapped for the decoded payload,
        so every caller of ``get`` sees real payloads and a restore decodes
        only the objects actually touched.
        """
        entry = self._entry(name)
        payload = entry.obj.payload
        if isinstance(payload, LazyPayload):
            entry.obj = dataclasses.replace(entry.obj,
                                            payload=payload.materialize())
            if entry.fingerprint is None:   # so a save need not re-encode it
                entry.fingerprint = payload.address()
        return entry.obj

    def fingerprint(self, name: str | ObjectName) -> str:
        """Content fingerprint of one version: its payload's chunk address
        (:func:`~repro.octdb.chunkstore.payload_digest`), computed once, on
        first use or first save (versions are single-assignment), and kept
        on the version.  A lazily restored payload is not decoded: its
        fingerprint is the sha1 of its stored chunk's bytes.  Raises
        :class:`ObjectNotFound` for a reclaimed version.
        """
        entry = self._entry(name)
        if entry.fingerprint is None:
            entry.fingerprint = payload_digest(entry.obj.payload)
            _FINGERPRINTS.inc()
        return entry.fingerprint

    def exists(self, name: str | ObjectName) -> bool:
        try:
            self._entry(name)
            return True
        except ObjectNotFound:
            return False

    def latest_version(self, base: str) -> int:
        """Highest allocated version number of ``base`` (0 if absent)."""
        return len(self._versions.get(base, ()))

    def versions(self, base: str) -> list[VersionedObject]:
        """All non-reclaimed versions of ``base``, oldest first."""
        return [
            e.obj for e in self._versions.get(base, ()) if e.obj is not None
        ]

    def __iter__(self) -> Iterator[VersionedObject]:
        for chain in self._versions.values():
            for entry in chain:
                if entry.obj is not None:
                    yield entry.obj

    def __len__(self) -> int:
        return sum(1 for _ in self)

    # --------------------------------------------------------------- deletion

    def delete(self, name: str | ObjectName) -> None:
        """Tombstone a version (make it invisible); reclaimable later."""
        entry = self._entry(name)
        if entry.deleted_at is None:
            entry.deleted_at = self.clock.now
            _VERSIONS_TOMBSTONED.inc()
            if TRACER.enabled:
                TRACER.event("db.delete", cat="db",
                             object=str(entry.obj.name))
            self.publish(self, "delete", name=str(entry.obj.name),
                         at=entry.deleted_at)

    def undelete(self, name: str | ObjectName) -> None:
        """Resurrect a tombstoned version that has not been reclaimed yet."""
        entry = self._entry(name)
        if entry.deleted_at is not None:
            entry.deleted_at = None
            self.publish(self, "undelete", name=str(entry.obj.name))

    def is_deleted(self, name: str | ObjectName) -> bool:
        return self._entry(name).deleted_at is not None

    def pin(self, name: str | ObjectName, pinned: bool = True) -> None:
        """Protect a version from physical reclamation (e.g. task outputs)."""
        entry = self._entry(name)
        if entry.pinned != pinned:
            entry.pinned = pinned
            self.publish(self, "pin", name=str(entry.obj.name), pinned=pinned)

    def reclaim(
        self,
        grace_seconds: float = 0.0,
        archive: Callable[[VersionedObject], None] | None = None,
        max_versions: int | None = None,
    ) -> list[ObjectName]:
        """Physically reclaim tombstoned versions older than ``grace_seconds``.

        This is the background garbage collector of §3.3.1: tombstoned objects
        that have not been undeleted within the grace period are removed (or
        handed to ``archive`` — the tertiary-storage hook of §5.4).
        Returns the names reclaimed.

        ``max_versions`` bounds one call so reclamation can run as an
        incremental background pass instead of a stop-the-world sweep;
        progress is monotonic because a reclaimed slot can never match again.
        """
        now = self.clock.now
        reclaimed: list[ObjectName] = []
        for chain in self._versions.values():
            for entry in chain:
                if max_versions is not None and \
                        len(reclaimed) >= max_versions:
                    break
                if entry.obj is None or entry.pinned:
                    continue
                if entry.deleted_at is None:
                    continue
                if now - entry.deleted_at < grace_seconds:
                    continue
                if archive is not None:
                    archive(entry.obj)
                reclaimed.append(entry.obj.name)
                self._bytes_live -= entry.obj.size
                entry.obj = None  # type: ignore[assignment]
            else:
                continue
            break
        if reclaimed:
            _VERSIONS_RECLAIMED.inc(len(reclaimed))
            if TRACER.enabled:
                TRACER.event("db.reclaim", cat="db", count=len(reclaimed))
            self.publish(self, "reclaim",
                         names=[str(name) for name in reclaimed])
        return reclaimed

    # ------------------------------------------------------------- statistics

    @property
    def bytes_live(self) -> int:
        """Total abstract bytes held by non-reclaimed versions."""
        return self._bytes_live

    def stats(self) -> dict[str, int]:
        live = deleted = reclaimed = 0
        for chain in self._versions.values():
            for entry in chain:
                if entry.obj is None:
                    reclaimed += 1
                elif entry.deleted_at is not None:
                    deleted += 1
                else:
                    live += 1
        return {
            "live": live,
            "tombstoned": deleted,
            "reclaimed": reclaimed,
            "bytes_live": self._bytes_live,
            "bases": len(self._versions),
        }

    # ------------------------------------------------------------ OCT queries

    def bases(self) -> list[str]:
        """All base names with at least one allocated version."""
        return sorted(self._versions)

    def find(
        self,
        cell: str | None = None,
        view: str | None = None,
        facet: str | None = None,
        live_only: bool = True,
    ) -> list[VersionedObject]:
        """OCT-style structural lookup over ``cell:view:facet`` names.

        Any component left as None matches everything; plain (non-colon)
        names expose only their ``cell`` component.
        """
        matches: list[VersionedObject] = []
        for base, chain in self._versions.items():
            name = ObjectName(base)
            if cell is not None and name.cell != cell:
                continue
            if view is not None and name.view != view:
                continue
            if facet is not None and name.facet != facet:
                continue
            for entry in chain:
                if entry.obj is None:
                    continue
                if live_only and entry.deleted_at is not None:
                    continue
                matches.append(entry.obj)
        return sorted(matches, key=lambda o: (o.base, o.version))
