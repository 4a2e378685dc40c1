"""Versioned design object store with single-assignment update semantics.

Updates never happen in place: :meth:`DesignDatabase.put` always allocates the
next version number for the given base name (thesis §3.2).  Deletion is split
in two, mirroring Papyrus's reclamation story (§3.3.1): objects are first made
*invisible* (tombstoned) and only physically reclaimed later by the background
reclaimer, until which point they can be undeleted.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.clock import GLOBAL_CLOCK, VirtualClock
from repro.errors import ObjectNotFound, VersionConflict
from repro.obs import METRICS, TRACER
from repro.obs.audit import AuditJournal
from repro.octdb.chunkstore import LazyPayload, payload_digest
from repro.octdb.naming import VERSION_SEP, ObjectName, parse_name

_VERSIONS_CREATED = METRICS.counter("db.versions_created")
_VERSIONS_ALIASED = METRICS.counter("db.versions_aliased")
_VERSIONS_TOMBSTONED = METRICS.counter("db.versions_tombstoned")
_VERSIONS_RECLAIMED = METRICS.counter("db.versions_reclaimed")
_FINGERPRINTS = METRICS.counter("db.fingerprints")


def _estimate_size(payload: Any) -> int:
    """Best-effort storage footprint of a payload, in abstract bytes; any
    payload but an exact built-in type is asked for its ``size_estimate``."""
    kind = type(payload)
    if kind is str or kind is bytes:
        return len(payload)
    if kind is int or kind is float or kind is bool or payload is None:
        return 8
    if kind is not dict and kind is not list and kind is not tuple:
        probe = getattr(payload, "size_estimate", None)
        if callable(probe):
            return int(probe())
        if isinstance(payload, (bytes, bytearray, str)):
            return len(payload)
        if not isinstance(payload, (list, tuple, set, frozenset, dict)):
            return 8
    total = 8
    if isinstance(payload, dict):
        for key, value in payload.items():
            total += _estimate_size(key) + _estimate_size(value)
    else:
        for item in payload:
            total += _estimate_size(item)
    return total


@dataclass(slots=True, eq=False)
class VersionedObject:
    """One version of a design object: the database's only object for it.

    The first six fields never change (single assignment), except that
    ``get`` swaps a restored :class:`LazyPayload` for its decoded value.
    The database owns the last three: ``deleted_at`` (tombstone time; None
    while live), ``pinned`` (protected from reclamation) and
    ``fingerprint`` (the chunk address, set on first use or save).
    Reclaiming a version replaces its chain slot, not the object."""

    base: str
    version: int
    payload: Any              # CAD data structure (netlist, layout, report...)
    created_at: float         # virtual-clock timestamp
    creator: str = ""         # tool / step that produced this version
    size: int = 0
    deleted_at: float | None = None
    pinned: bool = False
    fingerprint: str | None = None

    @property
    def name(self) -> ObjectName:
        return ObjectName(self.base, self.version)

    def __str__(self) -> str:
        return f"{self.base}{VERSION_SEP}{self.version}"


@dataclass(slots=True)
class _Reclaimed:
    """A physically reclaimed version's chain slot: only its tombstone time
    remains (the manifest keeps it)."""

    deleted_at: float | None


class DesignDatabase:
    """The shared physical store underneath every thread workspace and SDS.

    Concurrency control *within* a tool execution is OCT's job in the thesis;
    here every operation is atomic by construction (single process), which
    preserves the same guarantee the LWT layer relies on.
    """

    def __init__(self, clock: VirtualClock | None = None):
        self.clock = clock or GLOBAL_CLOCK
        self._versions: dict[str, list[VersionedObject | _Reclaimed]] = {}
        self._bytes_live = 0
        #: Reuse back-links: alias version → source version.  Without them a
        #: memo-materialized version is a lineage orphan — nothing records
        #: which committed computation it reuses.
        self._alias_sources: dict[str, str] = {}
        #: The installation's change feed: each mutation of this database,
        #: of a thread or SDS on it, or of the registry reaches every live
        #: subscriber once, as ``subscriber(source, kind, details)``; held
        #: weakly (:meth:`subscribe`), as a subscriber holds the database.
        self.subscribers: list[weakref.WeakMethod] = []
        #: The installation's audit trail: every destructive history
        #: mutation on this database, or on a thread or SDS on it.
        self.audit = AuditJournal(self.clock)

    def subscribe(self, method: Callable[[Any, str, dict], None]) -> None:
        """Add a bound method to the change feed (weakly)."""
        self.subscribers = [ref for ref in self.subscribers if ref()]
        self.subscribers.append(weakref.WeakMethod(method))

    def publish(self, source: Any, kind: str, /, **details: Any) -> None:
        for ref in self.subscribers:
            if subscriber := ref():
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
        obj = VersionedObject(oname.base, next_version, payload,
                              self.clock.now, creator,
                              _estimate_size(payload))
        chain.append(obj)
        self._bytes_live += obj.size
        _VERSIONS_CREATED.inc()
        if TRACER.enabled:
            TRACER.event("db.version", cat="db", object=str(obj),
                         creator=creator, size=obj.size)
        self.publish(self, "put", name=str(obj), payload=payload,
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
        source = self._entry(existing)
        chain = self._versions.setdefault(oname.base, [])
        # Same payload object, same content: the alias inherits the source's
        # fingerprint (or gets its own on first use if it has none yet).
        obj = VersionedObject(oname.base, len(chain) + 1, source.payload,
                              self.clock.now, source.creator, 0,
                              fingerprint=source.fingerprint)
        chain.append(obj)
        self._note_alias(str(obj), str(source))
        _VERSIONS_ALIASED.inc()
        if TRACER.enabled:
            TRACER.event("db.alias", cat="db", object=str(obj),
                         source=str(source))
        self.publish(self, "alias", name=str(obj), source=str(source),
                     created_at=obj.created_at)
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

    def _entry(self, name: str | ObjectName) -> VersionedObject:
        oname = parse_name(name) if isinstance(name, str) else name
        chain = self._versions.get(oname.base)
        if not chain:
            raise ObjectNotFound(f"no object named {oname.base!r}")
        if oname.version is None:
            # Latest live version.
            for obj in reversed(chain):
                if obj.deleted_at is None and type(obj) is VersionedObject:
                    return obj
            raise ObjectNotFound(f"all versions of {oname.base!r} are deleted")
        if not 1 <= oname.version <= len(chain):
            raise ObjectNotFound(f"{oname.base!r} has no version {oname.version}")
        obj = chain[oname.version - 1]
        if type(obj) is _Reclaimed:
            raise ObjectNotFound(f"{oname} has been reclaimed")
        return obj

    def get(self, name: str | ObjectName) -> VersionedObject:
        """Fetch an object version (latest live version if unversioned).

        Tombstoned versions remain fetchable by explicit version until they
        are physically reclaimed — this is what makes "undelete" possible.

        A restored version carries its chunk's :class:`LazyPayload` handle;
        this is the choke point where it is swapped, in place, for the
        decoded payload, so every caller of ``get`` sees real payloads and a
        restore decodes only the objects actually touched.
        """
        obj = self._entry(name)
        payload = obj.payload
        if isinstance(payload, LazyPayload):
            obj.payload = payload.materialize()
            if obj.fingerprint is None:   # so a save need not re-encode it
                obj.fingerprint = payload.digest
        return obj

    def fingerprint(self, name: str | ObjectName) -> str:
        """Content fingerprint of one version: its payload's chunk address
        (:func:`~repro.octdb.chunkstore.payload_digest`), computed once, on
        first use or first save (versions are single-assignment), and kept
        on the version.  A lazily restored payload is not decoded: its
        fingerprint is its handle's digest.  Raises
        :class:`ObjectNotFound` for a reclaimed version.
        """
        obj = self._entry(name)
        if obj.fingerprint is None:
            obj.fingerprint = payload_digest(obj.payload)
            _FINGERPRINTS.inc()
        return obj.fingerprint

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
        return [obj for obj in self._versions.get(base, ())
                if type(obj) is VersionedObject]

    def __iter__(self) -> Iterator[VersionedObject]:
        for chain in self._versions.values():
            for obj in chain:
                if type(obj) is VersionedObject:
                    yield obj

    def __len__(self) -> int:
        return sum(1 for _ in self)

    # --------------------------------------------------------------- deletion

    def delete(self, name: str | ObjectName) -> None:
        """Tombstone a version (make it invisible); reclaimable later."""
        obj = self._entry(name)
        if obj.deleted_at is None:
            obj.deleted_at = self.clock.now
            _VERSIONS_TOMBSTONED.inc()
            if TRACER.enabled:
                TRACER.event("db.delete", cat="db", object=str(obj))
            self.publish(self, "delete", name=str(obj), at=obj.deleted_at)

    def undelete(self, name: str | ObjectName) -> None:
        """Resurrect a tombstoned version that has not been reclaimed yet."""
        obj = self._entry(name)
        if obj.deleted_at is not None:
            obj.deleted_at = None
            self.publish(self, "undelete", name=str(obj))

    def is_deleted(self, name: str | ObjectName) -> bool:
        return self._entry(name).deleted_at is not None

    def pin(self, name: str | ObjectName, pinned: bool = True) -> None:
        """Protect a version from physical reclamation (e.g. task outputs)."""
        obj = self._entry(name)
        if obj.pinned != pinned:
            obj.pinned = pinned
            self.publish(self, "pin", name=str(obj), pinned=pinned)

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
            for obj in chain:
                if max_versions is not None and \
                        len(reclaimed) >= max_versions:
                    break
                if obj.deleted_at is None or type(obj) is _Reclaimed:
                    continue
                if obj.pinned or now - obj.deleted_at < grace_seconds:
                    continue
                if archive is not None:
                    archive(obj)
                reclaimed.append(obj.name)
                self._reclaim_slot(obj)
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

    def _reclaim_slot(self, obj: VersionedObject) -> None:
        """Replace ``obj``'s chain slot with its reclaimed marker; the object
        itself is left as it is, for whoever still holds it."""
        self._versions[obj.base][obj.version - 1] = _Reclaimed(obj.deleted_at)
        self._bytes_live -= obj.size

    # ------------------------------------------------------------- statistics

    @property
    def bytes_live(self) -> int:
        """Total abstract bytes held by non-reclaimed versions."""
        return self._bytes_live

    def stats(self) -> dict[str, int]:
        live = deleted = reclaimed = 0
        for chain in self._versions.values():
            for obj in chain:
                if type(obj) is _Reclaimed:
                    reclaimed += 1
                elif obj.deleted_at is not None:
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
        for base in self._versions:
            name = ObjectName(base)
            if cell is not None and name.cell != cell:
                continue
            if view is not None and name.view != view:
                continue
            if facet is not None and name.facet != facet:
                continue
            matches.extend(obj for obj in self.versions(base)
                           if not live_only or obj.deleted_at is None)
        return sorted(matches, key=lambda o: (o.base, o.version))
