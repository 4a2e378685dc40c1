"""Synchronization data spaces (§3.3.4.2).

An SDS is the only channel through which design threads share data.  Objects
are *moved* between thread workspaces and SDSs; objects in an SDS are never
updated, only new versions added.  There is no locking: when a new version of
an object lands in an SDS, a *notification* is sent to the threads that
previously retrieved the object (thread-addressed, not user-addressed), and
an optional *predicate set* filters notifications down to the situations the
retriever actually cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import SdsError
from repro.obs import METRICS, TRACER
from repro.octdb.database import DesignDatabase, VersionedObject
from repro.octdb.naming import ObjectName, parse_name

if TYPE_CHECKING:
    from repro.core.thread import DesignThread

#: A notification predicate: (new version, previous version or None) -> bool.
Predicate = Callable[[VersionedObject, VersionedObject | None], bool]

_CONTRIBUTES = METRICS.counter("sds.moves", direction="contribute")
_RETRIEVES = METRICS.counter("sds.moves", direction="retrieve")
_PREDICATE_EVALS = METRICS.counter("sds.predicate_evals")
_NOTIFICATIONS_SENT = METRICS.counter("sds.notifications_sent")
_NOTIFICATIONS_SUPPRESSED = METRICS.counter("sds.notifications_suppressed")
#: Fan-out bucket boundaries: notification counts, not durations.
_NOTIFY_FANOUT = METRICS.histogram(
    "sds.notify_fanout", buckets=(0, 1, 2, 4, 8, 16, 32, 64, float("inf")))


@dataclass(frozen=True)
class Notification:
    """A change notification delivered to a design thread."""

    thread: str          # receiving thread's name
    sds: str             # originating SDS
    object_name: str     # versioned name of the new version
    message: str
    at: float


@dataclass
class _Flag:
    """A notification flag left behind by an SDS→thread move."""

    thread: "DesignThread"
    predicates: tuple[Predicate, ...] = ()
    #: Active change propagation (§1.4): matching new versions are placed
    #: directly into the retriever's workspace, not just announced.
    propagate: bool = False


class SynchronizationDataSpace:
    """A shared, append-only data repository with change notification."""

    def __init__(
        self,
        name: str,
        db: DesignDatabase,
    ):
        self.name = name
        self.db = db
        self.clock = db.clock
        self._threads: dict[int, "DesignThread"] = {}
        self._objects: set[str] = set()            # versioned names
        #: Incremental base-name index: contribute() appends one entry
        #: instead of re-parsing the whole object set per version lookup.
        self._by_base: dict[str, list[ObjectName]] = {}
        self._flags: dict[str, list[_Flag]] = {}   # base name → flags
        self.notifications_sent = 0
        self.notifications_suppressed = 0

    # ----------------------------------------------------------- registration

    def register(self, thread: "DesignThread") -> None:
        """Admit a thread to this SDS (membership is dynamic)."""
        if thread.thread_id not in self._threads:
            self._threads[thread.thread_id] = thread
            self.db.publish(self, "register", thread=thread.name)

    def unregister(self, thread: "DesignThread") -> None:
        if self._threads.pop(thread.thread_id, None) is not None:
            self.db.publish(self, "unregister", thread=thread.name)
        for flags in self._flags.values():
            flags[:] = [f for f in flags if f.thread is not thread]

    def is_registered(self, thread: "DesignThread") -> bool:
        return thread.thread_id in self._threads

    def _require_registered(self, thread: "DesignThread", action: str) -> None:
        if not self.is_registered(thread):
            raise SdsError(
                f"thread {thread.name!r} is not registered with SDS "
                f"{self.name!r} and cannot {action}"
            )

    # ---------------------------------------------------------------- queries

    def objects(self) -> frozenset[str]:
        return frozenset(self._objects)

    def versions_of(self, base: str) -> list[ObjectName]:
        """Versions of a base name present in this SDS, oldest first."""
        return list(self._by_base.get(base, ()))

    def _index_add(self, oname: ObjectName) -> None:
        text = str(oname)
        if text in self._objects:
            return
        self._objects.add(text)
        bucket = self._by_base.setdefault(oname.base, [])
        bucket.append(oname)
        # Explicit None comparison: version 0 sorts as a real (lowest)
        # version, after any unversioned entry.
        bucket.sort(key=lambda n: (-1 if n.version is None else n.version))

    # ------------------------------------------------------------------ moves

    def contribute(self, thread: "DesignThread", name: str | ObjectName) -> ObjectName:
        """Thread workspace → SDS (the commit-like publication act).

        Only selective portions of a workspace are published, at times of the
        user's choosing — the thesis's replacement for a transaction commit.
        """
        self._require_registered(thread, "contribute")
        resolved = thread.resolve(name)
        previous = self.versions_of(resolved.base)
        self._index_add(resolved)
        self.db.publish(self, "contribute", thread=thread.name,
                        name=str(resolved), at=self.clock.now)
        _CONTRIBUTES.inc()
        self.db.audit.record("move", thread=thread.name, actor=thread.owner,
                             at=self.clock.now, direction="contribute",
                             sds=self.name, object=str(resolved))
        if TRACER.enabled:
            TRACER.event("sds.move", cat="sds", direction="contribute",
                         sds=self.name, thread=thread.name,
                         object=str(resolved))
        self._notify(resolved, previous[-1] if previous else None)
        return resolved

    def retrieve(
        self,
        thread: "DesignThread",
        name: str | ObjectName,
        notify: bool = True,
        predicates: tuple[Predicate, ...] = (),
        propagate: bool = False,
    ) -> ObjectName:
        """SDS → thread workspace.

        Leaves a notification flag behind (unless ``notify`` is False) so the
        thread hears about future versions; ``predicates`` narrow the
        notification-triggering conditions (§3.3.4.2).  ``propagate`` selects
        *active propagation* over passive notification (§1.4): matching new
        versions land in the thread's workspace automatically.
        """
        self._require_registered(thread, "retrieve")
        oname = parse_name(name) if isinstance(name, str) else name
        if oname.version is None:
            versions = self.versions_of(oname.base)
            if not versions:
                raise SdsError(f"SDS {self.name!r} holds no {oname.base!r}")
            oname = versions[-1]
        elif str(oname) not in self._objects:
            raise SdsError(f"SDS {self.name!r} holds no {oname}")
        thread.extra_objects.add(str(oname))
        if notify or propagate:
            self._flags.setdefault(oname.base, []).append(
                _Flag(thread=thread, predicates=tuple(predicates),
                      propagate=propagate)
            )
        # Propagation flags place future versions into workspaces outside
        # any journaled operation — a session must checkpoint, not replay.
        self.db.publish(self, "retrieve", thread=thread.name,
                        name=str(oname), at=self.clock.now,
                        propagate=propagate)
        _RETRIEVES.inc()
        self.db.audit.record("move", thread=thread.name, actor=thread.owner,
                             at=self.clock.now, direction="retrieve",
                             sds=self.name, object=str(oname))
        if TRACER.enabled:
            TRACER.event("sds.move", cat="sds", direction="retrieve",
                         sds=self.name, thread=thread.name,
                         object=str(oname), propagate=propagate)
        return oname

    # ----------------------------------------------------------- notification

    def _notify(self, new_name: ObjectName, prev_name: ObjectName | None) -> None:
        flags = self._flags.get(new_name.base, ())
        if not flags:
            _NOTIFY_FANOUT.observe(0)
            return
        new_obj = self.db.get(new_name)
        prev_obj = self.db.get(prev_name) if prev_name is not None else None
        delivered: set[int] = set()
        for flag in flags:
            if flag.thread.thread_id in delivered:
                continue
            matched = True
            for pred in flag.predicates:
                _PREDICATE_EVALS.inc()
                if not pred(new_obj, prev_obj):
                    matched = False
                    break
            if not matched:
                self.notifications_suppressed += 1
                _NOTIFICATIONS_SUPPRESSED.inc()
                continue
            if flag.propagate:
                flag.thread.extra_objects.add(str(new_name))
            flag.thread.notifications.append(Notification(
                thread=flag.thread.name,
                sds=self.name,
                object_name=str(new_name),
                message=(
                    f"new version {new_name} checked into SDS {self.name}"
                ),
                at=self.clock.now,
            ))
            delivered.add(flag.thread.thread_id)
            self.notifications_sent += 1
            _NOTIFICATIONS_SENT.inc()
            if TRACER.enabled:
                TRACER.event("sds.notify", cat="sds", sds=self.name,
                             thread=flag.thread.name,
                             object=str(new_name),
                             propagated=flag.propagate)
        _NOTIFY_FANOUT.observe(len(delivered))


# ---------------------------------------------------------------- predicates


def attr_improved(metric: Callable[[VersionedObject], float],
                  smaller_is_better: bool = True) -> Predicate:
    """Notify only when the new version improves a metric — the thesis's
    "only when the new version is faster" example."""

    def predicate(new: VersionedObject, prev: VersionedObject | None) -> bool:
        if prev is None:
            return True
        if smaller_is_better:
            return metric(new) < metric(prev)
        return metric(new) > metric(prev)

    return predicate


# ----------------------------------------------------------------- MOVE


def move(
    object_id: str,
    source,
    destination,
    notify: bool = True,
    predicates: tuple[Predicate, ...] = (),
    propagate: bool = False,
) -> ObjectName:
    """The thesis's MOVE operation (§3.3.4.2)::

        MOVE Object-ID, Source-space, Destination-space,
             Notification-flag, Predicate-set

    ``source``/``destination`` are a :class:`DesignThread` and an SDS in
    either order; direct thread→thread moves are rejected ("no direct data
    sharing among threads"), and SDS→SDS moves are not part of the model.
    """
    from repro.core.thread import DesignThread

    src_is_thread = isinstance(source, DesignThread)
    dst_is_thread = isinstance(destination, DesignThread)
    if src_is_thread and dst_is_thread:
        raise SdsError(
            "no direct data sharing among threads: move through an SDS "
            "(or use thread import for read-only monitoring)"
        )
    if src_is_thread and isinstance(destination, SynchronizationDataSpace):
        return destination.contribute(source, object_id)
    if dst_is_thread and isinstance(source, SynchronizationDataSpace):
        return source.retrieve(destination, object_id, notify=notify,
                               predicates=predicates, propagate=propagate)
    raise SdsError("move requires one thread and one SDS")
