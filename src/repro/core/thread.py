"""Design threads (§3.3.3).

A design thread embodies the *context* of one design entity: its workspace
(the objects involved in its task instantiations), its control stream, and
its frontier cursors.  The *current cursor* selects the visible thread state;
moving it is the **rework** mechanism — the thesis's replacement for
pre-planned snapshots.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref
from typing import TYPE_CHECKING

from repro.core.control_stream import (DESTRUCTIVE, INITIAL_POINT,
                                        ControlStream)
from repro.core.datascope import DataScope
from repro.core.history import HistoryRecord
from repro.core.memo import DerivationCache
from repro.errors import ObjectNotFound, ThreadError
from repro.obs import METRICS, TRACER
from repro.octdb.database import DesignDatabase
from repro.octdb.naming import ObjectName, parse_name

if TYPE_CHECKING:
    from repro.core.lwt import LWTSystem
    from repro.core.sds import Notification

_thread_ids = itertools.count(1)

_COMMITS = METRICS.counter("thread.commits")
_CURSOR_MOVES = METRICS.counter("thread.cursor_moves")
_BRANCHES_ERASED = METRICS.counter("thread.branches_erased")
_IMPORTS = METRICS.counter("thread.imports")


class DesignThread:
    """One open-ended design activity with its own context."""

    def __init__(
        self,
        name: str,
        db: DesignDatabase,
        owner: str = "",
    ):
        self.thread_id = next(_thread_ids)
        self.name = name
        self.owner = owner
        self.db = db
        self.clock = db.clock
        #: A weak reference (it owns its threads) to the installation whose
        #: registry holds this thread (None for an unadopted fork).
        self.lwt: "weakref.ref[LWTSystem] | None" = None
        self.stream = ControlStream()
        self.scope = DataScope(self.stream, db)
        #: Derivation cache (build avoidance): committed steps seed it, the
        #: task execution engine consults it at dispatch.  Fork/cascade/join
        #: chain caches along lineage; set to None to force re-execution.
        self.memo: DerivationCache | None = DerivationCache(self.stream)
        self.current_cursor = INITIAL_POINT
        #: Objects checked in from outside (paths, SDS retrievals): visible
        #: from every design point of this thread.
        self.extra_objects: set[str] = set()
        #: Read-only imported threads (§3.3.4.2), name → weak reference
        #: (two threads may import each other; the installation owns both).
        self.imports: dict[str, "weakref.ref[DesignThread]"] = {}
        #: Change notifications delivered by synchronization data spaces.
        self.notifications: list["Notification"] = []
        #: Last time each design point was visited or created (drives the
        #: dead-end-branch garbage collector, §5.4).
        self.point_access: dict[int, float] = {INITIAL_POINT: self.clock.now}
        #: Reason attached to the next audited destructive mutation (set via
        #: the :meth:`audit_reason` context manager by rework/reclamation).
        self._audit_reason = ""
        #: Depth of the composite operations (commit, erase-on-rework) in
        #: progress.  Each publishes one replayable event of its own, so a
        #: journal skips the stream mutations nested inside it.
        self.composite_depth = 0

    # ------------------------------------------------------------ change feed

    @property
    def stream(self) -> ControlStream:
        return self._stream

    @stream.setter
    def stream(self, stream: ControlStream) -> None:
        # The stream's hook reports to its owner, so cascade, join and
        # restore rewire it by assigning the stream they built.
        self._stream = stream
        stream.listener = weakref.WeakMethod(self._on_stream)

    def _on_stream(self, kind: str, details: dict) -> None:
        """React to a stream mutation here, at the choke point every caller
        (rework, reclamation, journal replay, shell) goes through: forget
        the access times of removed points, move a cursor left on one to
        the initial point, audit a destructive mutation, then publish it
        to the change feed."""
        if kind in ("erase", "replace_region", "splice_out"):
            gone = details["points"] if "points" in details \
                else (details["point"],)
            for point in gone:
                self.point_access.pop(point, None)
            if self.current_cursor not in self._stream:
                self.current_cursor = INITIAL_POINT
        audited = DESTRUCTIVE.get(kind)
        if audited is not None:
            self.db.audit.record(kind, thread=self.name, actor=self.owner,
                                 reason=self._audit_reason, at=self.clock.now,
                                 **{key: details[key] for key in audited})
        self.db.publish(self, kind, **details)

    @contextlib.contextmanager
    def _composite(self):
        self.composite_depth += 1
        try:
            yield
        finally:
            self.composite_depth -= 1

    @contextlib.contextmanager
    def audit_reason(self, reason: str):
        """Attribute a reason to destructive mutations inside the block."""
        previous = self._audit_reason
        self._audit_reason = reason
        try:
            yield
        finally:
            self._audit_reason = previous

    def __repr__(self) -> str:
        return (f"<DesignThread {self.thread_id} {self.name!r} "
                f"cursor={self.current_cursor}>")

    # -------------------------------------------------------------- recording

    def commit_record(
        self,
        record: HistoryRecord,
        invocation_cursor: int | None = None,
        follow_path: bool = False,
    ) -> int:
        """Attach a committed task's history record (the task manager's
        hand-off, §4.3.5) and auto-advance the cursor when appropriate.

        ``invocation_cursor`` is where the record attaches (default: the
        current cursor — after a rework this deliberately starts a new
        branch).  ``follow_path=True`` selects the §5.3 splice rule instead:
        the activity manager uses it with the tracked path tip of an
        in-flight invocation, so a record completing after an intervening
        rework is inserted *before* the branches that grew below its path.
        """
        if invocation_cursor is None:
            invocation_cursor = self.current_cursor
        record.recorded_at = self.clock.now
        with self._composite():
            if follow_path:
                point = self.stream.append_spliced(record, invocation_cursor)
            else:
                point = self.stream.append(record, invocation_cursor)
        # The cursor follows its own path's growth (§3.3.3) but never jumps
        # to work committed on another branch.
        if self.current_cursor in self.stream.node(point).parents:
            self.current_cursor = point
        self.point_access[point] = self.clock.now
        self.db.publish(self, "commit", record=record,
                        at_point=invocation_cursor, spliced=follow_path,
                        point=point, cursor_after=self.current_cursor,
                        at=record.recorded_at)
        _COMMITS.inc()
        if TRACER.enabled:
            TRACER.event("thread.commit", cat="thread", thread=self.name,
                         point=point, task=record.task,
                         spliced=follow_path,
                         outputs=list(record.outputs))
        return point

    # ----------------------------------------------------------------- rework

    def move_cursor(self, point: int, erase: bool = False) -> None:
        """Rework: reposition the current cursor on an existing design point.

        With ``erase``, the branch between the target point and the old
        cursor (and everything below it) is removed and its objects deleted
        — Fig 3.6's erase-on-rework variant.
        """
        if point not in self.stream:
            raise ThreadError(f"no design point {point} in thread {self.name!r}")
        old_cursor = self.current_cursor
        erasing = erase and old_cursor != point
        # Validate the erase precondition BEFORE touching any state: a
        # failed erase must leave the cursor (and access times, metrics,
        # trace) exactly where they were.
        if erasing and not self.stream.is_ancestor(point, old_cursor):
            raise ThreadError(
                "erase-on-rework requires the target point to be an ancestor "
                f"of the current cursor ({point} is not above {old_cursor})"
            )
        self.current_cursor = point
        self.point_access[point] = self.clock.now
        _CURSOR_MOVES.inc()
        if TRACER.enabled:
            TRACER.event("thread.cursor_move", cat="thread",
                         thread=self.name, src=old_cursor, dst=point,
                         erase=erase)
        if not erasing:
            self.db.publish(self, "cursor", point=point, erase=False,
                            at=self.clock.now)
            return
        on_path = set(self.stream.ancestors(old_cursor))
        doomed: set[int] = set()
        for child in self.stream.node(point).children:
            if child in on_path:
                doomed.add(child)
                doomed.update(self.stream.descendants(child))
        with self.audit_reason(self._audit_reason or "erase-on-rework"), \
                self._composite():
            removed = self.stream.remove_points(doomed)
        _BRANCHES_ERASED.inc()
        if TRACER.enabled:
            TRACER.event("thread.erase", cat="thread", thread=self.name,
                         points=len(removed))
        self.retire([name for record in removed for name in record.created])
        self.db.publish(self, "cursor", point=point, erase=True,
                        at=self.clock.now)

    # ------------------------------------------------------------- retirement

    def held(self, excluding: set[int] | frozenset[int] = frozenset()
             ) -> set[str]:
        """Versions still needed: touched by a record of this stream outside
        the points ``excluding``, held in the workspace of another thread of
        the installation (a fork inherits its source's versions), or in one
        of its synchronization data spaces (any member may retrieve it)."""
        names: set[str] = set()
        for point in self.stream.points():
            record = self.stream.node(point).record
            if record is not None and point not in excluding:
                names.update(record.touched)
        if self.lwt is not None and (lwt := self.lwt()) is not None:
            for other in lwt.threads.values():
                if other is not self:
                    names |= other.workspace()
            for space in lwt.spaces.values():
                names |= space.objects()
        return names

    def retire(self, names: list[str] | tuple[str, ...]) -> list[str]:
        """The one retirement rule for versions whose history is removed
        (erase-on-rework and every §5.4 reclamation pass): unpin and
        tombstone each live version of ``names`` that :meth:`held` does
        not name, so ``db.reclaim`` frees it.  Returns the names retired."""
        live = [name for name in dict.fromkeys(names)
                if self.db.exists(name) and not self.db.is_deleted(name)]
        if not live:
            return []
        keep = self.held()
        retired = [name for name in live if name not in keep]
        for name in retired:
            self.db.pin(name, False)
            self.db.delete(name)
        return retired

    # ------------------------------------------------------------- visibility

    def data_scope(self) -> frozenset[str]:
        """The thread state of the current cursor plus checked-in objects."""
        return self.scope.thread_state(self.current_cursor) | frozenset(
            self.extra_objects
        )

    def workspace(self) -> frozenset[str]:
        """The thread workspace: union of all frontier thread states (§3.3.3)."""
        names: set[str] = set(self.extra_objects)
        for point in self.stream.frontier():
            names |= self.scope.thread_state(point)
        return frozenset(names)

    def resolve(self, name: str | ObjectName) -> ObjectName:
        """Resolve an object name in the current data scope (§5.2).

        Unversioned names get the most recent version visible at the cursor
        or checked in; explicit versions must be one or the other.
        """
        return self.scope.resolve(self.current_cursor, name,
                                  self.extra_objects)

    def is_visible(self, name: str | ObjectName) -> bool:
        try:
            self.resolve(name)
            return True
        except ObjectNotFound:
            return False

    def check_in(self, name: str | ObjectName) -> ObjectName:
        """Make an external object visible in this thread (implicit check-in
        of path-format names, §5.2)."""
        oname = parse_name(name) if isinstance(name, str) else name
        obj = self.db.get(oname)  # must exist
        self.extra_objects.add(str(obj))
        self.db.publish(self, "check_in", name=str(obj))
        return obj.name

    # ------------------------------------------------------------ annotations

    def annotate(self, point: int, text: str) -> None:
        """Attach an annotation string to a design point's record (§5.2)."""
        self.stream.record(point).annotation = text
        self.db.publish(self, "annotate", point=point, text=text)

    def find_annotation(self, text: str) -> int | None:
        return self.stream.find_by_annotation(text)

    def find_time(self, when: float) -> int | None:
        return self.stream.find_by_time(when)

    # ----------------------------------------------------------------- import

    def import_thread(self, other: "DesignThread") -> None:
        """Monitor another designer's thread read-only (§3.3.4.2).

        The import is a continuous reflection, not a snapshot: the stored
        reference is live.  Nothing in this thread may write through it.
        """
        if other is self:
            raise ThreadError("a thread cannot import itself")
        self.imports[other.name] = weakref.ref(other)
        self.db.publish(self, "import", other=other.name)
        _IMPORTS.inc()
        if TRACER.enabled:
            TRACER.event("thread.import", cat="thread", thread=self.name,
                         imported=other.name)

    def imported_workspace(self, name: str) -> frozenset[str]:
        """Peek at an imported thread's current workspace."""
        ref = self.imports.get(name)
        if ref is None or (other := ref()) is None:
            raise ThreadError(f"no imported thread named {name!r}")
        return other.workspace()
