"""The ActivityManager (§5.1-§5.2).

One activity manager per design thread.  Users (or scripted designers) invoke
tasks by name with user-format object names; the manager resolves names
against the current data scope, captures the invocation path, spawns a task
manager, and attaches the committed history record per the §5.3 insertion
rule.  Task filtering (§5.4) and display maintenance also live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.activity.viewport import GridPlacement, Viewport
# Kept importable here: the e2e benchmark traces grid_layout as bound here.
from repro.activity.viewport import grid_layout  # noqa: F401
from repro.core.history import HistoryRecord
from repro.core.thread import DesignThread
from repro.errors import ObjectNotFound, TaskAborted
from repro.octdb.naming import parse_name
from repro.taskmgr.manager import TaskManager


@dataclass
class PendingInvocation:
    """An invocation whose completion is deferred (models the thesis's
    concurrent task instantiations and the Fig 5.6 insertion scenario)."""

    task: str
    inputs: dict[str, str]
    outputs: dict[str, str]
    invocation_cursor: int
    path_tip: int
    epoch: int = 0       # which cursor-move generation this path belongs to
    completed: bool = False


class ActivityManager:
    """Drives one design thread."""

    def __init__(self, thread: DesignThread, taskmgr: TaskManager):
        self.thread = thread
        self.taskmgr = taskmgr
        #: Task names the activity manager does not maintain history for
        #: ("facility" tasks such as printing, §5.4).
        self.filters: set[str] = set()
        self._viewport = Viewport()
        self._viewport_epoch = thread.stream.scope_epoch
        #: Places each committed record's cell once, incrementally.
        self._placement = GridPlacement(thread.stream)
        #: In-flight invocation paths: maps a PendingInvocation to the tip of
        #: its logical path, advanced as its records commit.
        self._pending: list[PendingInvocation] = []
        self.records_discarded = 0
        #: Incremented on every explicit cursor move: invocations from the
        #: same cursor chain on one logical path only within an epoch; a
        #: rework starts a new path (the thesis's "path number").
        self._path_epoch = 0

    @property
    def viewport(self) -> Viewport:
        """The display model, without the points that left the stream.

        Every removal (erase, reclamation, journal replay) bumps the
        stream's ``scope_epoch``; the items and placement rows of vanished
        points are dropped lazily on the first read after it moves.
        """
        stream = self.thread.stream
        if stream.scope_epoch != self._viewport_epoch:
            self._viewport_epoch = stream.scope_epoch
            for point in [p for p in self._viewport._items
                          if p not in stream]:
                self._viewport.remove_item(point)
                self._placement.rows.pop(point, None)
        return self._viewport

    # ------------------------------------------------------------ invocation

    def _resolve_inputs(self, task: str, inputs: dict[str, str]) -> dict[str, str]:
        """Map user-format names (§5.2's three formats) to actual versions."""
        resolved: dict[str, str] = {}
        for formal, user_name in inputs.items():
            name = parse_name(user_name)
            if name.is_path:
                # Hierarchical path: implicit check-in from outside.
                resolved[formal] = str(self.thread.check_in(name))
                continue
            try:
                # One pass through the (epoch-cached) data scope instead of
                # the old is_visible() probe followed by a second resolve.
                resolved[formal] = str(self.thread.resolve(name))
            except ObjectNotFound:
                # Not in the workspace but present in the database: same
                # implicit check-in the path format gets (library cells).
                resolved[formal] = str(self.thread.check_in(name))
        return resolved

    def invoke(
        self,
        task: str,
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
        annotation: str = "",
    ) -> int | None:
        """Invoke a task synchronously; returns the new design point
        (or None when the task is filtered).  Raises TaskAborted on abort."""
        pending = self.begin(task, inputs, outputs)
        return self.complete(pending, annotation=annotation)

    def begin(
        self,
        task: str,
        inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None,
    ) -> PendingInvocation:
        """Capture the invocation context without running the task yet.

        The current cursor at *invocation* time anchors the record's logical
        path, however the cursor moves before completion (§5.3).
        """
        cursor = self.thread.current_cursor
        pending = PendingInvocation(
            task=task,
            inputs=self._resolve_inputs(task, inputs or {}),
            outputs=dict(outputs or {}),
            invocation_cursor=cursor,
            path_tip=cursor,
            epoch=self._path_epoch,
        )
        self._pending.append(pending)
        return pending

    def complete(self, pending: PendingInvocation,
                 annotation: str = "") -> int | None:
        """Run a previously begun invocation and commit its history."""
        if pending.completed:
            raise TaskAborted(pending.task, reason="invocation already completed")
        record = self.taskmgr.run_task(
            pending.task, inputs=pending.inputs, outputs=pending.outputs,
            memo=self.thread.memo,
        )
        pending.completed = True
        self._pending.remove(pending)
        if annotation:
            record.annotation = annotation
        return self.commit(record, pending)

    # ---------------------------------------------------------------- commit

    def commit(self, record: HistoryRecord,
               pending: PendingInvocation | None = None) -> int | None:
        """Attach a committed record (filtered tasks are discarded, §5.4)."""
        if record.task in self.filters:
            self.records_discarded += 1
            return None
        tip = pending.path_tip if pending is not None else None
        if tip is not None and tip != self.thread.current_cursor:
            # The cursor moved since invocation: insert on the captured
            # path, splicing before any branches a rework grew below it.
            point = self.thread.commit_record(
                record, invocation_cursor=tip, follow_path=True
            )
        else:
            point = self.thread.commit_record(record)
        # Invocations begun from the same cursor within the same epoch share
        # the logical path: their tip advances with this commit.
        if pending is not None:
            for other in self._pending:
                if other.epoch == pending.epoch and other.path_tip == tip:
                    other.path_tip = point
            pending.path_tip = point
        # The new record prefers its parent's row; a parent this manager
        # never placed (committed through the thread API) counts as row 0.
        parent = self.thread.stream.node(point).parents[0]
        placement = self._placement
        self.viewport.add_item(point, placement.place(
            point, placement.rows.get(parent, 0)))
        return point

    # ------------------------------------------------------------ navigation

    def move_cursor(self, point: int, erase: bool = False) -> None:
        self._path_epoch += 1
        self.thread.move_cursor(point, erase=erase)

    def go_to_time(self, when: float) -> int | None:
        """Hour-resolution random access (§5.2): move the cursor to the
        first record of ``when``'s hour, else the next closest after it."""
        point = self.thread.find_time(when // 3600 * 3600)
        if point is not None:
            self.move_cursor(point)
        return point

    def go_to_annotation(self, text: str) -> int | None:
        point = self.thread.find_annotation(text)
        if point is not None:
            self.move_cursor(point)
        return point

    # --------------------------------------------------------------- queries

    def show_data_scope(self) -> list[str]:
        """The Show Data Scope button: names visible at the current cursor."""
        return sorted(self.thread.data_scope())

    def show_thread_workspace(self) -> list[str]:
        return sorted(self.thread.workspace())
