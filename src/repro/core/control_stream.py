"""The control stream: a design thread's branching history structure.

Nodes are committed history records; *design points* are identified with the
node numbers (the point "just after" that record), plus the distinguished
:data:`INITIAL_POINT`.  The structure is a DAG: rework creates branches
(several children), thread joins create junction nodes (several parents) —
exactly the variable-children / variable-parents shape of the thesis's
``HistoryRecord`` struct (§5.3).

The §5.3 insertion rule is implemented by :meth:`ControlStream.append_spliced`:
a completed task's record attaches at its logical path's tip (tracked by the
activity manager from the invocation cursor); if a rework grew branches below
the tip in the meantime, the record is spliced in before them.

Cache-consistency contract (see docs/ARCHITECTURE.md): every mutator bumps
:attr:`ControlStream.epoch`; mutators that can change the thread state of a
*surviving* point additionally bump :attr:`ControlStream.scope_epoch` and
repair or drop the per-node ``cached_scope`` entries they touched, so scope
caches keyed by ``scope_epoch`` never serve stale data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.history import HistoryRecord
from repro.errors import ThreadError

#: The design point before any record: an empty thread state.
INITIAL_POINT = 0

#: The destructive mutations (they remove records or their step detail),
#: each with the details the audit trail keeps of it.
DESTRUCTIVE = {
    "erase": ("points", "records"),
    "splice_out": ("point", "task"),
    "abstract": ("point", "task"),
    "replace_region": ("points", "summary_point", "summary_task"),
}


@dataclass
class RecordNode:
    """One node of the control stream (thesis ``struct HistoryRecord``)."""

    number: int
    record: HistoryRecord | None          # None = junction node (thread join)
    parents: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    cached_scope: frozenset[str] | None = None

    @property
    def is_junction(self) -> bool:
        return self.record is None


class ControlStream:
    """The branching structure of committed tasks in one design thread."""

    def __init__(self):
        root = RecordNode(number=INITIAL_POINT, record=None)
        self._nodes: dict[int, RecordNode] = {INITIAL_POINT: root}
        self._next = 1
        self._epoch = 0
        self._scope_epoch = 0
        #: The stream's one hook: a weak reference (the thread owns its
        #: stream) to its thread's ``listener(kind, details)``, called after
        #: every structural mutation with replay-grade details (full records
        #: where the mutation adds them).  Every erase/abstraction path, from
        #: any caller, funnels through here: the audit trail is exactly-once.
        self.listener: Callable[[], Callable | None] | None = None

    def _mutated(self, kind: str, **details) -> None:
        if self.listener is not None and (listener := self.listener()):
            listener(kind, details)

    # --------------------------------------------------------------- epochs

    @property
    def epoch(self) -> int:
        """Monotonic counter of structural mutations of any kind."""
        return self._epoch

    @property
    def scope_epoch(self) -> int:
        """Monotonic counter of mutations that may change the thread state
        of an *existing* point (splices, removals, region replacement).

        Purely additive mutations (``append``, ``add_junction``, ``graft``)
        leave it unchanged: they create new points but never alter what any
        surviving point can see, so scope caches keyed on this epoch stay
        valid across them.
        """
        return self._scope_epoch

    def _bump(self, states_changed: bool = False) -> None:
        self._epoch += 1
        if states_changed:
            self._scope_epoch += 1

    def _drop_cached_scopes(self, points) -> None:
        for point in points:
            node = self._nodes.get(point)
            if node is not None:
                node.cached_scope = None

    # ------------------------------------------------------------- accessors

    def node(self, point: int) -> RecordNode:
        try:
            return self._nodes[point]
        except KeyError:
            raise ThreadError(f"no design point {point}") from None

    def record(self, point: int) -> HistoryRecord:
        node = self.node(point)
        if node.record is None:
            raise ThreadError(f"design point {point} has no history record")
        return node.record

    def __contains__(self, point: int) -> bool:
        return point in self._nodes

    def __len__(self) -> int:
        """Number of history records (junctions and the root excluded)."""
        return sum(1 for n in self._nodes.values()
                   if n.record is not None)

    def __bool__(self) -> bool:
        # A stream with zero records is still a stream; without this,
        # truthiness falls through to ``__len__`` — wrong for emptiness
        # tests, and a walk over every node.
        return True

    def points(self) -> list[int]:
        return sorted(self._nodes)

    def records(self) -> list[HistoryRecord]:
        return [n.record for n in self._nodes.values() if n.record is not None]

    def points_since(self, mark: int) -> list[int]:
        """Live points numbered ``mark`` or above, ascending: everything
        created since a reader last saw point ``mark - 1``."""
        return [p for p in range(mark, self._next) if p in self._nodes]

    def frontier(self) -> list[int]:
        """Design points without following records (§3.3.3)."""
        return sorted(p for p, n in self._nodes.items() if not n.children)

    # ------------------------------------------------------------- traversal

    def ancestors(self, point: int) -> list[int]:
        """Backward closure of a point, the point itself included."""
        seen: list[int] = []
        seen_set: set[int] = set()
        stack = [point]
        while stack:
            current = stack.pop()
            if current in seen_set:
                continue
            seen_set.add(current)
            seen.append(current)
            stack.extend(self.node(current).parents)
        return seen

    def descendants(self, point: int) -> list[int]:
        """Forward closure of a point, the point itself excluded."""
        seen: list[int] = []
        seen_set: set[int] = set()
        stack = list(self.node(point).children)
        while stack:
            current = stack.pop()
            if current in seen_set:
                continue
            seen_set.add(current)
            seen.append(current)
            stack.extend(self.node(current).children)
        return seen

    def is_ancestor(self, maybe_ancestor: int, point: int) -> bool:
        return maybe_ancestor in self.ancestors(point)

    def chain_between(self, ancestor: int, descendant: int) -> list[int]:
        """Points strictly after ``ancestor`` up to and including
        ``descendant`` along ancestry (all of descendant's ancestors that are
        descendants of ancestor)."""
        up = set(self.ancestors(descendant))
        down = set(self.descendants(ancestor))
        return sorted(up & down)

    # ------------------------------------------------------------- mutation

    def _new_node(self, record: HistoryRecord | None) -> RecordNode:
        node = RecordNode(number=self._next, record=record)
        self._next += 1
        self._nodes[node.number] = node
        return node

    def append(self, record: HistoryRecord, at_point: int) -> int:
        """Attach a record directly after ``at_point`` (may create a branch)."""
        parent = self.node(at_point)
        node = self._new_node(record)
        node.parents.append(parent.number)
        parent.children.append(node.number)
        self._bump()
        self._mutated("append", point=node.number, at_point=at_point,
                      record=record)
        return node.number

    def append_spliced(self, record: HistoryRecord, at_point: int) -> int:
        """The §5.3 insertion rule for in-flight task paths.

        A completed task belongs to the logical path anchored at its
        invocation cursor; ``at_point`` is that path's current tip.  If the
        tip is still a frontier the record is appended there.  If a rework
        meanwhile grew branches below the tip (Fig 5.6), the record is
        spliced in *before* those branches — it becomes the branches' new
        parent, and cached thread states downstream are patched with its
        objects (§5.3's cache-consistency rule).
        """
        current = self.node(at_point)
        if not current.children:
            return self.append(record, current.number)
        node = self._new_node(record)
        node.parents.append(current.number)
        node.children = list(current.children)
        for child_number in current.children:
            child = self.node(child_number)
            child.parents = [
                node.number if p == current.number else p
                for p in child.parents
            ]
        current.children = [node.number]
        added = frozenset(record.touched)
        for point in self.descendants(node.number):
            downstream = self.node(point)
            if downstream.cached_scope is not None:
                downstream.cached_scope = downstream.cached_scope | added
        # Downstream thread states gained the spliced record's objects: the
        # per-node caches were patched additively above, but epoch-keyed
        # full-result caches must recompute.
        self._bump(states_changed=True)
        self._mutated("append_spliced", point=node.number, at_point=at_point,
                      record=record)
        return node.number

    def add_junction(self, parents: list[int]) -> int:
        """Create a junction node joining several design points (thread join)."""
        if not parents:
            raise ThreadError("a junction needs at least one parent")
        node = self._new_node(None)
        for parent_number in parents:
            parent = self.node(parent_number)
            node.parents.append(parent.number)
            parent.children.append(node.number)
        self._bump()
        self._mutated("junction", point=node.number, parents=list(parents))
        return node.number

    def remove_points(self, points: set[int]) -> list[HistoryRecord]:
        """Remove a set of nodes (must not include the root); returns their
        records.  Children of removed nodes must themselves be removed."""
        if INITIAL_POINT in points:
            raise ThreadError("cannot remove the initial design point")
        for point in points:
            for child in self.node(point).children:
                if child not in points:
                    raise ThreadError(
                        f"removing point {point} would orphan point {child}"
                    )
        removed: list[HistoryRecord] = []
        for point in sorted(points):
            node = self._nodes.pop(point)
            if node.record is not None:
                removed.append(node.record)
            for parent_number in node.parents:
                if parent_number in self._nodes:
                    parent = self._nodes[parent_number]
                    parent.children = [c for c in parent.children if c != point]
        # Surviving per-node caches stay valid (no survivor descends from a
        # removed node), but result caches may hold the removed points.
        self._bump(states_changed=True)
        self._mutated("erase", points=sorted(points), records=len(removed))
        return removed

    def erase_subtree(self, point: int) -> list[HistoryRecord]:
        """Remove a point and everything after it (dead-end branch pruning)."""
        doomed = set(self.descendants(point)) | {point}
        return self.remove_points(doomed)

    # ------------------------------------------------------- stream grafting

    def graft(
        self,
        other: "ControlStream",
        at_point: int,
        other_start: int = INITIAL_POINT,
    ) -> dict[int, int]:
        """Copy ``other``'s nodes into this stream, attaching ``other``'s
        ``other_start`` point onto ``at_point``.  Returns the point mapping
        (other's numbering → this stream's numbering).

        Records are shared (they are conceptually immutable once committed);
        node structure is copied, so the source stream is unaffected.
        """
        mapping: dict[int, int] = {other_start: at_point}
        order = [other_start] + other.descendants(other_start)
        # Grafting root-onto-root preserves every copied point's backward
        # closure, so the source's per-node stride caches stay valid and can
        # ride along (the copy/cascade/join "warm start").  Any other anchor
        # changes what the grafted points can see — caches must not carry.
        carry = at_point == INITIAL_POINT and other_start == INITIAL_POINT
        for point in order:
            if point == other_start:
                continue
            src = other.node(point)
            node = self._new_node(src.record)
            if carry:
                node.cached_scope = src.cached_scope
            mapping[point] = node.number
        for point in order:
            if point == other_start:
                continue
            src = other.node(point)
            dst = self.node(mapping[point])
            for parent_number in src.parents:
                mapped = mapping.get(parent_number)
                if mapped is None:
                    # Parent outside the grafted region: attach to at_point.
                    mapped = at_point
                dst.parents.append(mapped)
                self.node(mapped).children.append(dst.number)
        self._bump()
        self._mutated("graft", at_point=at_point, points=len(mapping) - 1)
        return mapping

    def copy(self) -> tuple["ControlStream", dict[int, int]]:
        """A structural copy; returns the new stream and the point mapping."""
        fresh = ControlStream()
        mapping = fresh.graft(self, INITIAL_POINT, INITIAL_POINT)
        return fresh, mapping

    # --------------------------------------------------------------- queries

    def find_by_annotation(self, text: str) -> int | None:
        """First design point whose record carries the given annotation."""
        for point in sorted(self._nodes):
            node = self._nodes[point]
            if node.record is not None and node.record.annotation == text:
                return point
        return None

    def find_by_time(self, when: float) -> int | None:
        """First design point recorded at or after ``when`` (§5.2's
        hour-resolution random access generalized to exact time)."""
        best: tuple[float, int] | None = None
        for point, node in self._nodes.items():
            if node.record is None:
                continue
            t = node.record.recorded_at
            if t >= when and (best is None or (t, point) < best):
                best = (t, point)
        return best[1] if best else None

    # ----------------------------------------------------- reclamation hooks

    def splice_out(self, point: int) -> HistoryRecord:
        """Remove a single-parent node, re-linking its children to its parent
        (used by iterative-process abstraction, Fig 5.9)."""
        node = self.node(point)
        if point == INITIAL_POINT:
            raise ThreadError("cannot splice out the initial design point")
        if len(node.parents) != 1:
            raise ThreadError(
                f"point {point} has {len(node.parents)} parents; only "
                "single-parent nodes can be spliced out"
            )
        if node.record is None:
            raise ThreadError(f"point {point} is a junction, not a record")
        # The spliced-out record's objects vanish from every downstream
        # thread state, so the forward closure's cached scopes are stale.
        # Subtract-patching is unsafe (another record in the closure may
        # contribute the same name), so drop them outright.
        affected = self.descendants(point)
        parent = self.node(node.parents[0])
        parent.children = [c for c in parent.children if c != point]
        for child_number in node.children:
            child = self.node(child_number)
            child.parents = [
                parent.number if p == point else p for p in child.parents
            ]
            parent.children.append(child_number)
        del self._nodes[point]
        self._drop_cached_scopes(affected)
        self._bump(states_changed=True)
        self._mutated("splice_out", point=point, task=node.record.task)
        return node.record

    def abstract(self, point: int) -> HistoryRecord:
        """Vertical aging (Fig 5.7): forget a record's internal steps in
        place.  Thread states hold task inputs and outputs only, so no
        cached scope changes."""
        record = self.record(point)
        record.abstract()
        self._mutated("abstract", point=point, task=record.task)
        return record

    def replace_region(
        self, points: set[int], summary: HistoryRecord
    ) -> int:
        """Replace a root-anchored region with one summary record (horizontal
        aging, Fig 5.8).  Every parent of a region node must be in the region
        or be the root; boundary children re-parent onto the summary node."""
        if INITIAL_POINT in points:
            raise ThreadError("cannot replace the initial design point")
        for point in points:
            for parent in self.node(point).parents:
                if parent not in points and parent != INITIAL_POINT:
                    raise ThreadError(
                        f"region is not root-anchored: point {point} has "
                        f"parent {parent} outside the region"
                    )
        boundary: list[int] = []
        for point in points:
            for child in self.node(point).children:
                if child not in points:
                    boundary.append(child)
        summary_node = self._new_node(summary)
        summary_node.parents.append(INITIAL_POINT)
        root = self.node(INITIAL_POINT)
        root.children = [c for c in root.children if c not in points]
        root.children.append(summary_node.number)
        for child_number in boundary:
            child = self.node(child_number)
            child.parents = [
                summary_node.number if p in points else p
                for p in child.parents
            ]
            summary_node.children.append(child_number)
        for point in points:
            del self._nodes[point]
        # Boundary children and everything below them now see the summary's
        # (reduced) output set instead of the replaced records' objects.
        self._drop_cached_scopes(self.descendants(summary_node.number))
        self._bump(states_changed=True)
        self._mutated("replace_region", points=sorted(points),
                      summary_point=summary_node.number, summary=summary,
                      summary_task=summary.task)
        return summary_node.number
